// Distributed bottom-s sliding-window sampling, full-sync style — the
// without-replacement s > 1 window sampler, distributed the same way as
// the paper's Section 4.1 no-feedback sketch: whenever a tuple enters a
// site's local bottom-s (or its expiry refreshes while it is there), the
// site ships it to the coordinator; the coordinator pools per-site
// candidates and answers queries with the bottom-s of the live pool.
//
// Exactness: every element of the global window bottom-s is, at its own
// site, inside the local bottom-s (fewer than s smaller hashes exist
// globally, hence locally), so the site has shipped it with its current
// expiry; stale pool entries age out by timestamp, so the coordinator's
// answer equals the true window bottom-s at every slot. The price is
// message volume (no thresholds suppress anything) — measured against
// the s-parallel-copies scheme in the abl7 bench.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/windowed_bottom_s.h"
#include "hash/hash_function.h"
#include "net/transport.h"
#include "sim/node.h"
#include "treap/s_dominance_set.h"

namespace dds::baseline {

class BottomSSlidingSite final : public sim::StreamNode {
 public:
  BottomSSlidingSite(sim::NodeId id, sim::NodeId coordinator,
                     std::size_t sample_size, sim::Slot window,
                     hash::HashFunction hash_fn,
                     std::uint64_t seed = 0x62735369ULL);

  void on_slot_begin(sim::Slot t, net::Transport& bus) override;
  void on_element(stream::Element element, sim::Slot t, net::Transport& bus) override;
  void on_element_batch(std::span<const std::uint64_t> elements, sim::Slot t,
                        net::Transport& bus) override;
  void on_message(const sim::Message& /*msg*/, net::Transport& /*bus*/) override {}

  std::size_t state_size() const noexcept override {
    return sampler_.state_size();
  }

  /// Forgets the shipped-memo and re-ships the whole current local
  /// bottom-s — the post-failover resynchronization step: one resync
  /// round from every site rebuilds a respawned-empty (or restored)
  /// coordinator pool to exactness.
  void resync(net::Transport& bus);

  /// Candidate-set image for lossless site failover (core/checkpoint.h).
  std::vector<treap::Candidate> snapshot_candidates() const {
    return sampler_.candidates().snapshot();
  }
  /// Rebuilds the candidate set from a snapshot_candidates() image and
  /// clears the shipped-memo, so the next sync re-ships everything.
  void restore_candidates(const std::vector<treap::Candidate>& items);
  /// Adopts one tuple with an arbitrary expiry — the elastic-resize
  /// migration path routes tuples from old shard copies through here.
  void absorb(const treap::Candidate& c) { sampler_.absorb(c); }

 private:
  /// Ships every tuple of the current local bottom-s the coordinator
  /// has not seen at its current expiry.
  void sync(sim::Slot now, net::Transport& bus);

  sim::NodeId id_;
  sim::NodeId coordinator_;
  core::WindowedBottomSSampler sampler_;
  /// The shipped-memo: the local bottom-s of the previous sync, in
  /// (hash, element) order. After every sync the coordinator has seen
  /// exactly these (element, expiry) pairs, so a tuple needs shipping
  /// iff its pair is not in here. Swapped with `bottom_` per sync — both
  /// vectors keep their capacity, so sync never allocates.
  std::vector<treap::Candidate> shipped_;
  std::vector<treap::Candidate> bottom_;  ///< reused per-sync scratch
  std::vector<std::uint64_t> hash_scratch_;  ///< batched-hash buffer
};

class BottomSSlidingCoordinator final : public sim::Node {
 public:
  BottomSSlidingCoordinator(sim::NodeId id, std::size_t sample_size);

  void on_message(const sim::Message& msg, net::Transport& bus) override;
  std::size_t state_size() const noexcept override { return pool_.size(); }

  /// Exact window bottom-s at slot `now`, hash-ascending. `now` must be
  /// non-decreasing across queries (it advances the pool's expiry
  /// sweep), which every slot-clock-driven caller satisfies.
  std::vector<treap::Candidate> sample(sim::Slot now) const;

  /// sample() into a reused buffer — allocation-free per-slot queries.
  void sample_into(sim::Slot now, std::vector<treap::Candidate>& out) const;

  /// Read access to the pooled dominance set (the observability layer
  /// polls its occupancy and expiry-sweep statistics).
  const treap::SDominanceSet& pool() const noexcept { return pool_; }

  // ---- checkpoint / recovery hooks (core/checkpoint.h) --------------
  /// Forgets the pooled tuples (a respawned-empty coordinator; a site
  /// resync round restores exactness).
  void clear() { pool_.clear(); }
  /// Rebuilds the pool from a pool().snapshot() image.
  void restore_pool(const std::vector<treap::Candidate>& items) {
    pool_.load_snapshot(items);
  }

 private:
  /// The reported-tuple pool as a bottom-s dominance set: tuples whose
  /// s dominators (smaller hash, later expiry) have all been reported
  /// can never re-enter the window bottom-s, so the pool keeps
  /// O(s log(M/s)) expected state instead of every live report, and
  /// bottom_s() is a copy of the set's bottom-s cache instead of a
  /// filter+sort over the full pool. In a sharded deployment this is
  /// the per-shard coordinator state. Mutable: queries advance the
  /// expiry sweep (a cache-style mutation — answers depend only on
  /// `now`).
  mutable treap::SDominanceSet pool_;
};

}  // namespace dds::baseline
