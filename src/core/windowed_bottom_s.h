// Bottom-s distinct sampling over a sliding window — the
// without-replacement extension of Chapter 4 (the thesis implements
// s = 1 and calls larger s "straightforward"; this module and the
// full-sync distributed variant in baseline/fullsync_bottom_s.h make it
// concrete).
//
// WindowedBottomSSampler is the single-stream primitive: it wraps an
// SDominanceSet and answers "the s smallest-hash distinct elements of
// the last w slots" exactly, in O(s log(M/s)) expected space — the
// bottom-s analogue of priority sampling over sliding windows (Babcock,
// Datar & Motwani 2002).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hash/hash_function.h"
#include "sim/message.h"
#include "stream/element.h"
#include "treap/s_dominance_set.h"

namespace dds::core {

class WindowedBottomSSampler {
 public:
  WindowedBottomSSampler(std::size_t sample_size, sim::Slot window,
                         hash::HashFunction hash_fn,
                         std::uint64_t seed = 0x77627353ULL);

  /// Observes an arrival at slot `t`. Slots must be non-decreasing.
  void observe(stream::Element element, sim::Slot t);

  /// observe() with the hash precomputed — the distributed batch path
  /// (sites hash a whole batch up front, then replay the exact
  /// expire-then-observe sequence per element).
  void observe_hashed(stream::Element element, std::uint64_t hv, sim::Slot t);

  /// Batched observe: one hash pass over the batch (the hash-kind
  /// dispatch is hoisted out of the loop), ONE expiry sweep for the
  /// whole batch instead of one per element (every arrival shares slot
  /// `t` and expires at t + w > t, so later sweeps at `t` would remove
  /// nothing), and ONE combined dominance sweep judging victims against
  /// all batch hashes at once (SDominanceSet::observe_group) instead of
  /// re-walking the candidate structure per element. The resulting
  /// candidate set is identical to element-at-a-time observe() calls —
  /// the survivor set is canonical in the live (hash, expiry) multiset
  /// — which the differential fuzz pins.
  void observe_batch(std::span<const stream::Element> elements, sim::Slot t);

  /// The exact bottom-s distinct sample of the window ending at `now`
  /// (hash-ascending). `now` must be >= the latest observed slot.
  std::vector<treap::Candidate> sample(sim::Slot now);

  /// sample() into a reused buffer (cleared first) — the
  /// allocation-free variant for per-slot callers.
  void sample_into(sim::Slot now, std::vector<treap::Candidate>& out);

  /// Exact bottom-s of the SUB-window of width `width` (0 < width <=
  /// window()) ending at `now`, into a reused buffer. A tuple observed
  /// at slot a expires at a + W, so it lies inside the width-w window
  /// iff a > now - w, i.e. expiry > now + (W - w): the query is an
  /// expiry-threshold select over the shared candidate structure (a
  /// binary search for the valid suffix plus a partial select), and it
  /// is exact because any member of the w-window's bottom-s has fewer
  /// than s smaller-hash later-expiring tuples (those would be in the
  /// w-window too) and hence survives s-dominance pruning at W. This is
  /// what lets one sampler keyed at the WIDEST width serve every
  /// narrower tenant width (query/service.h).
  void sample_at_width_into(sim::Slot now, sim::Slot width,
                            std::vector<treap::Candidate>& out);

  /// Tuples currently retained (the memory metric).
  std::size_t state_size() const noexcept { return candidates_.size(); }

  /// Bytes reserved by the candidate structure and the batch scratch —
  /// footprint accounting for the shared-vs-separate tenant comparison.
  std::size_t footprint_bytes() const noexcept {
    return candidates_.footprint_bytes() +
           hash_scratch_.capacity() * sizeof(std::uint64_t);
  }

  std::size_t sample_size() const noexcept { return candidates_.sample_size(); }
  sim::Slot window() const noexcept { return window_; }
  const hash::HashFunction& hash_fn() const noexcept { return hash_fn_; }

  const treap::SDominanceSet& candidates() const noexcept {
    return candidates_;
  }

  /// Rebuilds the candidate set from a candidates().snapshot() image —
  /// the checkpoint/restore path (core/checkpoint.h).
  void load_candidates(const std::vector<treap::Candidate>& items) {
    candidates_.load_snapshot(items);
  }

  /// Adopts one tuple with an arbitrary expiry — the elastic-resize
  /// migration path routes tuples from old shard copies through here.
  void absorb(const treap::Candidate& c) {
    candidates_.insert(c.element, c.hash, c.expiry);
  }

 private:
  sim::Slot window_;
  hash::HashFunction hash_fn_;
  treap::SDominanceSet candidates_;
  std::vector<std::uint64_t> hash_scratch_;  ///< batched-hash buffer
};

}  // namespace dds::core
