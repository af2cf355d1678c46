// Multi-tenant multi-width query serving from ONE shared candidate
// structure.
//
// Scenario: M tenants each hold a standing distinct-sample query over
// the same stream(s), but at different window widths w_1 <= w_2 <= ...
// <= w_M <= W. The naive deployment runs M independent
// WindowedBottomSSamplers — M hash passes per arrival and M candidate
// structures of O(s log(M_d/s)) tuples each. This module serves every
// tenant from a SINGLE sampler per stream, keyed at the registry's
// maximum width W:
//
//   * Ingest once. Every arrival is hashed once (batched: one
//     hash-kind dispatch per batch, see hash::HashFunction::hash_batch)
//     and inserted once, with expiry = arrival + W.
//
//   * Serve any width by expiry threshold. A tuple observed at slot a
//     lies inside the width-w window ending at `now` iff a > now - w,
//     i.e. iff expiry > now + (W - w). So tenant i's answer is "the
//     bottom-s among tuples with expiry above a threshold" — a binary
//     search for the valid suffix of the expiry-ordered flat array and
//     a partial select over it, served from the bottom-s cache at the
//     widest width (treap::SDominanceSet::bottom_s_valid_after).
//
//   * Exactness. Any member of the width-w window's true bottom-s has
//     fewer than s smaller-hash tuples in the w-window; each of those
//     expires later than it does (arrived later), so the member has
//     fewer than s smaller-hash LATER-EXPIRING tuples globally and
//     survives s-dominance pruning at width W. Hence the shared
//     structure still holds it, and the thresholded walk returns it —
//     tenant answers are bit-identical to M independent deployments
//     (pinned by tests/tenant_service_test.cpp and the abl15 bench).
//
// Multiple streams: one sampler per stream, all sharing one hash
// function, merged at query time by the same partition argument as the
// sharded coordinator merge (query/merge.h): an element's globally
// freshest arrival lives in some stream, where it is valid at width w
// and beaten by fewer than s smaller hashes, so the union of per-stream
// answers (deduplicated by element, freshest expiry kept) contains the
// exact global bottom-s.
//
// Serving is allocation-free in steady state: per-tenant answer buffers
// and the merge scratch persist across calls (the alloc-audit test
// pins zero allocations on the batched ingest + serve loop).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/windowed_bottom_s.h"
#include "hash/hash_function.h"
#include "sim/message.h"
#include "stream/element.h"
#include "treap/s_dominance_set.h"

namespace dds::query {

/// The shared serving structure: registers tenants at widths up to a
/// fixed maximum, ingests one or more streams once, answers every
/// tenant's standing bottom-s query exactly.
class TenantRegistry {
 public:
  /// `sample_size` is the per-tenant s; `max_width` W bounds every
  /// tenant width; `num_streams` >= 1 independent input streams (all
  /// hashed with the same function — required for the cross-stream
  /// merge to be exact).
  TenantRegistry(std::size_t sample_size, sim::Slot max_width,
                 std::uint32_t num_streams = 1,
                 hash::HashKind hash_kind = hash::HashKind::kMurmur2,
                 std::uint64_t seed = 0x7453764FULL /* "tSvO" */);

  /// Registers a standing query at window width `width` (0 < width <=
  /// max_width()); returns the tenant id used by answer()/estimate().
  std::size_t register_tenant(sim::Slot width);

  /// Observes one arrival on `stream` at slot `t` (non-decreasing).
  void update(std::uint32_t stream, stream::Element element, sim::Slot t);

  /// Batched arrivals on `stream`, all at slot `t`: one hash pass, one
  /// expiry sweep, prefetched inserts — the hot ingest path. Candidate
  /// state lands identical to element-at-a-time update() calls.
  void update_batch(std::uint32_t stream,
                    std::span<const stream::Element> elements, sim::Slot t);

  /// Tenant `tenant`'s exact bottom-s at slot `now` (hash-ascending,
  /// freshest expiry per element), into a reused buffer. Expiries are
  /// rebased to the tenant's own width (arrival + w_i), so the answer
  /// is bit-identical — element, hash, AND expiry — to what a dedicated
  /// width-w_i sampler fed the same stream would return. `now` must be
  /// >= every observed slot and non-decreasing across queries.
  void answer_into(std::size_t tenant, sim::Slot now,
                   std::vector<treap::Candidate>& out);

  /// answer_into() returning a fresh vector (test/debug sugar).
  std::vector<treap::Candidate> answer(std::size_t tenant, sim::Slot now);

  /// KMV distinct-count estimate of tenant `tenant`'s window at `now`
  /// (query::estimate_window_distinct over its exact bottom-s).
  double estimate(std::size_t tenant, sim::Slot now);

  /// Answers EVERY tenant at `now` into persistent per-tenant buffers;
  /// returns the buffer table (index = tenant id). Allocation-free in
  /// steady state.
  const std::vector<std::vector<treap::Candidate>>& serve_all(sim::Slot now);

  std::size_t num_tenants() const noexcept { return widths_.size(); }
  std::uint32_t num_streams() const noexcept {
    return static_cast<std::uint32_t>(samplers_.size());
  }
  std::size_t sample_size() const noexcept { return sample_size_; }
  sim::Slot max_width() const noexcept { return max_width_; }
  sim::Slot tenant_width(std::size_t tenant) const {
    return widths_.at(tenant);
  }

  /// Tuples retained across all streams (the shared-memory metric; an
  /// M-deployment baseline pays ~M times this).
  std::size_t state_size() const noexcept;

  /// Bytes reserved by the samplers plus the serving buffers — the
  /// sub-linear-memory claim abl15 reports (shared vs M separate).
  std::size_t footprint_bytes() const noexcept;

  const core::WindowedBottomSSampler& sampler(std::uint32_t stream = 0) const {
    return samplers_.at(stream);
  }

 private:
  std::size_t sample_size_;
  sim::Slot max_width_;
  std::vector<core::WindowedBottomSSampler> samplers_;  ///< one per stream
  std::vector<sim::Slot> widths_;                       ///< per-tenant width
  /// Per-tenant persistent answer buffers (serve_all's return table).
  std::vector<std::vector<treap::Candidate>> answers_;
  /// Cross-stream merge scratch (union of per-stream answers).
  std::vector<treap::Candidate> merge_scratch_;
  std::vector<treap::Candidate> stream_scratch_;
};

}  // namespace dds::query
