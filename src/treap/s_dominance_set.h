// SDominanceSet — the bottom-s generalization of the dominance set, as
// one flat array.
//
// The paper handles window sample sizes s > 1 by running s independent
// copies of the single-sample protocol (a with-replacement sample; see
// multi_sliding.h). This module implements the WITHOUT-replacement
// alternative the thesis leaves as "straightforward": maintain, per
// site, every tuple that could still belong to the bottom-s of some
// current or future window.
//
// Generalized dominance: a tuple (e, t) is prunable iff at least s
// tuples (e', t') with t' > t and h(e') < h(e) exist — then e can never
// again be among the s smallest in-window hashes (its s dominators all
// outlive it). For s = 1 this degenerates to DominanceSet's rule.
//
// Representation. The expected size is O(s(1 + log(M/s))) for M
// distinct in-window elements (the bottom-s analogue of Lemma 10) — a
// few dozen to a few hundred tuples — so the tuples live in ONE array
// in (expiry, hash, element) order (sample_key_less, the order of
// DominanceSet's flat ring):
//
//   * window expiry drops a prefix: a head index advances, and the dead
//     prefix is compacted away only when the array would otherwise
//     grow, so steady-state churn allocates nothing;
//   * observe() appends at or near the end; coordinator insert() and
//     load_snapshot() place mid-array;
//   * duplicate refresh is a linear element scan.
//
// Updates use an early-terminating dominance sweep, an index loop from
// the back of the array: walk equal-expiry groups (contiguous runs) in
// descending expiry order, maintaining W_old, the s smallest hashes of
// the later stored tuples. The post-update working set is derived from
// it, W_new = s-smallest(W_old ∪ newcomers): a tuple is newly prunable
// iff it fails against W_new, and the instant W_new == W_old (W_old
// full, no newcomer below its maximum) every judgment below is
// unchanged from the pre-update state (which satisfied the invariant),
// so the sweep stops. The newcomer's hash falls out of the working set
// after s smaller later hashes have been seen, so sweeps are short in
// practice — the abl7 bench measures tuples swept per update staying
// sublinear in |T| (docs/substrates.md).
//
// Bottom-s reads come from a cached copy of the s smallest-hash tuples.
// Only two events change the bottom-s: a newcomer below the current
// s-th hash (merged into the cache in O(s)), or the expiry of a member
// (the cache is rebuilt by one partial select on the next read). A
// refresh keeps its hash, so it only updates a cached expiry, and a
// pruned victim already has s smaller-hash survivors, so it is never a
// member of the new bottom-s.
//
// The fuzz suites check behaviour against an O(n^2) reference.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "treap/dominance_set.h"

namespace dds::treap {

/// The bottom-s candidate set: every tuple that could still belong to
/// the bottom-s of some current or future window (a tuple dies once s
/// later-expiring, smaller-hash tuples exist). One flat array in
/// (expiry, hash, element) order plus a cached bottom-s.
class SDominanceSet {
 public:
  /// `sample_size` is s (> 0, throws std::invalid_argument otherwise).
  /// `seed` is accepted for interface stability and unused: the flat
  /// representation has no randomized structure. Allocates nothing;
  /// storage grows on first use.
  explicit SDominanceSet(std::size_t sample_size,
                         std::uint64_t seed = 0x73646f6dULL);

  /// Fresh arrival with the newest expiry (>= everything stored).
  /// Refreshes the tuple if the element is already tracked, then prunes
  /// every tuple that acquired its s-th dominator.
  void observe(std::uint64_t element, std::uint64_t hash, sim::Slot expiry);

  /// Arbitrary-expiry insert (coordinator feedback). No-op if the tuple
  /// itself is already s-dominated.
  void insert(std::uint64_t element, std::uint64_t hash, sim::Slot expiry);

  /// Batched observe: `n` fresh arrivals sharing one `expiry` (one
  /// ingest batch at slot t has expiry t + W, which must be >= every
  /// stored expiry — the same precondition as observe()). Produces the
  /// EXACT state per-element observe() calls would: the s-dominance
  /// survivor set is canonical in the live (hash, expiry) multiset, so
  /// stale-copy refreshes, in-batch duplicates (second copy is the same
  /// no-op as sequentially), and victim pruning all land identically.
  /// The win is structural: the newcomers share an expiry, so ONE
  /// descending-expiry dominance sweep judges victims against all n
  /// hashes at once instead of re-walking the same groups n times —
  /// the sweep cost of the longest single newcomer, not the sum.
  void observe_group(const std::uint64_t* elements,
                     const std::uint64_t* hashes, std::size_t n,
                     sim::Slot expiry);

  /// Drops tuples with expiry <= now: a head advance, O(expired).
  void expire(sim::Slot now);

  /// The up-to-s smallest-hash candidates, ordered by (hash, element).
  std::vector<Candidate> bottom_s() const;

  /// Writes the bottom-s into `out` (cleared first) without returning
  /// a fresh vector — the allocation-free variant for per-slot callers.
  /// A copy of the cache, O(s); O(|T|) after a member expired.
  void bottom_s_into(std::vector<Candidate>& out) const;

  /// Multi-width query: the up-to-`count` smallest-hash candidates among
  /// tuples with expiry strictly greater than `min_expiry`, written to
  /// `out` (cleared first), ordered by (hash, element). With tuples
  /// keyed at width W and `min_expiry = now + (W - w)`, this is the
  /// bottom-s of the narrower window w: any tuple of the w-window's true
  /// bottom-s has fewer than s smaller-hash tuples expiring later (those
  /// would be in the w-window too), so it survives s-dominance pruning
  /// at W and is stored here. The valid tuples are an array suffix
  /// (binary search), and the answer is a partial select over it —
  /// served from the bottom-s cache when the suffix is the whole set.
  /// Allocation-free once `out` has capacity.
  void bottom_s_valid_after(sim::Slot min_expiry,
                            std::vector<Candidate>& out) const;
  void bottom_s_valid_after(sim::Slot min_expiry, std::size_t count,
                            std::vector<Candidate>& out) const;

  /// Smallest-hash candidate (== bottom_s().front()).
  std::optional<Candidate> min_hash() const;

  std::size_t size() const noexcept { return items_.size() - head_; }
  bool empty() const noexcept { return size() == 0; }
  std::size_t sample_size() const noexcept { return s_; }
  bool contains(std::uint64_t element) const;

  /// Bytes reserved by the tuple array, the bottom-s cache and the
  /// sweep scratch; footprint accounting for the multi-tenant
  /// comparison.
  std::size_t footprint_bytes() const noexcept {
    return (items_.capacity() + bottom_.capacity()) * sizeof(Candidate) +
           (w_old_.capacity() + newcomers_.capacity() +
            fresh_elems_.capacity() + fresh_hashes_.capacity()) *
               sizeof(std::uint64_t) +
           victims_.capacity() * sizeof(std::size_t);
  }

  /// All tuples in (expiry, hash, element) order.
  std::vector<Candidate> snapshot() const;

  /// Drops every stored tuple (the statistics counters survive).
  void clear();

  /// Rebuilds this set from a snapshot() image — the checkpoint/restore
  /// path (core/checkpoint.h). `items` need not be ordered: insert()
  /// keeps the freshest expiry per element and no tuple of a valid
  /// snapshot is s-dominated by the others, so loading in any order
  /// reproduces the snapshotted set.
  void load_snapshot(const std::vector<Candidate>& items);

  /// Checks that the array is strictly ordered by sample_key_less,
  /// elements are unique, no stored tuple is s-dominated, and a fresh
  /// bottom-s cache equals the recomputed bottom-s. O(n^2) test hook.
  bool check_invariants() const;

  // ---- instrumentation (abl7 sublinearity rows) ---------------------
  /// Stored tuples examined by dominance sweeps so far; divide by
  /// updates() for the mean per-update sweep length.
  std::uint64_t swept_tuples() const noexcept { return stat_swept_; }
  /// observe()/insert() calls so far (observe_group counts each of its
  /// n arrivals).
  std::uint64_t updates() const noexcept { return stat_updates_; }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// Shared observe/insert body; `newest` marks observe()'s
  /// max-expiry precondition (its newcomer can never be dominated).
  void update(std::uint64_t element, std::uint64_t hash, sim::Slot expiry,
              bool newest);

  /// The dominance sweep for newcomers `hashes[0, n)` that all carry
  /// `expiry`: records the newly prunable tuples' indices in victims_
  /// (descending) and returns true iff the newcomers are themselves
  /// s-dominated (possible only for a single insert() newcomer, and
  /// then victims_ is empty).
  bool sweep(const std::uint64_t* hashes, std::size_t n, sim::Slot expiry);
  /// Folds `h` into w_old_ (the s smallest later hashes); returns true
  /// iff w_old_ changed.
  bool fold(std::uint64_t h);
  /// The prune threshold max(W_new), W_new = s-smallest(w_old_ ∪
  /// newcomers_), or ~0 while W_new holds fewer than s hashes (nothing
  /// can be pruned yet).
  std::uint64_t new_threshold() const noexcept;

  /// Index of `element`'s tuple in items_, or kNone.
  std::size_t find(std::uint64_t element) const noexcept;
  /// Removes the tuple at index `i`, shifting the shorter side.
  void erase_at(std::size_t i);
  /// Removes the indices in victims_ (descending) in one pass.
  void erase_victims();
  /// Inserts `c` at its sample_key_less position, scanning back from
  /// the end (observe() newcomers land at or near it).
  void place(const Candidate& c);
  /// Guarantees room for one more tuple without a reallocation-per-push:
  /// compacts the dead prefix, then doubles while more than half full.
  void make_room();

  /// Merges a newly stored (or refreshed) tuple into a fresh cache.
  void bottom_offer(const Candidate& c);
  /// Rebuilds the cache when a member expired (or it was invalidated).
  void refresh_bottom() const;
  /// Bounded select: the `count` smallest (hash, element) tuples of
  /// items_[from, size()) into `out` (cleared first), ordered.
  void select_smallest(std::size_t from, std::size_t count,
                       std::vector<Candidate>& out) const;

  std::size_t s_;
  /// Live tuples are items_[head_, items_.size()), sample_key_less
  /// ascending.
  std::vector<Candidate> items_;
  std::size_t head_ = 0;

  /// The bottom-s of the live tuples, (hash, element) ascending, valid
  /// while bottom_fresh_. Mutable: const reads rebuild it lazily.
  mutable std::vector<Candidate> bottom_;
  mutable bool bottom_fresh_ = true;

  // Sweep scratch, reused across updates (allocation-free steady state).
  /// The s smallest later hashes, ascending, in s slots; the first
  /// held_ are real and the rest hold ~0.
  std::vector<std::uint64_t> w_old_;
  std::size_t held_ = 0;
  std::vector<std::uint64_t> newcomers_;  ///< the sweep's newcomer hashes, ascending
  std::vector<std::size_t> victims_;
  std::vector<std::uint64_t> fresh_elems_;   ///< observe_group survivors
  std::vector<std::uint64_t> fresh_hashes_;  ///< of the stale/dup filter

  std::uint64_t stat_swept_ = 0;
  std::uint64_t stat_updates_ = 0;
};

}  // namespace dds::treap
