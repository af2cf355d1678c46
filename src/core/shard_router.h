// Consistent-hash routing of the element space over N coordinator
// shards.
//
// The paper's protocols put one coordinator in front of k sites; the
// scale direction is to shard that coordinator so its per-report work
// and sample memory spread over N independent instances. Correctness
// rides on a partition of the ELEMENT space: every occurrence of element
// e — at any site, any time — routes to the same shard, so shard j runs
// the unmodified protocol over the substream h^-1(shard j) and its
// sample is the exact bottom-s of its partition. A query-time merge
// (take the bottom-s of the union of shard samples) then yields exactly
// the global bottom-s, because every global bottom-s member is in its
// own shard's bottom-s.
//
// The ring is classic consistent hashing (Karger et al. 1997):
// `replicas` virtual points per shard, placed by mixing (shard, replica)
// through mix64; an element routes to the first point clockwise of
// mix64(e ^ salt). Growing N to N+1 therefore remaps only ~1/(N+1) of
// the element space — existing shards keep most of their thresholds
// warm — which the partition tests quantify.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "stream/element.h"

namespace dds::core {

class ShardRouter {
 public:
  /// A ring for `num_shards` shards (>= 1). `seed` decorrelates the
  /// ring from the protocol hash functions; `replicas` virtual points
  /// per shard trade lookup table size for balance.
  explicit ShardRouter(std::uint32_t num_shards, std::uint64_t seed = 1,
                       std::uint32_t replicas = 64);

  /// Shard owning element `e`. O(1) for one shard, O(log(N*replicas))
  /// otherwise.
  std::uint32_t shard_of(stream::Element e) const noexcept;

  /// Alias of shard_of() — "who owns e" is how call sites read.
  std::uint32_t owner(stream::Element e) const noexcept {
    return shard_of(e);
  }

  std::uint32_t num_shards() const noexcept { return num_shards_; }

  /// Grows the ring to N+1 shards in place. Ring points depend only on
  /// (seed, shard, replica), so the grown ring is IDENTICAL to a fresh
  /// ShardRouter(N+1, seed, replicas) — and only the element regions
  /// claimed by the newcomer's points move (~1/(N+1) of the space; the
  /// elastic tests measure it via disagreement()).
  void add_shard();

  /// Shrinks the ring to N-1 shards in place (N >= 2, throws
  /// std::logic_error otherwise). Only elements owned by the departing
  /// LAST shard move (~1/N of the space); surviving shard indices are
  /// unchanged, which is why only the last shard may leave.
  void remove_last_shard();

  /// Fraction of `probes` sampled elements whose shard differs between
  /// this ring and `other` (the remap cost of a resize; test hook).
  double disagreement(const ShardRouter& other, std::uint64_t probes) const;

 private:
  struct Point {
    std::uint64_t position;
    std::uint32_t shard;
  };

  void rebuild();

  std::uint32_t num_shards_;
  std::uint32_t replicas_;
  std::uint64_t salt_;
  std::vector<Point> ring_;  // sorted by position
};

/// A small LRU cache over ShardRouter::owner(), for callers that route
/// every arrival (RoutedSite): real streams are heavy on repeated
/// elements, so most ring binary searches can be answered from a few
/// hundred cached (element -> shard) pairs. 2-way set-associative with
/// per-set LRU; the ring is immutable for the router's lifetime, so
/// entries never go stale. Hit statistics feed the bench tables
/// (abl11/abl12 "route hit%" column).
class ShardCache {
 public:
  /// `entries` is rounded up to a power of two (>= 2); memory is
  /// entries * 16 bytes.
  explicit ShardCache(std::size_t entries = 256);

  /// Cached router.owner(e).
  std::uint32_t owner(const ShardRouter& router, stream::Element e);

  /// Invalidates every entry (statistics survive). Required after the
  /// ring resizes — an elastic add/remove_shard makes cached owners
  /// stale, the one exception to the "ring is immutable" contract above.
  void clear();

  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t lookups() const noexcept { return lookups_; }

 private:
  struct Entry {
    stream::Element element = 0;
    std::uint32_t shard = 0;
    bool valid = false;
  };

  std::size_t set_mask_;       // (num_sets - 1); each set holds 2 ways
  std::vector<Entry> ways_;    // 2 * num_sets, set i at [2i, 2i+1]
  std::vector<std::uint8_t> mru_;  // per set: which way was used last
  std::uint64_t hits_ = 0;
  std::uint64_t lookups_ = 0;
};

}  // namespace dds::core
