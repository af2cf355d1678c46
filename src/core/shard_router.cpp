#include "core/shard_router.h"

#include <algorithm>
#include <stdexcept>

#include "util/rng.h"

namespace dds::core {

ShardRouter::ShardRouter(std::uint32_t num_shards, std::uint64_t seed,
                         std::uint32_t replicas)
    : num_shards_(num_shards),
      replicas_(replicas),
      salt_(util::derive_seed(seed, 0x52494E47ULL)) {  // "RING"
  if (num_shards == 0) {
    throw std::invalid_argument("ShardRouter: need at least one shard");
  }
  rebuild();
}

void ShardRouter::rebuild() {
  ring_.clear();
  if (num_shards_ == 1) return;  // trivial ring; shard_of short-circuits
  ring_.reserve(static_cast<std::size_t>(num_shards_) * replicas_);
  for (std::uint32_t shard = 0; shard < num_shards_; ++shard) {
    for (std::uint32_t r = 0; r < replicas_; ++r) {
      const std::uint64_t position = util::mix64(
          salt_ ^ util::derive_seed(shard, r));
      ring_.push_back(Point{position, shard});
    }
  }
  std::sort(ring_.begin(), ring_.end(),
            [](const Point& a, const Point& b) {
              return a.position < b.position ||
                     (a.position == b.position && a.shard < b.shard);
            });
}

void ShardRouter::add_shard() {
  ++num_shards_;
  rebuild();
}

void ShardRouter::remove_last_shard() {
  if (num_shards_ < 2) {
    throw std::logic_error("ShardRouter: cannot remove the only shard");
  }
  --num_shards_;
  rebuild();
}

std::uint32_t ShardRouter::shard_of(stream::Element e) const noexcept {
  if (num_shards_ == 1) return 0;
  const std::uint64_t point = util::mix64(e ^ salt_);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), point,
      [](const Point& p, std::uint64_t v) { return p.position < v; });
  if (it == ring_.end()) it = ring_.begin();  // wrap around the ring
  return it->shard;
}

ShardCache::ShardCache(std::size_t entries) {
  std::size_t sets = 1;
  while (sets * 2 < std::max<std::size_t>(entries, 2)) sets *= 2;
  set_mask_ = sets - 1;
  ways_.resize(2 * sets);
  mru_.resize(sets, 0);
}

std::uint32_t ShardCache::owner(const ShardRouter& router, stream::Element e) {
  ++lookups_;
  // Mix so clustered element keys spread over the sets; cheap relative
  // to the ring's mix64 + binary search.
  const std::size_t set = (e ^ (e >> 17) ^ (e >> 41)) & set_mask_;
  Entry* const way0 = &ways_[2 * set];
  for (std::size_t w = 0; w < 2; ++w) {
    if (way0[w].valid && way0[w].element == e) {
      ++hits_;
      mru_[set] = static_cast<std::uint8_t>(w);
      return way0[w].shard;
    }
  }
  const std::uint32_t shard = router.owner(e);
  const std::size_t victim = mru_[set] ^ 1;  // evict the LRU way
  way0[victim] = Entry{e, shard, true};
  mru_[set] = static_cast<std::uint8_t>(victim);
  return shard;
}

void ShardCache::clear() {
  for (Entry& e : ways_) e.valid = false;
}

double ShardRouter::disagreement(const ShardRouter& other,
                                 std::uint64_t probes) const {
  std::uint64_t moved = 0;
  util::SplitMix64 gen(salt_ ^ 0xD15A6EEULL);
  for (std::uint64_t i = 0; i < probes; ++i) {
    const stream::Element e = gen.next();
    if (shard_of(e) != other.shard_of(e)) ++moved;
  }
  return probes == 0 ? 0.0
                     : static_cast<double>(moved) / static_cast<double>(probes);
}

}  // namespace dds::core
