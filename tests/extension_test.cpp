// Tests for the extension modules: the bottom-s sliding-window sampler
// (SDominanceSet + WindowedBottomSSampler + the full-sync distributed
// deployment), HyperLogLog, KMV set operations, churn/file workloads,
// and crash recovery of the infinite-window protocol.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "baseline/baseline_system.h"
#include "core/system.h"
#include "core/windowed_bottom_s.h"
#include "query/hyperloglog.h"
#include "sim/bus.h"
#include "sim/sources.h"
#include "query/set_operations.h"
#include "stream/churn.h"
#include "stream/file_stream.h"
#include "stream/generators.h"
#include "stream/partitioner.h"
#include "treap/s_dominance_set.h"
#include "util/stats.h"

namespace dds {
namespace {

using sim::ListSource;

using stream::Element;

// ------------------------------------------------------ SDominanceSet --

/// O(n^2)-checked reference: keeps every tuple, prunes by definition.
class NaiveSDominance {
 public:
  explicit NaiveSDominance(std::size_t s) : s_(s) {}

  void observe(Element e, std::uint64_t h, sim::Slot expiry) {
    insert(e, h, expiry);
  }
  void insert(Element e, std::uint64_t h, sim::Slot expiry) {
    auto it = std::find_if(items_.begin(), items_.end(),
                           [&](const auto& c) { return c.element == e; });
    if (it != items_.end()) {
      if (it->expiry >= expiry) return;
      items_.erase(it);
    }
    items_.push_back({e, h, expiry});
    prune();
  }
  void expire(sim::Slot now) {
    std::erase_if(items_, [now](const auto& c) { return c.expiry <= now; });
  }
  std::vector<treap::Candidate> bottom_s() const {
    auto out = items_;
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.hash < b.hash; });
    if (out.size() > s_) out.resize(s_);
    return out;
  }
  /// The `count` smallest (hash, element) tuples with expiry above
  /// `min_expiry` — the flat set's bottom-s order, ties included.
  std::vector<treap::Candidate> bottom_valid_after(sim::Slot min_expiry,
                                                   std::size_t count) const {
    std::vector<treap::Candidate> out;
    for (const auto& c : items_) {
      if (c.expiry > min_expiry) out.push_back(c);
    }
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return std::pair(a.hash, a.element) < std::pair(b.hash, b.element);
    });
    if (out.size() > count) out.resize(count);
    return out;
  }
  /// All tuples in (expiry, hash, element) order, as snapshot() lists.
  std::vector<treap::Candidate> snapshot() const {
    auto out = items_;
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return treap::sample_key_less(a, b);
    });
    return out;
  }
  void clear() { items_.clear(); }
  bool contains(Element e) const {
    return std::any_of(items_.begin(), items_.end(),
                       [e](const auto& c) { return c.element == e; });
  }
  std::size_t size() const { return items_.size(); }

 private:
  void prune() {
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t i = 0; i < items_.size(); ++i) {
        std::size_t dom = 0;
        for (const auto& c : items_) {
          if (c.expiry > items_[i].expiry && c.hash < items_[i].hash) ++dom;
        }
        if (dom >= s_) {
          items_.erase(items_.begin() + static_cast<std::ptrdiff_t>(i));
          changed = true;
          break;
        }
      }
    }
  }
  std::size_t s_;
  std::vector<treap::Candidate> items_;
};

TEST(SDominanceSet, DegeneratesToDominanceSetAtSOne) {
  treap::SDominanceSet s1(1);
  treap::DominanceSet ref;
  hash::HashFunction h(hash::HashKind::kMurmur2, 5);
  util::Xoshiro256StarStar rng(6);
  for (sim::Slot t = 0; t < 400; ++t) {
    s1.expire(t);
    ref.expire(t);
    for (int a = 0; a < 2; ++a) {
      const Element e = 1 + rng.next_below(40);
      s1.observe(e, h(e), t + 25);
      ref.observe(e, h(e), t + 25);
    }
    ASSERT_EQ(s1.snapshot(), ref.snapshot()) << "slot " << t;
  }
}

struct SDomParams {
  std::size_t s;
  std::uint64_t domain;
  sim::Slot window;
  std::uint64_t seed;
  int coord_every;
};

class SDominanceFuzz : public ::testing::TestWithParam<SDomParams> {};

TEST_P(SDominanceFuzz, MatchesNaiveReference) {
  const auto p = GetParam();
  treap::SDominanceSet fast(p.s);
  NaiveSDominance ref(p.s);
  hash::HashFunction h(hash::HashKind::kMurmur2, p.seed);
  util::Xoshiro256StarStar rng(p.seed + 1);
  for (sim::Slot t = 0; t < 500; ++t) {
    fast.expire(t);
    ref.expire(t);
    const auto arrivals = rng.next_below(4);
    for (std::uint64_t a = 0; a < arrivals; ++a) {
      const Element e = 1 + rng.next_below(p.domain);
      fast.observe(e, h(e), t + p.window);
      ref.observe(e, h(e), t + p.window);
    }
    if (p.coord_every > 0 && t % p.coord_every == 0 && t > 0) {
      const Element e = 1 + rng.next_below(p.domain);
      const auto expiry =
          t + 1 + static_cast<sim::Slot>(rng.next_below(p.window));
      fast.insert(e, h(e), expiry);
      ref.insert(e, h(e), expiry);
    }
    ASSERT_EQ(fast.size(), ref.size()) << "slot " << t;
    ASSERT_EQ(fast.bottom_s(), ref.bottom_s()) << "slot " << t;
    ASSERT_TRUE(fast.check_invariants()) << "slot " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SDominanceFuzz,
    ::testing::Values(SDomParams{1, 50, 20, 1, 0},
                      SDomParams{2, 50, 20, 2, 0},
                      SDomParams{4, 200, 40, 3, 0},
                      SDomParams{8, 30, 15, 4, 0},   // heavy duplicates
                      SDomParams{3, 100, 30, 5, 7},  // with inserts
                      SDomParams{5, 1000, 60, 6, 11}),
    [](const ::testing::TestParamInfo<SDomParams>& info) {
      return "s" + std::to_string(info.param.s) + "_seed" +
             std::to_string(info.param.seed);
    });

// Seeded differential test of the flat set's hot path: random
// interleavings of observe, arbitrary-expiry insert, observe_group,
// expire, clear and load_snapshot, checked after EVERY step against the
// naive reference. Every read goes through the bottom-s cache, so a
// stale cache after a refresh, an expiry or a victim prune shows up as
// a mismatch at the step that caused it. The tiny hash space of the
// last rows forces equal hashes across elements.
TEST(SDominanceSet, DifferentialAgainstNaiveAfterEveryStep) {
  struct Row {
    std::size_t s;
    std::uint64_t domain;
    std::uint64_t hash_space;  // 0: full 64-bit hashes
    std::uint64_t seed;
  };
  for (const Row row : {Row{1, 40, 0, 1}, Row{3, 25, 0, 2},
                        Row{4, 400, 0, 3}, Row{8, 60, 0, 4},
                        Row{16, 200, 0, 5}, Row{3, 30, 16, 6},
                        Row{5, 50, 8, 7}}) {
    constexpr sim::Slot kWindow = 24;
    treap::SDominanceSet set(row.s);
    NaiveSDominance ref(row.s);
    hash::HashFunction mix(hash::HashKind::kMurmur2, row.seed);
    const auto h = [&](Element e) {
      return row.hash_space == 0 ? mix(e) : mix(e) % row.hash_space;
    };
    util::Xoshiro256StarStar rng(row.seed * 7919);
    std::vector<treap::Candidate> got;
    std::vector<std::uint64_t> elems, hashes;
    sim::Slot t = 0;
    for (int step = 0; step < 3000; ++step) {
      const std::uint64_t op = rng.next_below(100);
      if (op < 40) {
        const Element e = 1 + rng.next_below(row.domain);
        set.observe(e, h(e), t + kWindow);
        ref.observe(e, h(e), t + kWindow);
      } else if (op < 55) {
        const Element e = 1 + rng.next_below(row.domain);
        const sim::Slot expiry =
            t + 1 + static_cast<sim::Slot>(rng.next_below(kWindow));
        set.insert(e, h(e), expiry);
        ref.insert(e, h(e), expiry);
      } else if (op < 70) {
        elems.clear();
        hashes.clear();
        for (std::uint64_t n = 1 + rng.next_below(6); n > 0; --n) {
          elems.push_back(1 + rng.next_below(row.domain));
          hashes.push_back(h(elems.back()));
        }
        set.observe_group(elems.data(), hashes.data(), elems.size(),
                          t + kWindow);
        for (std::size_t i = 0; i < elems.size(); ++i) {
          ref.observe(elems[i], hashes[i], t + kWindow);
        }
      } else if (op < 97) {
        t += static_cast<sim::Slot>(rng.next_below(3));
        set.expire(t);
        ref.expire(t);
      } else if (op < 98) {
        set.clear();
        ref.clear();
      } else {
        // Restore from a shuffled image of itself.
        auto image = set.snapshot();
        for (std::size_t i = image.size(); i > 1; --i) {
          std::swap(image[i - 1], image[rng.next_below(i)]);
        }
        set.load_snapshot(image);
      }

      ASSERT_EQ(set.size(), ref.size()) << "step " << step;
      ASSERT_EQ(set.snapshot(), ref.snapshot()) << "step " << step;
      const auto want = ref.bottom_valid_after(t, row.s);
      set.bottom_s_into(got);
      ASSERT_EQ(got, want) << "step " << step;
      ASSERT_EQ(set.min_hash(), want.empty()
                                    ? std::nullopt
                                    : std::optional<treap::Candidate>(
                                          want.front()))
          << "step " << step;
      for (const sim::Slot narrow : {sim::Slot{1}, kWindow / 4, kWindow / 2,
                                     kWindow - 1, kWindow}) {
        const sim::Slot min_expiry = t + (kWindow - narrow);
        for (const std::size_t count : {row.s, row.s / 2 + 1}) {
          set.bottom_s_valid_after(min_expiry, count, got);
          ASSERT_EQ(got, ref.bottom_valid_after(min_expiry, count))
              << "step " << step << " width " << narrow << " count "
              << count;
        }
      }
      for (int probe = 0; probe < 3; ++probe) {
        const Element e = 1 + rng.next_below(row.domain);
        ASSERT_EQ(set.contains(e), ref.contains(e)) << "step " << step;
      }
      if (step % 50 == 0) {
        ASSERT_TRUE(set.check_invariants()) << "step " << step;
      }
    }
  }
}

TEST(SDominanceSet, SizeScalesWithS) {
  // E[|T|] ~ s(1 + ln(M/s)): doubling s should roughly double the size.
  auto steady_size = [](std::size_t s) {
    treap::SDominanceSet set(s);
    hash::HashFunction h(hash::HashKind::kMurmur2, 77);
    double total = 0;
    int samples = 0;
    for (sim::Slot t = 0; t < 4000; ++t) {
      set.expire(t);
      set.observe(1000000 + static_cast<Element>(t), h(1000000 + t), t + 512);
      if (t > 1000) {
        total += static_cast<double>(set.size());
        ++samples;
      }
    }
    return total / samples;
  };
  const double m2 = steady_size(2);
  const double m8 = steady_size(8);
  EXPECT_GT(m8, 2.0 * m2);
  EXPECT_LT(m8, 8.0 * m2);
}

TEST(SDominanceSet, ZeroSampleSizeRejected) {
  EXPECT_THROW(treap::SDominanceSet(0), std::invalid_argument);
}

// --------------------------------------------- WindowedBottomSSampler --

TEST(WindowedBottomS, ExactAgainstBruteForce) {
  constexpr std::size_t kS = 5;
  constexpr sim::Slot kW = 30;
  hash::HashFunction h(hash::HashKind::kMurmur2, 9);
  core::WindowedBottomSSampler sampler(kS, kW, h);
  std::unordered_map<Element, sim::Slot> last_arrival;
  util::Xoshiro256StarStar rng(10);

  for (sim::Slot t = 0; t < 600; ++t) {
    const auto arrivals = rng.next_below(3);
    for (std::uint64_t a = 0; a < arrivals; ++a) {
      const Element e = 1 + rng.next_below(60);
      sampler.observe(e, t);
      last_arrival[e] = t;
    }
    // Brute-force bottom-s of the window.
    std::vector<std::pair<std::uint64_t, Element>> in_window;
    for (const auto& [e, ta] : last_arrival) {
      if (ta + kW > t) in_window.emplace_back(h(e), e);
    }
    std::sort(in_window.begin(), in_window.end());
    if (in_window.size() > kS) in_window.resize(kS);

    const auto got = sampler.sample(t);
    ASSERT_EQ(got.size(), in_window.size()) << "slot " << t;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].element, in_window[i].second) << "slot " << t;
      EXPECT_EQ(got[i].hash, in_window[i].first);
    }
  }
}

TEST(WindowedBottomS, MemoryStaysNearTheory) {
  // All-distinct stream, window 256, s = 4: E[|T|] ~ s(1 + ln(M/s)).
  constexpr std::size_t kS = 4;
  constexpr sim::Slot kW = 256;
  core::WindowedBottomSSampler sampler(
      kS, kW, hash::HashFunction(hash::HashKind::kMurmur2, 3));
  util::RunningStat sizes;
  for (sim::Slot t = 0; t < 3000; ++t) {
    sampler.observe(static_cast<Element>(t) + 7'000'000, t);
    if (t > kW) sizes.add(static_cast<double>(sampler.state_size()));
  }
  const double theory =
      static_cast<double>(kS) *
      (1.0 + std::log(static_cast<double>(kW) / static_cast<double>(kS)));
  EXPECT_LT(sizes.mean(), 2.0 * theory);
  EXPECT_GT(sizes.mean(), 0.4 * theory);
}

// --------------------------------------- distributed bottom-s sliding --

struct BsParams {
  std::uint32_t sites;
  std::size_t s;
  sim::Slot window;
  std::uint64_t domain;
  std::uint64_t seed;
};

class BottomSSliding : public ::testing::TestWithParam<BsParams> {};

TEST_P(BottomSSliding, ExactAtEverySlot) {
  const auto p = GetParam();
  core::SlidingSystemConfig config;
  config.num_sites = p.sites;
  config.window = p.window;
  config.sample_size = p.s;
  config.seed = p.seed;
  baseline::BottomSSlidingSystem system(config);
  const auto& h = system.hash_fn();

  std::unordered_map<Element, sim::Slot> last_arrival;
  util::Xoshiro256StarStar rng(p.seed + 50);

  for (sim::Slot t = 0; t < 400; ++t) {
    std::vector<std::pair<sim::NodeId, Element>> xs;
    for (int i = 0; i < 4; ++i) {
      const Element e = 1 + rng.next_below(p.domain);
      xs.emplace_back(static_cast<sim::NodeId>(rng.next_below(p.sites)), e);
      last_arrival[e] = t;
    }
    sim::SlotSource src(t, xs);
    system.run(src);

    std::vector<std::pair<std::uint64_t, Element>> in_window;
    for (const auto& [e, ta] : last_arrival) {
      if (ta + p.window > t) in_window.emplace_back(h(e), e);
    }
    std::sort(in_window.begin(), in_window.end());
    if (in_window.size() > p.s) in_window.resize(p.s);

    const auto got = system.coordinator().sample(t);
    ASSERT_EQ(got.size(), in_window.size()) << "slot " << t;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].element, in_window[i].second)
          << "slot " << t << " pos " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BottomSSliding,
                         ::testing::Values(BsParams{1, 3, 20, 50, 1},
                                           BsParams{4, 1, 30, 100, 2},
                                           BsParams{5, 5, 25, 80, 3},
                                           BsParams{10, 8, 50, 400, 4},
                                           BsParams{3, 4, 10, 15, 5}),
    [](const ::testing::TestParamInfo<BsParams>& info) {
      return "k" + std::to_string(info.param.sites) + "_s" +
             std::to_string(info.param.s) + "_seed" +
             std::to_string(info.param.seed);
    });

// The site's shipped-memo is the previous sync's bottom-s: on a
// refresh-heavy stream every sync must ship exactly the tuples whose
// (element, expiry) the previous bottom-s did not hold, in bottom-s
// order — and ship the whole bottom-s after resync() and after
// restore_candidates().
TEST(BottomSSliding, SiteShipsExactlyTheBottomSDelta) {
  constexpr std::size_t kS = 4;
  constexpr sim::Slot kW = 20;
  const hash::HashFunction h(hash::HashKind::kMurmur2, 3);
  sim::Bus bus(1);
  baseline::BottomSSlidingCoordinator coordinator(1, kS);
  baseline::BottomSSlidingSite site(0, 1, kS, kW, h);
  bus.attach(0, &site);
  bus.attach(1, &coordinator);
  std::vector<treap::Candidate> sent;
  bus.set_tap([&sent](const sim::Message& m) {
    sent.push_back({m.a, m.b, static_cast<sim::Slot>(m.c)});
  });

  core::WindowedBottomSSampler mirror(kS, kW, h);
  std::set<std::pair<Element, sim::Slot>> previous;
  std::vector<treap::Candidate> bottom;
  // The tuples the sync that just ran must have shipped; re-ships all
  // of them when `forget` (the memo was dropped).
  const auto expect_sync = [&](sim::Slot t, bool forget) {
    mirror.sample_into(t, bottom);
    std::vector<treap::Candidate> want;
    std::set<std::pair<Element, sim::Slot>> now;
    for (const auto& c : bottom) {
      if (forget || previous.count({c.element, c.expiry}) == 0) {
        want.push_back(c);
      }
      now.insert({c.element, c.expiry});
    }
    previous = std::move(now);
    EXPECT_EQ(sent, want) << "slot " << t;
    sent.clear();
  };

  util::Xoshiro256StarStar rng(4);
  std::size_t shipped = 0;
  for (sim::Slot t = 0; t < 400; ++t) {
    bus.set_now(t);
    site.on_slot_begin(t, bus);
    bus.drain();
    expect_sync(t, false);
    for (std::uint64_t n = rng.next_below(4); n > 0; --n) {
      const Element e = 1 + rng.next_below(12);  // heavy refreshes
      site.on_element(e, t, bus);
      bus.drain();
      mirror.observe(e, t);
      shipped += sent.size();
      expect_sync(t, false);
    }
    if (t % 97 == 50) {
      site.resync(bus);
      bus.drain();
      expect_sync(t, true);
    }
    if (t % 89 == 40) {
      site.restore_candidates(site.snapshot_candidates());
      site.on_slot_begin(t, bus);
      bus.drain();
      expect_sync(t, true);
    }
  }
  EXPECT_GT(shipped, 100u);  // the stream really refreshed the bottom-s
}

TEST(BottomSSliding, CostsMoreThanParallelCopiesButIsExact) {
  // The parallel-copies scheme (with-replacement) and the full-sync
  // bottom-s scheme at equal s: full-sync pays more messages; this is
  // the trade the abl7 bench quantifies. Sanity-check the direction.
  core::SlidingSystemConfig config;
  config.num_sites = 5;
  config.window = 64;
  config.sample_size = 4;
  config.seed = 9;
  baseline::BottomSSlidingSystem exact(config);
  core::SlidingSystem copies(config);
  for (auto* which : {static_cast<int*>(nullptr)}) {
    (void)which;
  }
  {
    stream::ChurnStream input(20000, 0.5, 500, 11);
    stream::SlottedFeeder src(input, 5, 5, 12);
    exact.run(src);
  }
  {
    stream::ChurnStream input(20000, 0.5, 500, 11);
    stream::SlottedFeeder src(input, 5, 5, 12);
    copies.run(src);
  }
  EXPECT_GT(exact.bus().counters().total, 0u);
  EXPECT_GT(copies.bus().counters().total, 0u);
}

// --------------------------------------------------------- HyperLogLog --

TEST(HyperLogLog, EstimatesWithinStandardError) {
  for (std::uint64_t true_d : {1000ULL, 50'000ULL, 500'000ULL}) {
    query::HyperLogLog hll(12, hash::HashFunction(hash::HashKind::kMurmur2, 4));
    for (std::uint64_t e = 1; e <= true_d; ++e) hll.add(util::mix64(e));
    const double est = hll.estimate();
    const double rel =
        (est - static_cast<double>(true_d)) / static_cast<double>(true_d);
    EXPECT_LT(std::abs(rel), 4.0 * hll.relative_error()) << "d=" << true_d;
  }
}

TEST(HyperLogLog, DuplicatesDoNotInflate) {
  query::HyperLogLog hll(10, hash::HashFunction(hash::HashKind::kMurmur2, 5));
  for (int rep = 0; rep < 100; ++rep) {
    for (std::uint64_t e = 1; e <= 2000; ++e) hll.add(util::mix64(e));
  }
  EXPECT_NEAR(hll.estimate(), 2000.0, 2000.0 * 4.0 * hll.relative_error());
}

TEST(HyperLogLog, SmallRangeIsAccurate) {
  query::HyperLogLog hll(12, hash::HashFunction(hash::HashKind::kMurmur2, 6));
  for (std::uint64_t e = 1; e <= 10; ++e) hll.add(util::mix64(e));
  EXPECT_NEAR(hll.estimate(), 10.0, 1.5);
}

TEST(HyperLogLog, MergeEqualsUnion) {
  hash::HashFunction h(hash::HashKind::kMurmur2, 7);
  query::HyperLogLog a(11, h), b(11, h), u(11, h);
  for (std::uint64_t e = 1; e <= 30000; ++e) {
    const Element x = util::mix64(e);
    if (e % 2 == 0) a.add(x);
    if (e % 3 == 0) b.add(x);
    if (e % 2 == 0 || e % 3 == 0) u.add(x);
  }
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.estimate(), u.estimate());
}

TEST(HyperLogLog, InvalidArgumentsThrow) {
  hash::HashFunction h(hash::HashKind::kMurmur2, 8);
  EXPECT_THROW(query::HyperLogLog(3, h), std::invalid_argument);
  EXPECT_THROW(query::HyperLogLog(19, h), std::invalid_argument);
  query::HyperLogLog a(10, h), b(11, h);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

// ------------------------------------------------------ set operations --

core::BottomSSample sketch_of(const std::vector<Element>& elements,
                              const hash::HashFunction& h, std::size_t s) {
  core::BottomSSample out(s);
  for (Element e : elements) out.offer(e, h(e));
  return out;
}

TEST(SetOperations, RecoversOverlap) {
  // A = [1, 60k], B = [30k+1, 90k]: |U| = 90k, |I| = 30k, J = 1/3.
  hash::HashFunction h(hash::HashKind::kMurmur2, 21);
  std::vector<Element> a, b;
  for (std::uint64_t e = 1; e <= 60'000; ++e) a.push_back(util::mix64(e));
  for (std::uint64_t e = 30'001; e <= 90'000; ++e) b.push_back(util::mix64(e));
  const auto sa = sketch_of(a, h, 512);
  const auto sb = sketch_of(b, h, 512);
  const auto est = query::estimate_set_operations(sa, sb);
  EXPECT_NEAR(est.union_size, 90'000.0, 90'000.0 * 0.15);
  EXPECT_NEAR(est.jaccard, 1.0 / 3.0, 0.07);
  EXPECT_NEAR(est.intersection_size, 30'000.0, 30'000.0 * 0.3);
}

TEST(SetOperations, DisjointAndIdenticalExtremes) {
  hash::HashFunction h(hash::HashKind::kMurmur2, 22);
  std::vector<Element> a, b;
  for (std::uint64_t e = 1; e <= 20'000; ++e) a.push_back(util::mix64(e));
  for (std::uint64_t e = 100'001; e <= 120'000; ++e) b.push_back(util::mix64(e));
  const auto sa = sketch_of(a, h, 256);
  const auto sb = sketch_of(b, h, 256);
  EXPECT_NEAR(query::estimate_jaccard(sa, sb), 0.0, 0.02);
  EXPECT_DOUBLE_EQ(query::estimate_jaccard(sa, sa), 1.0);
  EXPECT_NEAR(query::estimate_union(sa, sb), 40'000.0, 40'000.0 * 0.2);
}

TEST(SetOperations, CapacityMismatchThrows) {
  core::BottomSSample a(8), b(16);
  EXPECT_THROW(query::estimate_set_operations(a, b), std::invalid_argument);
}

TEST(SetOperations, FromTwoDistributedCoordinators) {
  // Two independent deployments sharing a hash seed monitor overlapping
  // populations; their coordinator samples compose.
  core::SystemConfig config{4, 256, hash::HashKind::kMurmur2, 30};
  core::InfiniteSystem left(config), right(config);
  std::vector<Element> shared, only_left, only_right;
  for (std::uint64_t e = 1; e <= 10'000; ++e) shared.push_back(util::mix64(e));
  for (std::uint64_t e = 20'001; e <= 30'000; ++e) {
    only_left.push_back(util::mix64(e));
  }
  for (std::uint64_t e = 40'001; e <= 50'000; ++e) {
    only_right.push_back(util::mix64(e));
  }
  auto feed = [](core::InfiniteSystem& sys, std::vector<Element> elements) {
    stream::VectorStream replay(std::move(elements));
    stream::RoundRobinPartitioner src(replay, 4);
    sys.run(src);
  };
  auto concat = [](std::vector<Element> x, const std::vector<Element>& y) {
    x.insert(x.end(), y.begin(), y.end());
    return x;
  };
  feed(left, concat(shared, only_left));
  feed(right, concat(shared, only_right));
  const auto est = query::estimate_set_operations(
      left.coordinator().sample(), right.coordinator().sample());
  EXPECT_NEAR(est.union_size, 30'000.0, 30'000.0 * 0.2);
  EXPECT_NEAR(est.jaccard, 1.0 / 3.0, 0.08);
}

// ------------------------------------------------------ churn & files --

TEST(ChurnStream, FreshFractionControlsDistinctRate) {
  auto distinct_of = [](double fraction) {
    stream::ChurnStream s(30'000, fraction, 1000, 31);
    std::unordered_set<Element> d;
    while (auto e = s.next()) d.insert(*e);
    return d.size();
  };
  const auto low = distinct_of(0.05);
  const auto high = distinct_of(0.9);
  EXPECT_GT(high, 5 * low);
  EXPECT_NEAR(static_cast<double>(high), 0.9 * 30'000, 0.9 * 30'000 * 0.1);
}

TEST(ChurnStream, AllFreshIsAllDistinct) {
  stream::ChurnStream s(5000, 1.0, 10, 32);
  std::unordered_set<Element> d;
  while (auto e = s.next()) d.insert(*e);
  EXPECT_EQ(d.size(), 5000u);
}

TEST(ChurnStream, InvalidParamsThrow) {
  EXPECT_THROW(stream::ChurnStream(10, -0.1, 10, 1), std::invalid_argument);
  EXPECT_THROW(stream::ChurnStream(10, 1.1, 10, 1), std::invalid_argument);
  EXPECT_THROW(stream::ChurnStream(10, 0.5, 0, 1), std::invalid_argument);
}

TEST(FileStream, ReadsDecimalAndTokenLines) {
  const auto path =
      std::filesystem::temp_directory_path() / "dds_filestream_test.txt";
  {
    std::ofstream out(path);
    out << "12345\n";
    out << "10.0.0.1->10.0.0.2\n";
    out << "\n";             // blank: skipped
    out << "12345\r\n";      // CRLF tolerated
    out << "99999999999999999999999\n";  // overflows u64: hashed as token
  }
  stream::FileStream s(path);
  EXPECT_EQ(s.length(), 4u);
  EXPECT_EQ(s.numeric_lines(), 2u);
  EXPECT_EQ(s.token_lines(), 2u);
  const auto v = stream::drain(s);
  EXPECT_EQ(v[0], 12345u);
  EXPECT_EQ(v[0], v[2]);  // same decimal line -> same element
  std::filesystem::remove(path);
}

TEST(FileStream, MissingFileThrows) {
  EXPECT_THROW(stream::FileStream("/nonexistent/dds_nope.txt"),
               std::runtime_error);
}

// ---------------------------------------------------- crash recovery ---

TEST(CrashRecovery, SiteResetNeverCorruptsTheSample) {
  core::SystemConfig config{4, 8, hash::HashKind::kMurmur2, 41};
  core::InfiniteSystem system(config);
  std::vector<Element> all;
  util::Xoshiro256StarStar rng(42);
  sim::Slot slot = 0;

  for (int phase = 0; phase < 5; ++phase) {
    std::vector<sim::Arrival> arrivals;
    for (int i = 0; i < 500; ++i) {
      const Element e = util::mix64(1 + rng.next_below(3000));
      all.push_back(e);
      arrivals.push_back({slot++, static_cast<sim::NodeId>(rng.next_below(4)),
                          e});
    }
    ListSource src(arrivals);
    system.run(src);
    // Crash a rotating site between phases.
    system.site(static_cast<std::size_t>(phase) % 4).reset();
  }

  // Oracle: bottom-8 over everything fed, via the system's hash.
  std::set<std::pair<std::uint64_t, Element>> by_hash;
  std::unordered_set<Element> seen;
  for (Element e : all) {
    if (seen.insert(e).second) by_hash.emplace(system.hash_fn()(e), e);
  }
  std::vector<Element> expected;
  for (const auto& [hv, e] : by_hash) {
    if (expected.size() == 8) break;
    expected.push_back(e);
  }
  std::sort(expected.begin(), expected.end());
  auto got = system.coordinator().sample().elements();
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
}

TEST(CrashRecovery, ResetCostsExtraMessagesButBounded) {
  core::SystemConfig config{2, 4, hash::HashKind::kMurmur2, 43};
  core::InfiniteSystem stable(config), crashy(config);
  auto feed = [](core::InfiniteSystem& sys, std::uint64_t salt,
                 bool crash_between) {
    for (int phase = 0; phase < 4; ++phase) {
      stream::AllDistinctStream input(500, salt);  // same salt: same stream
      // Offset slots per phase to keep the runner monotone.
      class Shift final : public sim::ArrivalSource {
       public:
        Shift(sim::ArrivalSource& inner, sim::Slot offset)
            : inner_(inner), offset_(offset) {}
        std::optional<sim::Arrival> next() override {
          auto a = inner_.next();
          if (a) a->slot += offset_;
          return a;
        }

       private:
        sim::ArrivalSource& inner_;
        sim::Slot offset_;
      };
      stream::RoundRobinPartitioner part(input, 2);
      Shift src(part, phase * 1000);
      sys.run(src);
      if (crash_between) sys.site(0).reset();
    }
  };
  feed(stable, 7, false);
  feed(crashy, 7, true);
  const auto stable_msgs = stable.bus().counters().total;
  const auto crashy_msgs = crashy.bus().counters().total;
  EXPECT_GE(crashy_msgs, stable_msgs);
  // Each reset costs at most ~2 * s extra round trips before the site's
  // view re-converges (first few reports after the crash).
  EXPECT_LE(crashy_msgs, stable_msgs + 4 * (2 * 4 * 6));
  // And the samples agree regardless.
  EXPECT_EQ(stable.coordinator().sample().elements(),
            crashy.coordinator().sample().elements());
}

}  // namespace
}  // namespace dds
