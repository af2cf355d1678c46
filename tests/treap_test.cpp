// Tests for the treap and the dominance set, including randomized
// equivalence against reference implementations.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "hash/hash_function.h"
#include "treap/dominance_set.h"
#include "treap/naive_dominance_set.h"
#include "treap/treap.h"
#include "util/rng.h"
#include "util/stats.h"

namespace dds::treap {
namespace {

// --------------------------------------------------------------- treap --

TEST(Treap, InsertFindEraseBasics) {
  Treap<int, std::string> t;
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(t.insert(5, "five"));
  EXPECT_TRUE(t.insert(3, "three"));
  EXPECT_TRUE(t.insert(9, "nine"));
  EXPECT_FALSE(t.insert(5, "again"));  // duplicate key rejected
  EXPECT_EQ(t.size(), 3u);
  ASSERT_NE(t.find(3), nullptr);
  EXPECT_EQ(*t.find(3), "three");
  EXPECT_EQ(t.find(4), nullptr);
  EXPECT_TRUE(t.contains(9));
  EXPECT_TRUE(t.erase(3));
  EXPECT_FALSE(t.erase(3));
  EXPECT_EQ(t.size(), 2u);
  EXPECT_TRUE(t.check_invariants());
}

TEST(Treap, FrontBackAndLowerBound) {
  Treap<int, int> t;
  for (int k : {50, 20, 80, 10, 60}) t.insert(k, k * 2);
  EXPECT_EQ(t.front()->first, 10);
  EXPECT_EQ(t.back()->first, 80);
  EXPECT_EQ(t.lower_bound_key(55).value(), 60);
  EXPECT_EQ(t.lower_bound_key(60).value(), 60);
  EXPECT_EQ(t.lower_bound_key(81), std::nullopt);
  EXPECT_EQ(t.lower_bound_key(-5).value(), 10);
}

TEST(Treap, InOrderTraversalIsSorted) {
  Treap<int, int> t;
  util::Xoshiro256StarStar rng(1);
  for (int i = 0; i < 200; ++i) {
    t.insert(static_cast<int>(rng.next_below(10000)), i);
  }
  std::vector<int> keys;
  t.for_each([&keys](int k, int) { keys.push_back(k); });
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_TRUE(t.check_invariants());
}

TEST(Treap, RemovePrefixWhile) {
  Treap<int, int> t;
  for (int k = 1; k <= 10; ++k) t.insert(k, k);
  std::vector<int> removed;
  t.remove_prefix_while([](int k, int) { return k <= 4; },
                        [&removed](int k, int) { removed.push_back(k); });
  EXPECT_EQ(removed, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.front()->first, 5);
  EXPECT_TRUE(t.check_invariants());
}

TEST(Treap, RemoveSuffixWhile) {
  Treap<int, int> t;
  for (int k = 1; k <= 10; ++k) t.insert(k, k);
  std::vector<int> removed;
  t.remove_suffix_while([](int k, int) { return k >= 8; },
                        [&removed](int k, int) { removed.push_back(k); });
  EXPECT_EQ(removed, (std::vector<int>{8, 9, 10}));
  EXPECT_EQ(t.back()->first, 7);
  EXPECT_TRUE(t.check_invariants());
}

TEST(Treap, RemovePrefixOnEmptyAndNoMatch) {
  Treap<int, int> t;
  int calls = 0;
  t.remove_prefix_while([](int, int) { return true; },
                        [&calls](int, int) { ++calls; });
  EXPECT_EQ(calls, 0);
  t.insert(5, 5);
  t.remove_prefix_while([](int k, int) { return k < 0; },
                        [&calls](int, int) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(t.size(), 1u);
}

TEST(Treap, SplitOffLowerAndAbsorb) {
  Treap<int, int> t;
  for (int k = 1; k <= 20; ++k) t.insert(k, k);
  Treap<int, int> low = t.split_off_lower(11);
  EXPECT_EQ(low.size(), 10u);
  EXPECT_EQ(t.size(), 10u);
  EXPECT_EQ(low.back()->first, 10);
  EXPECT_EQ(t.front()->first, 11);
  EXPECT_TRUE(low.check_invariants());
  EXPECT_TRUE(t.check_invariants());
  t.absorb_lower(std::move(low));
  EXPECT_EQ(t.size(), 20u);
  EXPECT_EQ(t.front()->first, 1);
  EXPECT_TRUE(t.check_invariants());
}

TEST(Treap, FuzzAgainstStdMap) {
  Treap<std::uint32_t, std::uint32_t> t;
  std::map<std::uint32_t, std::uint32_t> ref;
  util::Xoshiro256StarStar rng(99);
  for (int step = 0; step < 5000; ++step) {
    const auto key = static_cast<std::uint32_t>(rng.next_below(300));
    switch (rng.next_below(4)) {
      case 0:
      case 1: {
        const bool inserted = t.insert(key, key + 1);
        const bool ref_inserted = ref.emplace(key, key + 1).second;
        ASSERT_EQ(inserted, ref_inserted);
        break;
      }
      case 2: {
        ASSERT_EQ(t.erase(key), ref.erase(key) > 0);
        break;
      }
      case 3: {
        ASSERT_EQ(t.contains(key), ref.contains(key));
        auto lb = ref.lower_bound(key);
        auto tlb = t.lower_bound_key(key);
        if (lb == ref.end()) {
          ASSERT_EQ(tlb, std::nullopt);
        } else {
          ASSERT_EQ(tlb.value(), lb->first);
        }
        break;
      }
    }
    ASSERT_EQ(t.size(), ref.size());
  }
  EXPECT_TRUE(t.check_invariants());
  if (!ref.empty()) {
    EXPECT_EQ(t.front()->first, ref.begin()->first);
    EXPECT_EQ(t.back()->first, std::prev(ref.end())->first);
  }
}

TEST(Treap, FrontBackEmptyReturnNullopt) {
  Treap<int, int> t;
  EXPECT_EQ(t.front(), std::nullopt);
  EXPECT_EQ(t.back(), std::nullopt);
  t.insert(7, 70);
  ASSERT_TRUE(t.front().has_value());
  EXPECT_EQ(t.front()->second, 70);
  t.erase(7);
  EXPECT_EQ(t.front(), std::nullopt);
  EXPECT_EQ(t.back(), std::nullopt);
}

// Differential fuzz with the full operation surface — point ops plus the
// bulk ops (remove_prefix_while / remove_suffix_while / split_off_lower
// + absorb_lower / remove_suffix_of_lower_while) — against std::map,
// with pool/structure invariants checked throughout.
TEST(Treap, FullOpFuzzAgainstStdMap) {
  Treap<std::uint32_t, std::uint32_t> t(7);
  std::map<std::uint32_t, std::uint32_t> ref;
  util::Xoshiro256StarStar rng(2024);
  for (int step = 0; step < 4000; ++step) {
    const auto key = static_cast<std::uint32_t>(rng.next_below(500));
    switch (rng.next_below(8)) {
      case 0:
      case 1: {
        ASSERT_EQ(t.insert(key, key ^ 0xABCD),
                  ref.emplace(key, key ^ 0xABCD).second);
        break;
      }
      case 2: {
        ASSERT_EQ(t.erase(key), ref.erase(key) > 0);
        break;
      }
      case 3: {  // remove_prefix_while: drop all keys < key
        std::vector<std::uint32_t> removed;
        t.remove_prefix_while(
            [key](std::uint32_t k, std::uint32_t) { return k < key; },
            [&removed](std::uint32_t k, std::uint32_t) {
              removed.push_back(k);
            });
        std::vector<std::uint32_t> ref_removed;
        for (auto it = ref.begin(); it != ref.end() && it->first < key;) {
          ref_removed.push_back(it->first);
          it = ref.erase(it);
        }
        ASSERT_EQ(removed, ref_removed);
        break;
      }
      case 4: {  // remove_suffix_while: drop all keys >= key
        std::vector<std::uint32_t> removed;
        t.remove_suffix_while(
            [key](std::uint32_t k, std::uint32_t) { return k >= key; },
            [&removed](std::uint32_t k, std::uint32_t) {
              removed.push_back(k);
            });
        std::vector<std::uint32_t> ref_removed;
        for (auto it = ref.lower_bound(key); it != ref.end();) {
          ref_removed.push_back(it->first);
          it = ref.erase(it);
        }
        ASSERT_EQ(removed, ref_removed);
        break;
      }
      case 5: {  // split_off_lower + absorb_lower round trip
        Treap<std::uint32_t, std::uint32_t> low = t.split_off_lower(key);
        const std::size_t expected_low = static_cast<std::size_t>(
            std::distance(ref.begin(), ref.lower_bound(key)));
        ASSERT_EQ(low.size(), expected_low);
        ASSERT_EQ(t.size(), ref.size() - expected_low);
        ASSERT_TRUE(low.check_invariants());
        ASSERT_TRUE(t.check_invariants());
        t.absorb_lower(std::move(low));
        break;
      }
      case 6: {  // fused prune: below `key`, drop the value-tagged suffix
        const auto cut = static_cast<std::uint32_t>(rng.next_below(500));
        std::vector<std::uint32_t> removed;
        t.remove_suffix_of_lower_while(
            key, [cut](std::uint32_t k, std::uint32_t) { return k >= cut; },
            [&removed](std::uint32_t k, std::uint32_t) {
              removed.push_back(k);
            });
        std::vector<std::uint32_t> ref_removed;
        for (auto it = ref.lower_bound(cut);
             it != ref.end() && it->first < key;) {
          ref_removed.push_back(it->first);
          it = ref.erase(it);
        }
        ASSERT_EQ(removed, ref_removed);
        break;
      }
      case 7: {
        ASSERT_EQ(t.contains(key), ref.contains(key));
        const auto lb = ref.lower_bound(key);
        const auto tlb = t.lower_bound_key(key);
        if (lb == ref.end()) {
          ASSERT_EQ(tlb, std::nullopt);
        } else {
          ASSERT_EQ(tlb.value(), lb->first);
        }
        break;
      }
    }
    ASSERT_EQ(t.size(), ref.size()) << "step " << step;
    if (step % 64 == 0) {
      ASSERT_TRUE(t.check_invariants()) << "step " << step;
    }
    if (ref.empty()) {
      ASSERT_EQ(t.front(), std::nullopt);
    } else {
      ASSERT_EQ(t.front()->first, ref.begin()->first);
      ASSERT_EQ(t.back()->first, std::prev(ref.end())->first);
    }
  }
  ASSERT_TRUE(t.check_invariants());
}

// The structural operations are iterative; a million sequential inserts
// followed by full-tree bulk removal must not touch the call stack.
TEST(Treap, MillionSequentialInsertsNoStackOverflow) {
  Treap<std::uint32_t, char> t(99);
  constexpr std::uint32_t kN = 1'000'000;
  t.reserve(kN);
  for (std::uint32_t i = 0; i < kN; ++i) t.insert(i, 0);
  ASSERT_EQ(t.size(), kN);
  EXPECT_EQ(t.front()->first, 0u);
  EXPECT_EQ(t.back()->first, kN - 1);
  EXPECT_LT(t.max_depth(), 200u);
  // Erase a slice point-wise, then drain the rest in one bulk op.
  for (std::uint32_t i = 0; i < 1000; ++i) t.erase(i * 997);
  std::size_t drained = 0;
  std::uint32_t prev = 0;
  bool ordered = true;
  t.remove_prefix_while([](std::uint32_t, char) { return true; },
                        [&](std::uint32_t k, char) {
                          ordered = ordered && (drained == 0 || k > prev);
                          prev = k;
                          ++drained;
                        });
  EXPECT_TRUE(ordered);
  EXPECT_EQ(drained, kN - 1000);
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(t.check_invariants());
}

// Steady-state churn must recycle freelist slots: after warmup the pool
// stops growing, i.e. zero allocations per element on the hot path.
TEST(Treap, SteadyStateChurnDoesNotGrowPool) {
  Treap<std::uint64_t, std::uint64_t> t(5);
  for (std::uint64_t i = 0; i < 1024; ++i) t.insert(i * 2, i);
  // Prime the freelist with one churn cycle (the very first transient
  // insert has no freed slot to recycle), then the pool must not move.
  t.insert(1, 1);
  t.erase(1);
  const std::size_t slots = t.pool_slots();
  util::Xoshiro256StarStar rng(6);
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t key = rng.next_below(2048) | 1;  // odd: not resident
    t.insert(key, key);
    t.erase(key);
  }
  EXPECT_EQ(t.pool_slots(), slots);
  EXPECT_EQ(t.size(), 1024u);
  EXPECT_TRUE(t.check_invariants());
}

TEST(Treap, DepthStaysLogarithmicOnSortedInsert) {
  // Degenerate insertion order; the random priorities must keep the
  // expected depth ~ 3 log2(n). Allow generous slack.
  Treap<int, int> t(/*seed=*/424242);
  constexpr int kN = 20000;
  for (int k = 0; k < kN; ++k) t.insert(k, k);
  EXPECT_LT(t.max_depth(), 120u);  // log2(20000) ~ 14.3
  EXPECT_TRUE(t.check_invariants());
}

// -------------------------------------------------------- DominanceSet --

TEST(DominanceSet, ObserveKeepsNonDominated) {
  DominanceSet d;
  d.observe(/*element=*/1, /*hash=*/90, /*expiry=*/10);
  d.observe(2, 50, 11);  // dominates element 1 (later expiry, smaller hash)
  EXPECT_EQ(d.size(), 1u);
  EXPECT_FALSE(d.contains(1));
  d.observe(3, 70, 12);  // larger hash: both kept
  EXPECT_EQ(d.size(), 2u);
  const auto min = d.min_hash();
  ASSERT_TRUE(min.has_value());
  EXPECT_EQ(min->element, 2u);
  EXPECT_TRUE(d.check_invariants());
}

TEST(DominanceSet, DuplicateRefreshMovesExpiry) {
  DominanceSet d;
  d.observe(1, 40, 10);
  d.observe(2, 60, 11);
  d.observe(1, 40, 15);  // element 1 re-arrives: refresh; now dominates 2
  EXPECT_EQ(d.size(), 1u);
  EXPECT_TRUE(d.contains(1));
  EXPECT_EQ(d.min_hash()->expiry, 15);
  EXPECT_TRUE(d.check_invariants());
}

TEST(DominanceSet, ExpireDropsOldTuples) {
  DominanceSet d;
  d.observe(1, 10, 5);
  d.observe(2, 20, 8);
  d.observe(3, 30, 12);
  d.expire(8);  // removes expiry <= 8
  EXPECT_EQ(d.size(), 1u);
  EXPECT_TRUE(d.contains(3));
  d.expire(100);
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.min_hash(), std::nullopt);
}

TEST(DominanceSet, InsertRejectsDominatedCandidate) {
  DominanceSet d;
  d.observe(1, 10, 20);           // small hash, late expiry
  d.insert(2, 50, 15);            // dominated by element 1
  EXPECT_FALSE(d.contains(2));
  d.insert(3, 5, 15);             // smaller hash, earlier expiry: kept
  EXPECT_TRUE(d.contains(3));
  EXPECT_EQ(d.min_hash()->element, 3u);
  EXPECT_TRUE(d.check_invariants());
}

TEST(DominanceSet, InsertPrunesWhatItDominates) {
  DominanceSet d;
  d.observe(1, 80, 10);
  d.observe(2, 90, 10);
  d.insert(3, 50, 12);  // dominates both
  EXPECT_EQ(d.size(), 1u);
  EXPECT_TRUE(d.contains(3));
  EXPECT_TRUE(d.check_invariants());
}

TEST(DominanceSet, InsertKeepsLaterExpiryForSameElement) {
  DominanceSet d;
  d.insert(1, 30, 10);
  d.insert(1, 30, 8);  // older info: ignored
  EXPECT_EQ(d.min_hash()->expiry, 10);
  d.insert(1, 30, 14);  // newer: replaces
  EXPECT_EQ(d.min_hash()->expiry, 14);
  EXPECT_EQ(d.size(), 1u);
}

TEST(DominanceSet, MinHashIsEarliestExpiring) {
  // Staircase property: ascending expiry implies ascending hash, so the
  // minimum hash element is also the next to expire.
  DominanceSet d;
  util::Xoshiro256StarStar rng(7);
  sim::Slot t = 0;
  for (int i = 0; i < 200; ++i) {
    d.observe(1000 + i, rng.next(), ++t + 50);
  }
  const auto snap = d.snapshot();
  ASSERT_FALSE(snap.empty());
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LE(snap[i - 1].expiry, snap[i].expiry);
    EXPECT_LE(snap[i - 1].hash, snap[i].hash);
  }
  EXPECT_EQ(d.min_hash()->hash, snap.front().hash);
}

struct DomFuzzParams {
  std::uint64_t seed;
  int domain;       // element universe size (controls duplicate rate)
  int window;       // expiry horizon
  int coord_every;  // inject coordinator-style inserts every N steps
};

class DominanceSetFuzz : public ::testing::TestWithParam<DomFuzzParams> {};

TEST_P(DominanceSetFuzz, MatchesNaiveReference) {
  const auto p = GetParam();
  DominanceSet fast(p.seed);
  NaiveDominanceSet ref;
  util::Xoshiro256StarStar rng(p.seed);
  hash::HashFunction h(hash::HashKind::kMurmur2, p.seed);

  for (sim::Slot t = 0; t < 600; ++t) {
    fast.expire(t);
    ref.expire(t);
    const int arrivals = static_cast<int>(rng.next_below(4));
    for (int a = 0; a < arrivals; ++a) {
      const std::uint64_t e = 1 + rng.next_below(p.domain);
      fast.observe(e, h(e), t + p.window);
      ref.observe(e, h(e), t + p.window);
    }
    if (p.coord_every > 0 && t % p.coord_every == 0 && t > 0) {
      // Simulated coordinator reply: an element with mid-range expiry.
      const std::uint64_t e = 1 + rng.next_below(p.domain);
      const sim::Slot expiry = t + 1 + static_cast<sim::Slot>(
                                           rng.next_below(p.window));
      fast.insert(e, h(e), expiry);
      ref.insert(e, h(e), expiry);
    }
    ASSERT_EQ(fast.size(), ref.size()) << "slot " << t;
    ASSERT_EQ(fast.snapshot(), ref.snapshot()) << "slot " << t;
    ASSERT_TRUE(fast.check_invariants()) << "slot " << t;
    const auto fm = fast.min_hash();
    const auto rm = ref.min_hash();
    ASSERT_EQ(fm.has_value(), rm.has_value());
    if (fm) {
      ASSERT_EQ(fm->element, rm->element);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DominanceSetFuzz,
    ::testing::Values(DomFuzzParams{1, 50, 20, 0},
                      DomFuzzParams{2, 10, 20, 0},   // heavy duplicates
                      DomFuzzParams{3, 500, 5, 0},   // tiny window
                      DomFuzzParams{4, 50, 50, 7},   // with coord inserts
                      DomFuzzParams{5, 5, 10, 3},    // duplicates + inserts
                      DomFuzzParams{6, 1000, 100, 13}),
    [](const ::testing::TestParamInfo<DomFuzzParams>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

TEST(DominanceSet, ExpectedSizeIsHarmonicLike) {
  // Lemma 10: E[|T_i|] <= H_M for M distinct in-window elements. With
  // an all-distinct stream and window >= stream length, E[|T|] ~ H_n.
  constexpr int kRuns = 40;
  constexpr int kN = 256;
  double total = 0;
  for (int run = 0; run < kRuns; ++run) {
    DominanceSet d(run);
    hash::HashFunction h(hash::HashKind::kMurmur2, 1000 + run);
    for (int i = 0; i < kN; ++i) {
      d.observe(run * 100000 + i, h(run * 100000 + i), 100000 + i);
    }
    total += static_cast<double>(d.size());
  }
  const double avg = total / kRuns;
  const double h_n = util::harmonic(kN);  // ~ 6.1
  EXPECT_LT(avg, 2.0 * h_n);
  EXPECT_GT(avg, 0.5 * h_n);
}

TEST(NaiveDominanceSet, BasicSemantics) {
  NaiveDominanceSet d;
  d.observe(1, 90, 10);
  d.observe(2, 50, 11);
  EXPECT_EQ(d.size(), 1u);
  EXPECT_TRUE(d.contains(2));
  EXPECT_FALSE(d.contains(1));
  d.expire(11);
  EXPECT_TRUE(d.empty());
}

}  // namespace
}  // namespace dds::treap
