// Tests for the infinite-window protocol (Algorithms 1 & 2), the
// bottom-s sample container, and with-replacement sampling: correctness
// against an oracle, message accounting, analytic bounds, uniformity,
// and determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/adversary.h"
#include "core/bottom_s_sample.h"
#include "core/system.h"
#include "stream/generators.h"
#include "stream/partitioner.h"
#include "sim/sources.h"
#include "util/stats.h"

namespace dds::core {
namespace {

using sim::ListSource;
using stream::Element;

/// Oracle: the bottom-s of hashes over the distinct elements fed.
std::vector<Element> oracle_bottom_s(const std::vector<Element>& elements,
                                     const hash::HashFunction& h,
                                     std::size_t s) {
  std::set<std::pair<std::uint64_t, Element>> by_hash;
  std::unordered_set<Element> seen;
  for (Element e : elements) {
    if (seen.insert(e).second) by_hash.emplace(h(e), e);
  }
  std::vector<Element> out;
  for (const auto& [hv, e] : by_hash) {
    if (out.size() == s) break;
    out.push_back(e);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Element> sorted_sample(const InfiniteWindowCoordinator& coord) {
  auto v = coord.sample().elements();
  std::sort(v.begin(), v.end());
  return v;
}

// ------------------------------------------------------ BottomSSample --

TEST(BottomSSample, FillsThenEvictsLargest) {
  BottomSSample p(2);
  EXPECT_EQ(p.offer(1, 100), BottomSSample::Outcome::kInserted);
  EXPECT_EQ(p.offer(2, 50), BottomSSample::Outcome::kInserted);
  EXPECT_TRUE(p.full());
  // Larger than current max: rejected.
  EXPECT_EQ(p.offer(3, 200), BottomSSample::Outcome::kRejected);
  // Smaller: replaces element 1 (hash 100).
  EXPECT_EQ(p.offer(4, 75), BottomSSample::Outcome::kReplaced);
  EXPECT_FALSE(p.contains(1));
  EXPECT_TRUE(p.contains(4));
  EXPECT_EQ(p.max_hash(), 75u);
}

TEST(BottomSSample, DuplicatesIgnored) {
  BottomSSample p(3);
  EXPECT_EQ(p.offer(7, 10), BottomSSample::Outcome::kInserted);
  EXPECT_EQ(p.offer(7, 10), BottomSSample::Outcome::kDuplicate);
  EXPECT_EQ(p.size(), 1u);
}

TEST(BottomSSample, ThresholdIsMaxOnlyWhenFull) {
  BottomSSample p(2);
  EXPECT_EQ(p.threshold(), hash::kHashMax);
  p.offer(1, 10);
  EXPECT_EQ(p.threshold(), hash::kHashMax);
  p.offer(2, 20);
  EXPECT_EQ(p.threshold(), 20u);
}

TEST(BottomSSample, EntriesHashAscending) {
  BottomSSample p(4);
  p.offer(1, 40);
  p.offer(2, 10);
  p.offer(3, 30);
  const auto entries = p.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].element, 2u);
  EXPECT_EQ(entries[2].element, 1u);
}

TEST(BottomSSample, ZeroCapacityRejected) {
  EXPECT_THROW(BottomSSample(0), std::invalid_argument);
}

// ------------------------------------------- protocol vs oracle sweeps --

struct ProtocolParams {
  std::uint32_t sites;
  std::size_t sample_size;
  stream::Distribution distribution;
  std::uint64_t domain;
  std::uint64_t n;
  std::uint64_t seed;
};

class InfiniteProtocol : public ::testing::TestWithParam<ProtocolParams> {};

TEST_P(InfiniteProtocol, SampleEqualsOracleBottomS) {
  const auto p = GetParam();
  SystemConfig config{p.sites, p.sample_size, hash::HashKind::kMurmur2,
                      p.seed};
  InfiniteSystem system(config);

  stream::UniformStream for_oracle(p.n, p.domain, p.seed + 1);
  const auto elements = stream::drain(for_oracle);
  stream::VectorStream replay(elements);
  auto source = stream::make_partitioner(p.distribution, replay, p.sites,
                                         p.seed + 2, 100.0);
  system.run(*source);

  EXPECT_EQ(sorted_sample(system.coordinator()),
            oracle_bottom_s(elements, system.hash_fn(), p.sample_size));
}

TEST_P(InfiniteProtocol, EveryReportGetsExactlyOneReply) {
  const auto p = GetParam();
  SystemConfig config{p.sites, p.sample_size, hash::HashKind::kMurmur2,
                      p.seed};
  InfiniteSystem system(config);
  stream::UniformStream input(p.n, p.domain, p.seed + 1);
  auto source = stream::make_partitioner(p.distribution, input, p.sites,
                                         p.seed + 2, 100.0);
  system.run(*source);

  const auto& c = system.bus().counters();
  EXPECT_EQ(c.site_to_coordinator, c.coordinator_to_site);
  EXPECT_EQ(c.total, c.site_to_coordinator + c.coordinator_to_site);
  for (std::uint32_t i = 0; i < p.sites; ++i) {
    EXPECT_EQ(system.bus().sent_by(i), system.bus().received_by(i));
  }
}

TEST_P(InfiniteProtocol, MessageCountWithinAnalyticBound) {
  const auto p = GetParam();
  SystemConfig config{p.sites, p.sample_size, hash::HashKind::kMurmur2,
                      p.seed};
  InfiniteSystem system(config);
  stream::UniformStream for_oracle(p.n, p.domain, p.seed + 1);
  const auto elements = stream::drain(for_oracle);
  std::unordered_set<Element> distinct(elements.begin(), elements.end());
  stream::VectorStream replay(elements);
  auto source = stream::make_partitioner(p.distribution, replay, p.sites,
                                         p.seed + 2, 100.0);
  system.run(*source);

  // Lemma 4 bounds the EXPECTATION; individual runs concentrate well, so
  // 2x slack is comfortable for these sizes.
  const double bound = util::infinite_window_upper_bound(
      p.sites, p.sample_size, distinct.size());
  EXPECT_LT(static_cast<double>(system.bus().counters().total), 2.0 * bound)
      << "d=" << distinct.size();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InfiniteProtocol,
    ::testing::Values(
        ProtocolParams{1, 1, stream::Distribution::kRandom, 500, 2000, 1},
        ProtocolParams{1, 10, stream::Distribution::kRandom, 500, 2000, 2},
        ProtocolParams{5, 10, stream::Distribution::kRandom, 2000, 5000, 3},
        ProtocolParams{5, 10, stream::Distribution::kFlooding, 2000, 5000, 4},
        ProtocolParams{5, 10, stream::Distribution::kRoundRobin, 2000, 5000,
                       5},
        ProtocolParams{8, 4, stream::Distribution::kDominate, 1000, 4000, 6},
        ProtocolParams{20, 50, stream::Distribution::kRandom, 3000, 6000, 7},
        ProtocolParams{100, 20, stream::Distribution::kRandom, 2000, 4000,
                       8}),
    [](const ::testing::TestParamInfo<ProtocolParams>& info) {
      return "k" + std::to_string(info.param.sites) + "_s" +
             std::to_string(info.param.sample_size) + "_seed" +
             std::to_string(info.param.seed);
    });

// ------------------------------------------------------- edge cases ----

TEST(InfiniteEdge, FewerDistinctThanSampleSize) {
  SystemConfig config{3, 50, hash::HashKind::kMurmur2, 11};
  InfiniteSystem system(config);
  std::vector<Element> elements{1, 2, 3, 2, 1, 4};
  stream::VectorStream replay(elements);
  stream::RoundRobinPartitioner source(replay, 3);
  system.run(source);
  // Sample is all 4 distinct elements; u never left kHashMax.
  EXPECT_EQ(system.coordinator().sample().size(), 4u);
  EXPECT_EQ(system.coordinator().threshold(), hash::kHashMax);
}

TEST(InfiniteEdge, EmptyStream) {
  SystemConfig config{2, 5, hash::HashKind::kMurmur2, 12};
  InfiniteSystem system(config);
  stream::VectorStream replay({});
  stream::RoundRobinPartitioner source(replay, 2);
  EXPECT_EQ(system.run(source), 0u);
  EXPECT_EQ(system.coordinator().sample().size(), 0u);
  EXPECT_EQ(system.bus().counters().total, 0u);
}

TEST(InfiniteEdge, RepeatCostIsOnlySampleMembers) {
  // Reproduction note (see infinite_site.h): under the faithful
  // pseudocode, a repeat occurrence triggers a report iff the element's
  // hash is strictly below the site's threshold view — i.e. (almost
  // always) iff it is a current sample member. Verify exactly that.
  SystemConfig config{4, 5, hash::HashKind::kMurmur2, 13};
  InfiniteSystem system(config);
  std::vector<sim::Arrival> phase1, phase2;
  for (int i = 0; i < 200; ++i) {
    phase1.push_back({i, static_cast<sim::NodeId>(i % 4),
                      static_cast<Element>(i + 1)});
  }
  for (int i = 0; i < 600; ++i) {
    phase2.push_back({200 + i, static_cast<sim::NodeId>((i * 7) % 4),
                      static_cast<Element>((i % 200) + 1)});
  }
  ListSource p1(phase1);
  system.run(p1);
  const auto after_phase1 = system.bus().counters().total;

  // Count phase-2 arrivals whose element is in the (now stable) sample.
  const auto sample = system.coordinator().sample().elements();
  std::unordered_set<Element> sampled(sample.begin(), sample.end());
  std::uint64_t sample_member_arrivals = 0;
  for (const auto& a : phase2) {
    sample_member_arrivals += sampled.contains(a.element) ? 1 : 0;
  }
  ListSource p2(phase2);
  system.run(p2);
  const auto phase2_cost = system.bus().counters().total - after_phase1;
  // Each such arrival costs exactly one report + one reply; everything
  // else is free (all distinct elements were already seen; u is final).
  // The s-th smallest (== u itself) does not re-trigger (strict <), and
  // stale site views can add a few extra, hence <= not ==.
  EXPECT_LE(phase2_cost, 2 * sample_member_arrivals + 2 * 4);
  EXPECT_GE(phase2_cost, 2 * (sample_member_arrivals / 2));
}

TEST(InfiniteEdge, SuppressDuplicatesMakesRepeatsFree) {
  SystemConfig config{4, 5, hash::HashKind::kMurmur2, 13};
  InfiniteSystem system(config, /*eager_threshold=*/false,
                        /*suppress_duplicates=*/true);
  std::vector<sim::Arrival> phase1, phase2;
  for (int i = 0; i < 200; ++i) {
    phase1.push_back({i, static_cast<sim::NodeId>(i % 4),
                      static_cast<Element>(i + 1)});
  }
  for (int i = 0; i < 600; ++i) {
    phase2.push_back({200 + i, static_cast<sim::NodeId>((i * 7) % 4),
                      static_cast<Element>((i % 200) + 1)});
  }
  ListSource p1(phase1);
  system.run(p1);
  const auto after_phase1 = system.bus().counters().total;
  ListSource p2(phase2);
  system.run(p2);
  const auto after_phase2 = system.bus().counters().total;
  // First repeat round may ship each (site, sample-member) pair once to
  // learn membership; after that, repeats are genuinely free.
  std::vector<sim::Arrival> phase3 = phase2;
  for (std::size_t i = 0; i < phase3.size(); ++i) {
    phase3[i].slot = 800 + static_cast<sim::Slot>(i);
  }
  ListSource p3(phase3);
  system.run(p3);
  EXPECT_EQ(system.bus().counters().total, after_phase2);
  EXPECT_GE(after_phase2, after_phase1);

  // And the sample itself is unaffected by suppression.
  InfiniteSystem faithful(config);
  ListSource q1(phase1);
  faithful.run(q1);
  EXPECT_EQ(sorted_sample(system.coordinator()),
            sorted_sample(faithful.coordinator()));
}

TEST(InfiniteEdge, SingleSiteMatchesCentralizedMessageLogic) {
  // With k = 1 every report is a genuine sample improvement "candidate":
  // report count equals the number of times an arriving element beats
  // the site's threshold view, which for k = 1 equals the number of
  // sample-changing elements.
  SystemConfig config{1, 5, hash::HashKind::kMurmur2, 14};
  InfiniteSystem system(config);
  stream::AllDistinctStream input(1000, 3);
  stream::RoundRobinPartitioner source(input, 1);
  system.run(source);
  // Expected number of bottom-5 prefix updates over 1000 distinct
  // elements: 5 + 5(H_1000 - H_5) ~ 26.1; each costs 2 messages.
  const double expected = 2.0 * util::infinite_window_upper_bound(1, 5, 1000) /
                          2.0;  // upper bound formula already includes the 2x
  EXPECT_LT(static_cast<double>(system.bus().counters().total),
            2.0 * expected);
  EXPECT_GT(system.bus().counters().total, 10u);
}

// ------------------------------------------------------ lazy vs eager --

TEST(Threshold, EagerNeverSendsMoreThanLazy) {
  for (std::uint64_t seed : {21ULL, 22ULL, 23ULL}) {
    SystemConfig config{5, 10, hash::HashKind::kMurmur2, seed};
    std::uint64_t lazy_total = 0, eager_total = 0;
    for (bool eager : {false, true}) {
      InfiniteSystem system(config, eager);
      stream::UniformStream input(3000, 1000, seed + 100);
      stream::RandomPartitioner source(input, 5, seed + 200);
      system.run(source);
      (eager ? eager_total : lazy_total) = system.bus().counters().total;
    }
    EXPECT_LE(eager_total, lazy_total) << "seed " << seed;
  }
}

// -------------------------------------------------------- uniformity ---

TEST(Uniformity, EveryElementEquallyLikelyInSample) {
  // d = 30 distinct elements, s = 5: inclusion probability 1/6 each.
  constexpr int kRuns = 400;
  constexpr std::uint64_t kDistinct = 30;
  constexpr std::size_t kS = 5;
  std::map<Element, std::uint64_t> inclusion;
  for (int run = 0; run < kRuns; ++run) {
    SystemConfig config{3, kS, hash::HashKind::kMurmur2,
                        static_cast<std::uint64_t>(run) * 7919 + 1};
    InfiniteSystem system(config);
    std::vector<Element> elements;
    for (std::uint64_t e = 1; e <= kDistinct; ++e) elements.push_back(e);
    stream::VectorStream replay(elements);
    stream::RoundRobinPartitioner source(replay, 3);
    system.run(source);
    for (Element e : system.coordinator().sample().elements()) {
      ++inclusion[e];
    }
  }
  std::vector<std::uint64_t> counts;
  for (std::uint64_t e = 1; e <= kDistinct; ++e) counts.push_back(inclusion[e]);
  EXPECT_LT(util::chi_square_uniform(counts),
            util::chi_square_critical(kDistinct - 1, 0.001));
}

TEST(Uniformity, SampleIndependentOfFrequency) {
  // A distinct sample must not favour heavy hitters: element 1 appears
  // 100x more often than the rest, but its inclusion rate must stay s/d.
  constexpr int kRuns = 500;
  constexpr std::uint64_t kDistinct = 20;
  constexpr std::size_t kS = 4;
  std::uint64_t heavy_in_sample = 0;
  for (int run = 0; run < kRuns; ++run) {
    SystemConfig config{2, kS, hash::HashKind::kMurmur2,
                        static_cast<std::uint64_t>(run) * 104729 + 3};
    InfiniteSystem system(config);
    std::vector<Element> elements;
    for (int rep = 0; rep < 100; ++rep) elements.push_back(1);
    for (std::uint64_t e = 2; e <= kDistinct; ++e) elements.push_back(e);
    stream::VectorStream replay(elements);
    stream::RandomPartitioner source(replay, 2, run + 17);
    system.run(source);
    const auto sample = system.coordinator().sample().elements();
    heavy_in_sample +=
        std::count(sample.begin(), sample.end(), Element{1}) > 0 ? 1 : 0;
  }
  const double rate = heavy_in_sample / static_cast<double>(kRuns);
  const double expected = static_cast<double>(kS) / kDistinct;  // 0.2
  EXPECT_NEAR(rate, expected, 0.05);
}

// ------------------------------------------------------- determinism ---

TEST(Determinism, IdenticalSeedIdenticalMessageTrace) {
  auto trace_of = [](std::uint64_t seed) {
    SystemConfig config{5, 10, hash::HashKind::kMurmur2, seed};
    InfiniteSystem system(config);
    std::vector<std::tuple<sim::NodeId, sim::NodeId, std::uint64_t>> trace;
    system.bus().set_tap([&trace](const sim::Message& m) {
      trace.emplace_back(m.from, m.to, m.b);
    });
    stream::UniformStream input(2000, 500, seed + 5);
    stream::RandomPartitioner source(input, 5, seed + 6);
    system.run(source);
    return trace;
  };
  const auto t1 = trace_of(42);
  const auto t2 = trace_of(42);
  const auto t3 = trace_of(43);
  EXPECT_EQ(t1, t2);
  EXPECT_NE(t1, t3);
  EXPECT_FALSE(t1.empty());
}

// -------------------------------------------------- with replacement ---

TEST(WithReplacement, EachCopyHoldsItsFamilyMinimum) {
  SystemConfig config{4, 8, hash::HashKind::kMurmur2, 31};
  WithReplacementSystem system(config);
  stream::UniformStream for_oracle(3000, 400, 99);
  const auto elements = stream::drain(for_oracle);
  stream::VectorStream replay(elements);
  stream::RandomPartitioner source(replay, 4, 98);
  system.run(source);

  std::unordered_set<Element> distinct(elements.begin(), elements.end());
  const auto sample = system.coordinator().sample();
  ASSERT_EQ(sample.size(), 8u);
  for (std::size_t j = 0; j < 8; ++j) {
    const auto hj = system.family().at(j);
    Element argmin = 0;
    std::uint64_t best = hash::kHashMax;
    for (Element e : distinct) {
      if (hj(e) < best) {
        best = hj(e);
        argmin = e;
      }
    }
    EXPECT_EQ(sample[j], argmin) << "copy " << j;
  }
}

TEST(WithReplacement, CopiesAreIndependentSamples) {
  // With 60 distinct elements and 16 copies, expected distinct elements
  // in the with-replacement sample is 16 * (1 - (1-1/16)^...) — loosely,
  // repeats must occur sometimes across many runs, and copies must not
  // all agree.
  int all_same_runs = 0;
  int any_repeat_runs = 0;
  constexpr int kRuns = 50;
  for (int run = 0; run < kRuns; ++run) {
    SystemConfig config{2, 16, hash::HashKind::kMurmur2,
                        static_cast<std::uint64_t>(run) + 701};
    WithReplacementSystem system(config);
    std::vector<Element> elements;
    for (Element e = 1; e <= 60; ++e) elements.push_back(e);
    stream::VectorStream replay(elements);
    stream::RoundRobinPartitioner source(replay, 2);
    system.run(source);
    const auto sample = system.coordinator().sample();
    std::unordered_set<Element> uniq(sample.begin(), sample.end());
    if (uniq.size() == 1) ++all_same_runs;
    if (uniq.size() < sample.size()) ++any_repeat_runs;
  }
  EXPECT_EQ(all_same_runs, 0);
  // P[some collision among 16 draws from 60] ~ 1 - prod (1 - i/60) ~ 0.88.
  EXPECT_GT(any_repeat_runs, kRuns / 3);
}

TEST(WithReplacement, MessageCostScalesWithCopies) {
  auto total_for = [](std::size_t s) {
    SystemConfig config{3, s, hash::HashKind::kMurmur2, 55};
    WithReplacementSystem system(config);
    stream::AllDistinctStream input(2000, 5);
    stream::RandomPartitioner source(input, 3, 66);
    system.run(source);
    return system.bus().counters().total;
  };
  const auto t2 = total_for(2);
  const auto t8 = total_for(8);
  // Cost ~ linear in s: ratio near 4, certainly > 2.
  EXPECT_GT(static_cast<double>(t8), 2.0 * static_cast<double>(t2));
}

// ---------------------------------------------------------- adversary --

TEST(Adversary, CostSitsBetweenLowerAndUpperBounds) {
  constexpr std::uint32_t kSites = 5;
  constexpr std::size_t kS = 5;
  constexpr std::uint64_t kD = 500;
  util::RunningStat totals;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SystemConfig config{kSites, kS, hash::HashKind::kMurmur2, seed};
    InfiniteSystem system(config);
    AdversarialInput input(kD, kSites, seed + 1000);
    system.run(input);
    totals.add(static_cast<double>(system.bus().counters().total));
  }
  const double lb = util::infinite_window_lower_bound(kSites, kS, kD);
  const double ub = util::infinite_window_upper_bound(kSites, kS, kD);
  EXPECT_GT(totals.mean(), 0.8 * lb);
  EXPECT_LT(totals.mean(), 1.5 * ub);
  // The paper's headline: optimal to within a factor of four.
  EXPECT_LT(totals.mean() / lb, 4.5);
}

}  // namespace
}  // namespace dds::core
