// Unit tests for the util substrate: PRNGs, statistics, tables, CLI.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/rng.h"

namespace dds::util {
namespace {

// ---------------------------------------------------------------- rng --

TEST(SplitMix64, KnownSequenceFromSeedZero) {
  // Reference values from the splitmix64 reference implementation
  // (Vigna), seed = 0.
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(sm.next(), 0x6E789E6AA1B965F4ULL);
  EXPECT_EQ(sm.next(), 0x06C45D188009454FULL);
}

TEST(SplitMix64, DistinctSeedsDiverge) {
  SplitMix64 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Mix64, IsDeterministicAndMixing) {
  EXPECT_EQ(mix64(42), mix64(42));
  EXPECT_NE(mix64(42), mix64(43));
  // Single-bit input changes should flip roughly half the output bits.
  int total_flips = 0;
  for (int bit = 0; bit < 64; ++bit) {
    total_flips += std::popcount(mix64(0) ^ mix64(1ULL << bit));
  }
  const double avg = total_flips / 64.0;
  EXPECT_GT(avg, 24.0);
  EXPECT_LT(avg, 40.0);
}

TEST(Xoshiro, DeterministicUnderSeed) {
  Xoshiro256StarStar a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro, DoubleInUnitInterval) {
  Xoshiro256StarStar rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Xoshiro, NextBelowRespectsBound) {
  Xoshiro256StarStar rng(13);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Xoshiro, NextBelowZeroBoundIsZero) {
  Xoshiro256StarStar rng(13);
  EXPECT_EQ(rng.next_below(0), 0ULL);
}

TEST(Xoshiro, NextBelowIsRoughlyUniform) {
  Xoshiro256StarStar rng(17);
  constexpr std::uint64_t kBins = 16;
  constexpr int kDraws = 160000;
  std::vector<std::uint64_t> counts(kBins, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.next_below(kBins)];
  const double stat = chi_square_uniform(counts);
  EXPECT_LT(stat, chi_square_critical(kBins - 1, 0.001));
}

TEST(Xoshiro, BernoulliMatchesProbability) {
  Xoshiro256StarStar rng(19);
  int hits = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) hits += rng.next_bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(kDraws), 0.3, 0.01);
}

TEST(DeriveSeed, IndependentStreams) {
  // Streams derived from the same master with different indices should
  // not collide or correlate trivially.
  const std::uint64_t master = 123456;
  EXPECT_NE(derive_seed(master, 0), derive_seed(master, 1));
  EXPECT_NE(derive_seed(master, 0), derive_seed(master + 1, 0));
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seeds.push_back(derive_seed(master, i));
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
}

// -------------------------------------------------------------- stats --

TEST(RunningStat, MeanAndVariance) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.sum(), 40.0, 1e-9);
}

TEST(RunningStat, EmptyAndSingle) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.ci95_halfwidth(), 0.0);
  s.add(3.5);
  EXPECT_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStat, MergeMatchesSequential) {
  Xoshiro256StarStar rng(5);
  RunningStat whole, a, b;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.next_double() * 10;
    whole.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStat, MergeWithEmpty) {
  RunningStat a, b;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
}

TEST(Harmonic, ExactSmallValues) {
  EXPECT_DOUBLE_EQ(harmonic(0), 0.0);
  EXPECT_DOUBLE_EQ(harmonic(1), 1.0);
  EXPECT_NEAR(harmonic(2), 1.5, 1e-12);
  EXPECT_NEAR(harmonic(10), 2.9289682539682538, 1e-12);
  EXPECT_NEAR(harmonic(100), 5.187377517639621, 1e-10);
}

TEST(Harmonic, AsymptoticAgreesAtCutoff) {
  // The exact sum and the expansion should agree where they meet.
  const double exact = harmonic(1'000'000);
  const double asym = std::log(1e6) + 0.5772156649015329 + 1.0 / 2e6;
  EXPECT_NEAR(exact, asym, 1e-9);
  // Large-n path is monotone.
  EXPECT_GT(harmonic(10'000'000), harmonic(2'000'000));
}

TEST(Bounds, UpperBoundFormula) {
  // 2ks + 2ks(H_d - H_s) per Lemma 4.
  const double expected = 2.0 * 4 * 2 + 2.0 * 4 * 2 * (harmonic(100) - harmonic(2));
  EXPECT_NEAR(infinite_window_upper_bound(4, 2, 100), expected, 1e-9);
}

TEST(Bounds, LowerBelowUpper) {
  for (std::uint64_t k : {1ULL, 5ULL, 100ULL}) {
    for (std::uint64_t s : {1ULL, 10ULL, 50ULL}) {
      for (std::uint64_t d : {100ULL, 10'000ULL, 1'000'000ULL}) {
        EXPECT_LT(infinite_window_lower_bound(k, s, d),
                  infinite_window_upper_bound(k, s, d))
            << "k=" << k << " s=" << s << " d=" << d;
      }
    }
  }
}

TEST(Bounds, RatioWithinFactorFour) {
  // The paper claims optimality within a factor of four; the analytic
  // bound pair itself satisfies UB/LB <= 4 for d >> s.
  const double ub = infinite_window_upper_bound(10, 10, 1'000'000);
  const double lb = infinite_window_lower_bound(10, 10, 1'000'000);
  EXPECT_LE(ub / lb, 4.0 + 1e-9);
}

TEST(ChiSquare, ZeroForPerfectUniform) {
  std::vector<std::uint64_t> counts(10, 500);
  EXPECT_DOUBLE_EQ(chi_square_uniform(counts), 0.0);
}

TEST(ChiSquare, DetectsSkew) {
  std::vector<std::uint64_t> counts(10, 100);
  counts[0] = 1000;
  EXPECT_GT(chi_square_uniform(counts), chi_square_critical(9, 0.001));
}

TEST(ChiSquare, CriticalValuesSane) {
  // Known chi-square 0.05 upper quantiles: dof=10 -> 18.31, dof=100 -> 124.34.
  EXPECT_NEAR(chi_square_critical(10, 0.05), 18.31, 0.4);
  EXPECT_NEAR(chi_square_critical(100, 0.05), 124.34, 1.5);
  EXPECT_GT(chi_square_critical(10, 0.01), chi_square_critical(10, 0.05));
}

TEST(KolmogorovSmirnov, UniformSamplePasses) {
  Xoshiro256StarStar rng(23);
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) xs.push_back(rng.next_double());
  EXPECT_LT(ks_statistic_uniform(xs), ks_critical(xs.size(), 0.01));
}

TEST(KolmogorovSmirnov, SkewedSampleFails) {
  Xoshiro256StarStar rng(29);
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) {
    const double u = rng.next_double();
    xs.push_back(u * u);  // biased toward 0
  }
  EXPECT_GT(ks_statistic_uniform(xs), ks_critical(xs.size(), 0.01));
}

TEST(Pearson, PerfectAndNoCorrelation) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y{2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  std::vector<double> z{5, 5, 5, 5, 5};
  EXPECT_EQ(pearson(x, z), 0.0);
}

TEST(LlsSlope, RecoversLinearCoefficient) {
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(3.0 * i + 7.0);
  }
  EXPECT_NEAR(lls_slope(x, y), 3.0, 1e-9);
}

// -------------------------------------------------------------- table --

TEST(Table, MarkdownLayout) {
  Table t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const std::string md = t.to_markdown();
  EXPECT_NE(md.find("| a   | bb |"), std::string::npos);
  EXPECT_NE(md.find("| 333 | 4  |"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, CsvEscaping) {
  Table t({"x"});
  t.add_row({"plain"});
  t.add_row({"has,comma"});
  t.add_row({"has\"quote"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("plain\n"), std::string::npos);
  EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

TEST(Table, WriteCsvCreatesDirectories) {
  const auto dir = std::filesystem::temp_directory_path() / "dds_table_test";
  std::filesystem::remove_all(dir);
  Table t({"h"});
  t.add_row({"v"});
  const auto path = dir / "nested" / "out.csv";
  t.write_csv(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "h");
  std::filesystem::remove_all(dir);
}

TEST(Fmt, IntegersAndDoubles) {
  EXPECT_EQ(fmt(3.0), "3");
  EXPECT_EQ(fmt(static_cast<std::uint64_t>(12)), "12");
  EXPECT_EQ(fmt(3.14159, 3), "3.14");
}

// ---------------------------------------------------------------- cli --

TEST(Cli, ParsesValuedAndBooleanFlags) {
  Cli cli;
  cli.flag("sites", "number of sites", "5");
  cli.flag("alpha", "zipf", "1.0");
  cli.boolean("full", "run at paper scale");
  const char* argv[] = {"prog", "--sites", "10", "--full", "--alpha=2.5"};
  ASSERT_TRUE(cli.parse(5, argv));
  EXPECT_EQ(cli.get_uint("sites"), 10u);
  EXPECT_TRUE(cli.get_bool("full"));
  EXPECT_DOUBLE_EQ(cli.get_double("alpha"), 2.5);
}

TEST(Cli, DefaultsApplyWhenOmitted) {
  Cli cli;
  cli.flag("sites", "number of sites", "7");
  cli.boolean("full", "run at paper scale");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_uint("sites"), 7u);
  EXPECT_FALSE(cli.get_bool("full"));
}

TEST(Cli, UnknownFlagRejected) {
  Cli cli;
  cli.flag("sites", "n", "1");
  const char* argv[] = {"prog", "--nope", "3"};
  EXPECT_FALSE(cli.parse(3, argv));
}

TEST(Cli, MissingValueRejected) {
  Cli cli;
  cli.flag("sites", "n", "1");
  const char* argv[] = {"prog", "--sites"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, UintListParsing) {
  Cli cli;
  cli.flag("ks", "site sweep", "1,2,3");
  const char* argv[] = {"prog", "--ks", "5,10,20,50"};
  ASSERT_TRUE(cli.parse(3, argv));
  const auto ks = cli.get_uint_list("ks");
  ASSERT_EQ(ks.size(), 4u);
  EXPECT_EQ(ks[0], 5u);
  EXPECT_EQ(ks[3], 50u);
}

TEST(Cli, UnregisteredLookupThrows) {
  Cli cli;
  EXPECT_THROW(cli.get("nothere"), std::invalid_argument);
}

TEST(Cli, StrictNumberParsesRejectMalformedText) {
  EXPECT_EQ(parse_uint("12"), 12u);
  EXPECT_EQ(parse_uint("0"), 0u);
  EXPECT_EQ(parse_uint("18446744073709551615"), ~std::uint64_t{0});
  for (const char* bad : {"-1", "12abc", "", " 12", "12 ", "+3", "0x10",
                          "18446744073709551616", "1.5"}) {
    EXPECT_EQ(parse_uint(bad), std::nullopt) << "'" << bad << "'";
  }
  EXPECT_EQ(parse_uint("65535", 65535), 65535u);
  EXPECT_EQ(parse_uint("70000", 65535), std::nullopt);

  EXPECT_EQ(parse_int("-7"), -7);
  EXPECT_EQ(parse_int("7x"), std::nullopt);
  EXPECT_EQ(parse_int("9223372036854775808"), std::nullopt);

  EXPECT_EQ(parse_double("0.3"), 0.3);
  EXPECT_EQ(parse_double("-2.5e3"), -2500.0);
  for (const char* bad : {"0.3junk", "", "abc", "inf", "nan", "1e999",
                          " 1.0"}) {
    EXPECT_EQ(parse_double(bad), std::nullopt) << "'" << bad << "'";
  }
}

TEST(Cli, MalformedNumericFlagsThrowNamingTheFlag) {
  Cli cli;
  cli.flag("sites", "n", "1");
  cli.flag("ratio", "r", "0.5");
  cli.flag("offset", "o", "0");
  cli.flag("ks", "list", "1,2");
  const char* argv[] = {"prog",           "--sites", "-1",   "--ratio",
                        "0.3junk",        "--offset", "4q",  "--ks",
                        "5,12abc,7"};
  ASSERT_TRUE(cli.parse(9, argv));
  EXPECT_THROW(cli.get_uint("sites"), std::invalid_argument);
  EXPECT_THROW(cli.get_double("ratio"), std::invalid_argument);
  EXPECT_THROW(cli.get_int("offset"), std::invalid_argument);
  EXPECT_THROW(cli.get_uint_list("ks"), std::invalid_argument);
  try {
    (void)cli.get_uint("sites");
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--sites"), std::string::npos);
  }

  const char* trailing[] = {"prog", "--sites", "12abc"};
  Cli again;
  again.flag("sites", "n", "1");
  ASSERT_TRUE(again.parse(3, trailing));
  EXPECT_THROW(again.get_uint("sites"), std::invalid_argument);
}

TEST(Cli, EmptyListItemsAreSkipped) {
  Cli cli;
  cli.flag("ks", "list", "");
  const char* argv[] = {"prog", "--ks", "3,,4,"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.get_uint_list("ks"), (std::vector<std::uint64_t>{3, 4}));
  Cli empty;
  empty.flag("ks", "list", "");
  const char* none[] = {"prog"};
  ASSERT_TRUE(empty.parse(1, none));
  EXPECT_TRUE(empty.get_uint_list("ks").empty());
}

}  // namespace
}  // namespace dds::util
