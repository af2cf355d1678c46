// The execution-engine suite.
//
// The SerialEngine's contract is replay: two runs of the same config,
// seed and arrival list produce the same samples, estimates, logical
// message counters (total, direction, per type, per node, bytes) and
// full wire trace, on the zero-delay Bus and on lossy, jittered,
// batching SimNetwork wires alike. This file holds that contract across
// every protocol, checks that the infinite-window and with-replacement
// answers stay exact when the wire delays, drops and retransmits, and
// covers the ShardRouter partition/coverage properties and the
// sharded-coordinator query merge.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "baseline/baseline_system.h"
#include "core/shard_router.h"
#include "core/system.h"
#include "net/sim_network.h"
#include "query/estimators.h"
#include "sim/sources.h"
#include "util/rng.h"

namespace dds {
namespace {

using sim::ListSource;

/// Infinite-window shaped stream: slot == arrival index (the
/// partitioner's convention), uniform sites, duplicate-heavy domain.
std::vector<sim::Arrival> infinite_stream(std::uint32_t sites, std::uint64_t n,
                                          std::uint64_t domain,
                                          std::uint64_t seed) {
  util::SplitMix64 gen(seed);
  std::vector<sim::Arrival> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    out.push_back(sim::Arrival{static_cast<sim::Slot>(i),
                               static_cast<sim::NodeId>(gen.next() % sites),
                               1 + gen.next() % domain});
  }
  return out;
}

/// Sliding-window shaped stream: `per_slot` arrivals in every slot.
std::vector<sim::Arrival> slotted_stream(std::uint32_t sites, sim::Slot slots,
                                         std::uint32_t per_slot,
                                         std::uint64_t domain,
                                         std::uint64_t seed) {
  util::SplitMix64 gen(seed);
  std::vector<sim::Arrival> out;
  out.reserve(static_cast<std::size_t>(slots) * per_slot);
  for (sim::Slot t = 0; t < slots; ++t) {
    for (std::uint32_t a = 0; a < per_slot; ++a) {
      out.push_back(sim::Arrival{t,
                                 static_cast<sim::NodeId>(gen.next() % sites),
                                 1 + gen.next() % domain});
    }
  }
  return out;
}

using SamplePairs = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/// Everything the replay contract covers, byte for byte. The wire
/// statistics stay zero on the Bus.
struct Fingerprint {
  SamplePairs sample;  // (elem, hash) or protocol-specific pairs
  std::uint64_t processed = 0;
  std::uint64_t total = 0;
  std::uint64_t site_to_coordinator = 0;
  std::uint64_t coordinator_to_site = 0;
  std::uint64_t bytes = 0;
  std::vector<std::uint64_t> by_type;
  std::vector<std::uint64_t> sent_by;
  std::vector<std::uint64_t> trace;  // two words per delivered message
  std::uint64_t logical_total = 0;
  std::uint64_t drops = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t lost_messages = 0;
  std::uint64_t batches_flushed = 0;

  bool operator==(const Fingerprint&) const = default;
};

template <typename System, typename SampleFn>
Fingerprint fingerprint_run(System& system,
                            const std::vector<sim::Arrival>& arrivals,
                            SampleFn sample_fn) {
  Fingerprint fp;
  system.bus().set_tap([&fp](const sim::Message& m) {
    fp.trace.push_back((static_cast<std::uint64_t>(m.from) << 40) |
                       (static_cast<std::uint64_t>(m.to) << 8) |
                       static_cast<std::uint64_t>(m.type));
    fp.trace.push_back(m.a ^ (m.b * 3) ^ (m.c * 7) ^ m.instance);
  });
  ListSource source(arrivals);
  fp.processed = system.run(source);
  system.bus().set_tap(nullptr);
  fp.sample = sample_fn(system);
  const net::BusCounters& c = system.bus().counters();
  fp.total = c.total;
  fp.site_to_coordinator = c.site_to_coordinator;
  fp.coordinator_to_site = c.coordinator_to_site;
  fp.bytes = c.bytes;
  fp.by_type.assign(c.by_type.begin(), c.by_type.end());
  for (sim::NodeId id = 0;
       id < system.bus().num_sites() + system.bus().num_coordinators(); ++id) {
    fp.sent_by.push_back(system.bus().sent_by(id));
  }
  if (const auto* wire = dynamic_cast<const net::SimNetwork*>(&system.bus())) {
    fp.logical_total = wire->logical_counters().total;
    fp.drops = wire->stats().drops;
    fp.retransmissions = wire->stats().retransmissions;
    fp.lost_messages = wire->stats().lost_messages;
    fp.batches_flushed = wire->stats().batches_flushed;
  }
  return fp;
}

/// Builds the system twice from `make_system` and expects identical
/// fingerprints. Returns the first one for scenario-specific checks.
template <typename MakeSystem, typename SampleFn>
Fingerprint expect_replay_identical(MakeSystem make_system, SampleFn sample_fn,
                                    const std::vector<sim::Arrival>& arrivals) {
  auto first = make_system();
  const Fingerprint want = fingerprint_run(*first, arrivals, sample_fn);
  auto second = make_system();
  const Fingerprint got = fingerprint_run(*second, arrivals, sample_fn);
  EXPECT_EQ(want.processed, arrivals.size());
  EXPECT_FALSE(want.trace.empty());
  EXPECT_FALSE(want.sample.empty());
  EXPECT_EQ(want, got);
  return want;
}

SamplePairs infinite_sample(const core::InfiniteSystem& s) {
  SamplePairs out;
  for (const auto& e : s.sample().entries()) out.emplace_back(e.element, e.hash);
  return out;
}

/// The sample plus the distinct-count estimate, pinned to 1e-6.
SamplePairs infinite_sample_and_estimate(const core::InfiniteSystem& s) {
  SamplePairs out = infinite_sample(s);
  out.emplace_back(0, static_cast<std::uint64_t>(
                          query::estimate_distinct(s.sample()) * 1e6));
  return out;
}

SamplePairs with_replacement_sample(const core::WithReplacementSystem& s) {
  SamplePairs out;
  for (const auto e : s.sample()) out.emplace_back(e, 0);
  return out;
}

/// Oracle: the (element, hash) pairs of the bottom-s hashes over the
/// distinct elements of `arrivals`, in hash order.
template <typename HashFn>
SamplePairs exact_bottom_s(const std::vector<sim::Arrival>& arrivals,
                           const HashFn& h, std::size_t s) {
  std::set<std::pair<std::uint64_t, std::uint64_t>> by_hash;
  std::unordered_set<std::uint64_t> seen;
  for (const auto& a : arrivals) {
    if (seen.insert(a.element).second) by_hash.emplace(h(a.element), a.element);
  }
  SamplePairs out;
  for (const auto& [hv, e] : by_hash) {
    if (out.size() == s) break;
    out.emplace_back(e, hv);
  }
  return out;
}

/// The infinite-window sample in hash order, as (element, hash) pairs.
SamplePairs sorted_by_hash(SamplePairs sample) {
  std::sort(sample.begin(), sample.end(), [](const auto& x, const auto& y) {
    return std::pair{x.second, x.first} < std::pair{y.second, y.first};
  });
  return sample;
}

constexpr std::uint32_t kSites = 13;
constexpr std::uint64_t kSeeds[] = {1, 2, 3};

// ------------------------------------------------- replay on the Bus --

TEST(EngineReplay, InfiniteFaithful) {
  for (const std::uint64_t seed : kSeeds) {
    const auto arrivals = infinite_stream(kSites, 20000, 3000, seed * 77 + 5);
    expect_replay_identical(
        [&] {
          core::SystemConfig config{kSites, 16, hash::HashKind::kMurmur2,
                                    seed};
          return std::make_unique<core::InfiniteSystem>(config);
        },
        infinite_sample, arrivals);
  }
}

TEST(EngineReplay, InfiniteSuppressDuplicatesAndEstimate) {
  for (const std::uint64_t seed : kSeeds) {
    const auto arrivals = infinite_stream(kSites, 20000, 800, seed * 31 + 1);
    expect_replay_identical(
        [&] {
          core::SystemConfig config{kSites, 12, hash::HashKind::kMurmur3,
                                    seed};
          return std::make_unique<core::InfiniteSystem>(
              config, /*eager_threshold=*/true, /*suppress_duplicates=*/true);
        },
        infinite_sample_and_estimate, arrivals);
  }
}

TEST(EngineReplay, WithReplacement) {
  for (const std::uint64_t seed : kSeeds) {
    const auto arrivals = infinite_stream(kSites, 6000, 1500, seed * 13 + 7);
    expect_replay_identical(
        [&] {
          core::SystemConfig config{kSites, 8, hash::HashKind::kMurmur2, seed};
          return std::make_unique<core::WithReplacementSystem>(config);
        },
        with_replacement_sample, arrivals);
  }
}

TEST(EngineReplay, SlidingSingleAndMultiCopy) {
  for (const std::uint64_t seed : kSeeds) {
    for (const std::size_t s : {std::size_t{1}, std::size_t{3}}) {
      const auto arrivals =
          slotted_stream(kSites, /*slots=*/300, /*per_slot=*/6, 500,
                         seed * 101 + s);
      expect_replay_identical(
          [&] {
            core::SlidingSystemConfig config;
            config.num_sites = kSites;
            config.window = 40;
            config.sample_size = s;
            config.seed = seed;
            return std::make_unique<core::SlidingSystem>(config);
          },
          [](core::SlidingSystem& sys) {
            SamplePairs out;
            for (const auto e : sys.sample(sys.runner().current_slot())) {
              out.emplace_back(e, 0);
            }
            out.emplace_back(sys.total_site_state(), sys.max_site_state());
            return out;
          },
          arrivals);
    }
  }
}

TEST(EngineReplay, CentralizedAndDrsBaselines) {
  for (const std::uint64_t seed : kSeeds) {
    const auto arrivals = infinite_stream(kSites, 4000, 900, seed * 3 + 11);
    expect_replay_identical(
        [&] {
          core::SystemConfig config{kSites, 10, hash::HashKind::kMurmur2,
                                    seed};
          return std::make_unique<baseline::CentralizedSystem>(config);
        },
        [](baseline::CentralizedSystem& s) {
          SamplePairs out;
          for (const auto& e : s.coordinator().sample().entries()) {
            out.emplace_back(e.element, e.hash);
          }
          return out;
        },
        arrivals);
    // DRS draws a fresh random tag per arrival: replay pins the site RNGs.
    expect_replay_identical(
        [&] {
          core::SystemConfig config{kSites, 10, hash::HashKind::kMurmur2,
                                    seed};
          return std::make_unique<baseline::DrsSystem>(config);
        },
        [](baseline::DrsSystem& s) {
          SamplePairs out;
          for (const auto e : s.coordinator().sample()) out.emplace_back(e, 0);
          return out;
        },
        arrivals);
  }
}

TEST(EngineReplay, ObserverSeesIdenticalCheckpoints) {
  const auto arrivals = infinite_stream(kSites, 5000, 700, 99);
  auto checkpoints = [&] {
    core::SystemConfig config{kSites, 8, hash::HashKind::kMurmur2, 4};
    core::InfiniteSystem system(config);
    std::vector<std::uint64_t> seen;
    system.runner().set_observer(777, [&](const sim::Progress& p) {
      seen.push_back(p.elements_processed);
      seen.push_back(system.bus().counters().total);
      seen.push_back(p.final_snapshot ? 1 : 0);
    });
    ListSource source(arrivals);
    system.run(source);
    return seen;
  };
  const std::vector<std::uint64_t> first = checkpoints();
  // 5000 / 777 = 6 periodic observations, then the final snapshot.
  ASSERT_EQ(first.size(), 7u * 3);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(first[3 * i], 777u * (i + 1));
    EXPECT_EQ(first[3 * i + 2], 0u);
    EXPECT_LE(first[3 * i + 1], first[3 * i + 4]) << "counters went back";
  }
  EXPECT_EQ(first[18], arrivals.size());
  EXPECT_EQ(first[20], 1u);
  EXPECT_EQ(first, checkpoints());
}

TEST(EngineReplay, FingerprintSeparatesSeeds) {
  // The replay checks above are only worth something if the fingerprint
  // notices a different run: another protocol seed must change it.
  const auto arrivals = infinite_stream(kSites, 8000, 2000, 41);
  auto run_at = [&](std::uint64_t seed) {
    core::SystemConfig config{kSites, 12, hash::HashKind::kMurmur2, seed};
    core::InfiniteSystem system(config);
    return fingerprint_run(system, arrivals, infinite_sample);
  };
  const Fingerprint a = run_at(1);
  const Fingerprint b = run_at(2);
  EXPECT_EQ(a.processed, b.processed);
  EXPECT_NE(a.sample, b.sample);
  EXPECT_NE(a.trace, b.trace);
}

// ------------------------------------------ replay on lossy wires ----

TEST(EngineReplay, InfiniteOverLatencyJitterWire) {
  for (const std::uint64_t seed : kSeeds) {
    const auto arrivals = infinite_stream(kSites, 6000, 900, seed * 13 + 2);
    expect_replay_identical(
        [&] {
          core::SystemConfig config{kSites, 8, hash::HashKind::kMurmur2,
                                    seed};
          config.network.link.latency = 0.25;
          config.network.link.jitter_stddev = 0.5;
          return std::make_unique<core::InfiniteSystem>(config);
        },
        infinite_sample_and_estimate, arrivals);
  }
}

TEST(EngineReplay, InfiniteJitterLossRetransmit) {
  for (const std::uint64_t seed : kSeeds) {
    const auto arrivals = infinite_stream(kSites, 6000, 700, seed * 7 + 3);
    const Fingerprint fp = expect_replay_identical(
        [&] {
          core::SystemConfig config{kSites, 8, hash::HashKind::kMurmur3,
                                    seed};
          config.network.link.latency = 1.5;
          config.network.link.jitter = 0.75;
          config.network.link.drop_rate = 0.05;
          config.network.link.retransmit = true;
          return std::make_unique<core::InfiniteSystem>(config);
        },
        infinite_sample, arrivals);
    EXPECT_GT(fp.drops, 0u) << "wire not lossy enough to prove anything";
    EXPECT_GT(fp.retransmissions, 0u);
  }
}

TEST(EngineReplay, SlidingOverLossyBatchingWire) {
  for (const std::uint64_t seed : kSeeds) {
    const auto arrivals =
        slotted_stream(kSites, /*slots=*/200, /*per_slot=*/5, 300, seed * 7);
    const Fingerprint fp = expect_replay_identical(
        [&] {
          core::SlidingSystemConfig config;
          config.num_sites = kSites;
          config.window = 30;
          config.sample_size = 2;
          config.seed = seed;
          config.network.link.latency = 1.5;
          config.network.link.jitter = 0.75;
          config.network.link.drop_rate = 0.05;
          config.network.batch_interval = 3;
          return std::make_unique<core::SlidingSystem>(config);
        },
        [](core::SlidingSystem& sys) {
          SamplePairs out;
          for (const auto e : sys.sample(sys.runner().current_slot())) {
            out.emplace_back(e, 0);
          }
          return out;
        },
        arrivals);
    EXPECT_GT(fp.drops, 0u);
    EXPECT_GT(fp.batches_flushed, 0u);
  }
}

TEST(EngineReplay, WithReplacementBatchedWire) {
  for (const std::uint64_t seed : kSeeds) {
    const auto arrivals = infinite_stream(kSites, 4000, 1200, seed * 13 + 7);
    const Fingerprint fp = expect_replay_identical(
        [&] {
          core::SystemConfig config{kSites, 6, hash::HashKind::kMurmur2, seed};
          config.network.link.latency = 1.0;
          config.network.batch_interval = 3;
          config.network.batch_max_msgs = 8;
          return std::make_unique<core::WithReplacementSystem>(config);
        },
        with_replacement_sample, arrivals);
    EXPECT_GT(fp.batches_flushed, 0u);
  }
}

TEST(EngineReplay, DrsOverSubSlotLatencyWire) {
  for (const std::uint64_t seed : kSeeds) {
    const auto arrivals = infinite_stream(kSites, 5000, 800, seed * 3 + 11);
    expect_replay_identical(
        [&] {
          core::SystemConfig config{kSites, 10, hash::HashKind::kMurmur2,
                                    seed};
          config.network.link.latency = 0.25;
          return std::make_unique<baseline::DrsSystem>(config);
        },
        [](baseline::DrsSystem& s) {
          SamplePairs out;
          for (const auto e : s.coordinator().sample()) out.emplace_back(e, 0);
          return out;
        },
        arrivals);
  }
}

TEST(EngineReplay, ShardedRoutedSitesWithRouteCacheMetrics) {
  // Routed sites keep a route cache whose hit counters are registered
  // metrics: a replay must reproduce the lookups and the hits too.
  const auto arrivals = infinite_stream(kSites, 8000, 1500, 31);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> cache_stats;
  expect_replay_identical(
      [&] {
        core::SystemConfig config{kSites, 16, hash::HashKind::kMurmur2, 21};
        config.num_shards = 3;
        config.network.link.latency = 0.5;
        config.observability.metrics = true;
        return std::make_unique<core::InfiniteSystem>(config);
      },
      [&](core::InfiniteSystem& s) {
        SamplePairs out = infinite_sample(s);
        const auto snapshot = s.observability().snapshot();
        out.emplace_back(
            snapshot.counter_or("deployment.route_cache.hits", 0),
            snapshot.counter_or("deployment.route_cache.lookups", 0));
        cache_stats.push_back(out.back());
        return out;
      },
      arrivals);
  ASSERT_EQ(cache_stats.size(), 2u);
  EXPECT_GT(cache_stats[0].second, 0u) << "route cache never consulted";
}

// ------------------------------------- exact answers on lossy wires --

TEST(EngineWireOracle, InfiniteOverJitterWireIsExactBottomS) {
  // A delayed threshold reply only leaves a site's threshold too high,
  // so it forwards more, never less: the coordinator still ends with
  // the exact bottom-s of the distinct elements.
  for (const std::uint64_t seed : kSeeds) {
    const auto arrivals = infinite_stream(kSites, 8000, 2500, seed * 5 + 1);
    core::SystemConfig config{kSites, 16, hash::HashKind::kMurmur2, seed};
    config.network.link.latency = 2.0;
    config.network.link.jitter = 3.0;
    config.network.link.reorder_rate = 0.1;
    core::InfiniteSystem system(config);
    ListSource source(arrivals);
    system.run(source);
    EXPECT_TRUE(system.bus().quiescent());
    EXPECT_EQ(sorted_by_hash(infinite_sample(system)),
              exact_bottom_s(arrivals, system.hash_fn(), 16))
        << "seed " << seed;
  }
}

TEST(EngineWireOracle, InfiniteOverRetransmittingLossyWireIsExactBottomS) {
  for (const std::uint64_t seed : kSeeds) {
    const auto arrivals = infinite_stream(kSites, 8000, 2500, seed * 5 + 2);
    core::SystemConfig config{kSites, 16, hash::HashKind::kMurmur3, seed};
    config.network.link.latency = 1.0;
    config.network.link.jitter = 1.0;
    config.network.link.drop_rate = 0.1;
    config.network.link.retransmit = true;
    core::InfiniteSystem system(config);
    ListSource source(arrivals);
    system.run(source);
    const auto& wire = dynamic_cast<const net::SimNetwork&>(system.bus());
    EXPECT_GT(wire.stats().drops, 0u);
    ASSERT_EQ(wire.stats().lost_messages, 0u);
    EXPECT_EQ(sorted_by_hash(infinite_sample(system)),
              exact_bottom_s(arrivals, system.hash_fn(), 16))
        << "seed " << seed;
  }
}

TEST(EngineWireOracle, SuppressDuplicatesOverBatchingWireIsExactBottomS) {
  for (const std::uint64_t seed : kSeeds) {
    const auto arrivals = infinite_stream(kSites, 8000, 600, seed * 5 + 3);
    core::SystemConfig config{kSites, 12, hash::HashKind::kMurmur2, seed};
    config.network.link.latency = 0.5;
    config.network.batch_interval = 4;
    core::InfiniteSystem system(config, /*eager_threshold=*/true,
                                /*suppress_duplicates=*/true);
    ListSource source(arrivals);
    system.run(source);
    EXPECT_EQ(sorted_by_hash(infinite_sample(system)),
              exact_bottom_s(arrivals, system.hash_fn(), 12))
        << "seed " << seed;
  }
}

TEST(EngineWireOracle, WithReplacementOverLossyWireMatchesZeroDelay) {
  // Copy j keeps the minimum hash under its own function, which no
  // delivery order can change.
  for (const std::uint64_t seed : kSeeds) {
    const auto arrivals = infinite_stream(kSites, 5000, 1500, seed * 5 + 4);
    core::SystemConfig config{kSites, 6, hash::HashKind::kMurmur2, seed};
    core::WithReplacementSystem reference(config);
    {
      ListSource source(arrivals);
      reference.run(source);
    }
    core::SystemConfig wire_config = config;
    wire_config.network.link.latency = 1.5;
    wire_config.network.link.jitter = 2.0;
    wire_config.network.link.drop_rate = 0.1;
    wire_config.network.batch_interval = 2;
    core::WithReplacementSystem wired(wire_config);
    {
      ListSource source(arrivals);
      wired.run(source);
    }
    const auto& wire = dynamic_cast<const net::SimNetwork&>(wired.bus());
    ASSERT_EQ(wire.stats().lost_messages, 0u);
    EXPECT_EQ(wired.sample(), reference.sample()) << "seed " << seed;
  }
}

TEST(EngineWireOracle, ShardedInfiniteOverWireMatchesUnshardedBus) {
  const auto arrivals = infinite_stream(kSites, 10000, 3000, 53);
  core::SystemConfig config{kSites, 20, hash::HashKind::kMurmur2, 8};
  core::InfiniteSystem reference(config);
  {
    ListSource source(arrivals);
    reference.run(source);
  }
  core::SystemConfig wire_config = config;
  wire_config.num_shards = 3;
  wire_config.network.link.latency = 1.0;
  wire_config.network.link.jitter = 1.0;
  wire_config.network.batch_interval = 2;
  core::InfiniteSystem wired(wire_config);
  {
    ListSource source(arrivals);
    wired.run(source);
  }
  EXPECT_EQ(infinite_sample(wired), infinite_sample(reference));
  EXPECT_DOUBLE_EQ(query::estimate_distinct(wired.sample()),
                   query::estimate_distinct(reference.sample()));
}

// ------------------------------------------------ engine surface -----

TEST(SerialEngine, EmptyStreamAndAdvance) {
  core::SlidingSystemConfig config;
  config.num_sites = 4;
  core::SlidingSystem system(config);
  ListSource empty({});
  EXPECT_EQ(system.run(empty), 0u);
  EXPECT_EQ(system.bus().counters().total, 0u);
  system.runner().advance_to_slot(7);
  EXPECT_EQ(system.runner().current_slot(), 7);
  EXPECT_EQ(system.bus().now(), 7);
}

TEST(SerialEngine, RunFinishesInFlightWireTraffic) {
  // Replies still in flight when the source ends land before run()
  // returns: the transport is quiescent and every logical message sent
  // was delivered.
  const auto arrivals = infinite_stream(4, 500, 400, 3);
  core::SystemConfig config{4, 8, hash::HashKind::kMurmur2, 3};
  config.network.link.latency = 50.0;  // far past the last arrival slot
  core::InfiniteSystem system(config);
  ListSource source(arrivals);
  system.run(source);
  const auto& wire = dynamic_cast<const net::SimNetwork&>(system.bus());
  EXPECT_TRUE(wire.quiescent());
  EXPECT_EQ(wire.in_flight(), 0u);
  EXPECT_GE(wire.virtual_time(), 50.0);
  std::uint64_t received = 0;
  for (sim::NodeId id = 0; id < 5; ++id) received += wire.received_by(id);
  EXPECT_EQ(received, wire.logical_counters().total);
}

TEST(SerialEngine, BindObservabilityPublishesArrivalsAndSlot) {
  const auto arrivals = slotted_stream(3, /*slots=*/12, /*per_slot=*/4, 50, 5);
  core::SlidingSystemConfig config;
  config.num_sites = 3;
  config.window = 5;
  config.observability.metrics = true;
  core::SlidingSystem system(config);
  ListSource source(arrivals);
  system.run(source);
  const auto snapshot = system.observability().snapshot();
  EXPECT_EQ(snapshot.counter_or("engine.arrivals"), arrivals.size());
  EXPECT_DOUBLE_EQ(snapshot.gauge_or("engine.slot", -1.0), 11.0);
}

TEST(SerialEngine, MetricsOffRegistersNoEngineInstruments) {
  core::SystemConfig config{3, 4, hash::HashKind::kMurmur2, 1};
  core::InfiniteSystem system(config);
  const auto arrivals = infinite_stream(3, 100, 50, 2);
  ListSource source(arrivals);
  system.run(source);
  EXPECT_TRUE(system.observability().snapshot().empty());
}


// ------------------------------------------------------------ router --

TEST(ShardRouter, CoversAllShardsRoughlyEvenly) {
  const std::uint32_t shards = 8;
  core::ShardRouter router(shards, /*seed=*/5);
  std::vector<std::uint64_t> owned(shards, 0);
  util::SplitMix64 gen(123);
  const std::uint64_t probes = 200000;
  for (std::uint64_t i = 0; i < probes; ++i) ++owned[router.shard_of(gen.next())];
  for (std::uint32_t j = 0; j < shards; ++j) {
    // Every shard owns a nontrivial slice: within 3x either way of fair.
    EXPECT_GT(owned[j], probes / shards / 3) << "shard " << j;
    EXPECT_LT(owned[j], probes * 3 / shards) << "shard " << j;
  }
}

TEST(ShardRouter, DeterministicAndStableAcrossInstances) {
  core::ShardRouter a(6, 42), b(6, 42);
  util::SplitMix64 gen(7);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t e = gen.next();
    EXPECT_EQ(a.shard_of(e), b.shard_of(e));
  }
}

TEST(ShardRouter, ResizeRemapsOnlyAFraction) {
  core::ShardRouter small(4, 9), big(5, 9);
  // Consistent hashing: going 4 -> 5 shards should move roughly 1/5 of
  // the space, and certainly far less than a modulo repartition (~4/5).
  const double moved = small.disagreement(big, 100000);
  EXPECT_GT(moved, 0.05);
  EXPECT_LT(moved, 0.45);
}

TEST(ShardRouter, RejectsZeroShards) {
  EXPECT_THROW(core::ShardRouter(0), std::invalid_argument);
}

// ------------------------------------------- sharded coordinator -----

TEST(ShardedCoordinator, InfiniteMergedSampleIsExact) {
  const auto arrivals = infinite_stream(10, 30000, 5000, 17);
  core::SystemConfig config{10, 24, hash::HashKind::kMurmur2, 6};
  core::InfiniteSystem reference(config);
  {
    ListSource source(arrivals);
    reference.run(source);
  }
  const auto want = reference.coordinator().sample().entries();
  ASSERT_FALSE(want.empty());

  for (const std::uint32_t shards : {2u, 4u}) {
    core::SystemConfig sharded_config = config;
    sharded_config.num_shards = shards;
    core::InfiniteSystem sharded(sharded_config);
    EXPECT_EQ(sharded.bus().num_coordinators(), shards);
    ListSource source(arrivals);
    sharded.run(source);
    // The query-time merge across shards is the exact global bottom-s.
    const auto got = sharded.sample().entries();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].element, want[i].element);
      EXPECT_EQ(got[i].hash, want[i].hash);
    }
    // The estimator sees the identical merged sketch.
    EXPECT_DOUBLE_EQ(query::estimate_distinct(sharded.sample()),
                     query::estimate_distinct(reference.coordinator().sample()));
  }
}

TEST(ShardedCoordinator, PerShardCountersPartitionTheTotal) {
  const auto arrivals = infinite_stream(8, 12000, 2500, 23);
  core::SystemConfig config{8, 16, hash::HashKind::kMurmur2, 9};
  config.num_shards = 4;
  core::InfiniteSystem system(config);
  ListSource source(arrivals);
  system.run(source);

  std::uint64_t total = 0, bytes = 0;
  for (std::uint32_t j = 0; j < 4; ++j) {
    const auto& c = system.bus().coordinator_counters(j);
    EXPECT_GT(c.total, 0u) << "shard " << j << " saw no traffic";
    total += c.total;
    bytes += c.bytes;
  }
  EXPECT_EQ(total, system.bus().counters().total);
  EXPECT_EQ(bytes, system.bus().counters().bytes);
  EXPECT_THROW(system.bus().coordinator_counters(4), std::out_of_range);
}

TEST(ShardedCoordinator, WithReplacementMergedSampleMatchesUnsharded) {
  const auto arrivals = infinite_stream(6, 8000, 2000, 29);
  core::SystemConfig config{6, 6, hash::HashKind::kMurmur2, 12};
  core::WithReplacementSystem reference(config);
  {
    ListSource source(arrivals);
    reference.run(source);
  }
  core::SystemConfig sharded_config = config;
  sharded_config.num_shards = 3;
  core::WithReplacementSystem sharded(sharded_config);
  {
    ListSource source(arrivals);
    sharded.run(source);
  }
  // Copy j's min-hash element is partition-independent, so the merged
  // with-replacement sample equals the single-coordinator one.
  EXPECT_EQ(sharded.sample(), reference.coordinator().sample());
}

TEST(ShardedCoordinator, ShardedPlusThreadedStaysDeterministic) {
  // A sharded deployment replays bit for bit: two runs at the same seed
  // send the same traffic and merge the same sample.
  const auto arrivals = infinite_stream(kSites, 15000, 2600, 31);
  auto run_once = [&] {
    core::SystemConfig config{kSites, 16, hash::HashKind::kMurmur2, 21};
    config.num_shards = 3;
    core::InfiniteSystem system(config);
    ListSource source(arrivals);
    system.run(source);
    Fingerprint fp;
    fp.total = system.bus().counters().total;
    fp.bytes = system.bus().counters().bytes;
    for (const auto& e : system.sample().entries()) {
      fp.sample.emplace_back(e.element, e.hash);
    }
    return fp;
  };
  const Fingerprint first = run_once();
  ASSERT_FALSE(first.sample.empty());
  EXPECT_EQ(first, run_once());
}

TEST(ShardedCoordinator, UnshardableProtocolsRejectShards) {
  // Broadcast replies fan out to every site and DRS draws a fresh tag
  // per occurrence — neither has an element partition to shard over.
  // (The sliding protocols DO shard now; see sliding_shard_test.cpp.)
  core::SystemConfig config{8, 8, hash::HashKind::kMurmur2, 3};
  config.num_shards = 2;
  EXPECT_THROW(baseline::BroadcastSystem system(config),
               std::invalid_argument);
  EXPECT_THROW(baseline::DrsSystem system(config), std::invalid_argument);
}

}  // namespace
}  // namespace dds
