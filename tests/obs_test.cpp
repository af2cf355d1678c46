// The observability-layer suite.
//
// Three layers of contract:
//   * unit — log2 histogram bucketing, registry aggregation (duplicate
//     names sum),
//     tracer capacity/drop accounting, exporter round-trips;
//   * facade — Observability with instruments off binds/does nothing;
//   * determinism — with metrics + tracing on, two runs over a lossy
//     wire at the same seed produce bit-identical metrics snapshots and
//     traces, for both the sliding and the infinite protocol. This is
//     the replay contract the CI replay-twice smokes rely on.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/system.h"
#include "net/sim_network.h"
#include "net/udp_transport.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/observability.h"
#include "obs/trace.h"
#include "sim/metrics.h"
#include "sim/sources.h"
#include "util/rng.h"

namespace dds {
namespace {

using sim::ListSource;

constexpr std::uint32_t kSites = 13;
constexpr std::uint64_t kSeeds[] = {1, 2, 3};

/// Infinite-window shaped stream: slot == arrival index.
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

// ------------------------------------------------------------ histogram --

TEST(ObsHistogram, Log2Bucketing) {
  obs::Histogram h;
  h.observe(0);                  // bucket 0
  h.observe(1);                  // bucket 1
  h.observe(2);                  // bucket 2
  h.observe(3);                  // bucket 2
  h.observe(4);                  // bucket 3
  h.observe(1023);               // bucket 10
  h.observe(1024);               // bucket 11
  h.observe(~std::uint64_t{0});  // bucket 64
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[2], 2u);
  EXPECT_EQ(h.buckets[3], 1u);
  EXPECT_EQ(h.buckets[10], 1u);
  EXPECT_EQ(h.buckets[11], 1u);
  EXPECT_EQ(h.buckets[64], 1u);
  EXPECT_EQ(h.count, 8u);
  EXPECT_EQ(h.sum, 0u + 1 + 2 + 3 + 4 + 1023 + 1024 + ~std::uint64_t{0});
}

TEST(ObsHistogram, UpperBoundsAreInclusiveLogBoundaries) {
  EXPECT_EQ(obs::HistogramSnapshot::upper_bound(0), 0u);
  EXPECT_EQ(obs::HistogramSnapshot::upper_bound(1), 1u);
  EXPECT_EQ(obs::HistogramSnapshot::upper_bound(2), 3u);
  EXPECT_EQ(obs::HistogramSnapshot::upper_bound(10), 1023u);
  EXPECT_EQ(obs::HistogramSnapshot::upper_bound(63), (1ULL << 63) - 1);
  EXPECT_EQ(obs::HistogramSnapshot::upper_bound(64), ~std::uint64_t{0});
}

// ------------------------------------------------------------- registry --

TEST(ObsRegistry, DuplicateRegistrationsAggregateAtSnapshot) {
  // The per-shard pattern: one cell per shard, one exported total.
  std::uint64_t shard0 = 10, shard1 = 32;
  obs::Histogram h0, h1;
  h0.observe(4);
  h1.observe(4);
  h1.observe(100);

  obs::MetricsRegistry registry;
  registry.counter("net.msgs", &shard0);
  registry.counter("net.msgs", &shard1);
  registry.counter_fn("net.msgs", [] { return std::uint64_t{100}; });
  registry.gauge("pool.size", [] { return 1.5; });
  registry.gauge("pool.size", [] { return 2.5; });
  registry.histogram("net.batch", &h0);
  registry.histogram("net.batch", &h1);
  EXPECT_EQ(registry.size(), 7u);

  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_or("net.msgs"), 142u);
  EXPECT_DOUBLE_EQ(snap.gauge_or("pool.size"), 4.0);
  const obs::HistogramSnapshot& merged = snap.histograms.at("net.batch");
  EXPECT_EQ(merged.count, 3u);
  EXPECT_EQ(merged.sum, 108u);
  EXPECT_EQ(merged.buckets[3], 2u);   // the two 4s
  EXPECT_EQ(merged.buckets[7], 1u);   // the 100

  // Snapshots are live views: bumping a cell shows up next snapshot.
  shard0 += 5;
  EXPECT_EQ(registry.snapshot().counter_or("net.msgs"), 147u);
  EXPECT_EQ(snap.counter_or("absent", 99), 99u);
}

// --------------------------------------------------------------- tracer --

TEST(ObsTracer, CapacityBoundsEventsAndCountsDrops) {
  obs::Tracer tracer(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    tracer.instant("net", "msg", static_cast<double>(i), 0);
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped_events(), 6u);
}

TEST(ObsTracer, ChromeJsonRendersEveryEventInVirtualTime) {
  obs::Tracer tracer;
  tracer.instant("net", "sliding_report", 1.0, 3, {{"from", 3.0}});
  tracer.complete("ckpt", "restore", 1.0, 2.0, 0, {{"shards", 5.0}});
  tracer.counter("metrics", "net.wire.msgs", 2.0, 17.0);

  const std::string all = tracer.to_chrome_json();
  EXPECT_NE(all.find("traceEvents"), std::string::npos);
  EXPECT_NE(all.find("sliding_report"), std::string::npos);
  EXPECT_NE(all.find("\"ckpt\""), std::string::npos);
  EXPECT_NE(all.find("net.wire.msgs"), std::string::npos);

  // Virtual-time scale: slot 1 is 1000 trace microseconds.
  EXPECT_NE(all.find("\"ts\":1000"), std::string::npos);
  ASSERT_EQ(tracer.events().size(), 3u);
  EXPECT_DOUBLE_EQ(tracer.events()[0].ts_us, 1000.0);
  EXPECT_DOUBLE_EQ(tracer.events()[1].dur_us, 1000.0);
}

// ------------------------------------------------------------ exporters --

TEST(ObsExport, PrometheusNameSanitization) {
  EXPECT_EQ(obs::prometheus_name("net.wire.msgs"), "dds_net_wire_msgs");
  EXPECT_EQ(obs::prometheus_name("net.shard0.bytes"), "dds_net_shard0_bytes");
}

TEST(ObsExport, PopulatedSnapshotRoundTrips) {
  std::uint64_t msgs = 12345;
  obs::Histogram h;
  for (std::uint64_t v : {0ULL, 1ULL, 7ULL, 900ULL, 900ULL}) h.observe(v);

  obs::MetricsRegistry registry;
  registry.counter("net.wire.msgs", &msgs);
  registry.gauge("substrate.occupancy", [] { return 321.0; });
  registry.histogram("net.flight.us", &h);

  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(obs::prometheus_round_trip_error(snap), "");

  const auto samples = obs::parse_prometheus(obs::to_prometheus(snap));
  ASSERT_TRUE(samples.has_value());
  bool saw_inf_bucket = false;
  for (const obs::PromSample& s : *samples) {
    if (s.name == "dds_net_flight_us_bucket") {
      auto le = s.labels.find("le");
      ASSERT_NE(le, s.labels.end());
      if (le->second == "+Inf") {
        saw_inf_bucket = true;
        EXPECT_DOUBLE_EQ(s.value, 5.0);  // cumulative: all observations
      }
    }
  }
  EXPECT_TRUE(saw_inf_bucket);

  const std::string json = obs::to_json(snap);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"net.wire.msgs\""), std::string::npos);
  EXPECT_NE(json.find("12345"), std::string::npos);
}

TEST(ObsExport, ParserRejectsMalformedExposition) {
  EXPECT_FALSE(obs::parse_prometheus("dds_x not_a_number\n").has_value());
  EXPECT_TRUE(obs::parse_prometheus("").has_value());
  EXPECT_TRUE(obs::parse_prometheus("# just a comment\n").has_value());
}

// --------------------------------------------------------------- facade --

TEST(ObsFacade, DisabledBindsAndEmitsNothing) {
  obs::Observability off({});
  EXPECT_FALSE(off.config().enabled());
  EXPECT_EQ(off.registry(), nullptr);
  EXPECT_EQ(off.tracer(), nullptr);
  EXPECT_TRUE(off.snapshot().empty());
  EXPECT_FALSE(off.write_trace("/tmp/should_not_exist_obs_test.json"));
  off.sample_counters(0.0);  // must be a safe no-op

  // A disabled-observability deployment still runs identically.
  core::SystemConfig config{kSites, 4, hash::HashKind::kMurmur2, 1};
  core::InfiniteSystem system(config);
  EXPECT_FALSE(system.observability().config().enabled());
  ListSource source(infinite_stream(kSites, 500, 100, 3));
  system.run(source);
  EXPECT_TRUE(system.observability().snapshot().empty());
}

TEST(ObsFacade, SampleCountersBridgesMetricsIntoTrace) {
  core::SystemConfig config{kSites, 4, hash::HashKind::kMurmur2, 1};
  config.observability.metrics = true;
  config.observability.tracing = true;
  core::InfiniteSystem system(config);
  ListSource source(infinite_stream(kSites, 500, 100, 3));
  system.run(source);
  system.observability().sample_counters(
      static_cast<double>(system.runner().current_slot()));

  const obs::MetricsSnapshot snap = system.observability().snapshot();
  EXPECT_GT(snap.counter_or("net.wire.msgs"), 0u);
  EXPECT_GT(snap.counter_or("engine.arrivals"), 0u);

  // Every counter sample lands in the trace's "metrics" lane, the
  // engine's own counters included.
  bool saw_net = false, saw_engine = false;
  for (const obs::TraceEvent& e : system.observability().tracer()->events()) {
    if (e.phase != 'C') continue;
    EXPECT_EQ(e.cat, "metrics") << e.name;
    saw_net = saw_net || e.name == "net.wire.msgs";
    saw_engine = saw_engine || e.name == "engine.arrivals";
  }
  EXPECT_TRUE(saw_net);
  EXPECT_TRUE(saw_engine);
}

TEST(ObsFacade, UdpExportsConnectionCountersSummedOverConnections) {
  // The conn.* counters are the reliability layer's, one registration
  // per connection under a shared name; the snapshot's sums must equal
  // the transport's own conn_totals().
  core::SystemConfig config{4, 4, hash::HashKind::kMurmur2, 1};
  config.window = 30;
  config.num_shards = 2;
  config.network.kind = net::TransportKind::kUdp;
  config.observability.metrics = true;
  core::SlidingSystem system(config);
  ListSource source(slotted_stream(4, 120, 5, 200, 3));
  system.run(source);

  const obs::MetricsSnapshot snap = system.observability().snapshot();
  const auto& udp = dynamic_cast<const net::UdpTransport&>(system.bus());
  const net::ConnStats totals = udp.conn_totals();
  EXPECT_GT(totals.data_sent, 0u);
  EXPECT_EQ(snap.counter_or("conn.data_sent", ~0ULL), totals.data_sent);
  EXPECT_EQ(snap.counter_or("conn.retransmits", ~0ULL), totals.retransmits);
  EXPECT_EQ(snap.counter_or("conn.nack_retransmits", ~0ULL),
            totals.nack_retransmits);
  EXPECT_EQ(snap.counter_or("conn.ack_only_sent", ~0ULL),
            totals.ack_only_sent);
  EXPECT_EQ(snap.counter_or("conn.duplicates", ~0ULL), totals.duplicates);
  EXPECT_EQ(snap.counter_or("conn.held_out_of_order", ~0ULL),
            totals.held_out_of_order);
  // Every first transmission carries one frame.
  EXPECT_EQ(totals.data_sent, snap.counter_or("socket.frames_sent"));
}

// -------------------------------------------- determinism (acceptance) --

/// Everything the replay observability contract covers: the metrics
/// snapshot, the event list, and the rendered Chrome JSON the CI smoke
/// archives.
struct ObsFingerprint {
  obs::MetricsSnapshot snapshot;
  std::vector<obs::TraceEvent> events;
  std::string chrome_json;

  bool operator==(const ObsFingerprint&) const = default;
};

template <typename System>
ObsFingerprint obs_fingerprint_run(System& system,
                                   const std::vector<sim::Arrival>& arrivals) {
  ListSource source(arrivals);
  system.run(source);
  // Quiesced point: bridge the counters into the trace, then capture.
  system.observability().sample_counters(
      static_cast<double>(system.runner().current_slot()));
  ObsFingerprint fp;
  fp.snapshot = system.observability().snapshot();
  fp.events = system.observability().tracer()->events();
  fp.chrome_json = system.observability().tracer()->to_chrome_json();
  EXPECT_EQ(system.observability().tracer()->dropped_events(), 0u);
  return fp;
}

TEST(ObsDeterminism, SlidingOverLossyWireMatchesSerial) {
  // Sliding windows, sharded coordinator, a latency + jitter + loss +
  // batching wire, both instruments on. A second run at the same seed
  // must reproduce the snapshot and trace bit for bit.
  for (const std::uint64_t seed : kSeeds) {
    const auto arrivals =
        slotted_stream(kSites, /*slots=*/200, /*per_slot=*/5, 300, seed * 7);
    auto run_once = [&] {
      core::SlidingSystemConfig config;
      config.num_sites = kSites;
      config.window = 30;
      config.sample_size = 2;
      config.seed = seed;
      config.num_shards = 2;
      config.network.link.latency = 1.5;
      config.network.link.jitter = 0.75;
      config.network.link.drop_rate = 0.05;
      config.network.link.retransmit = true;
      config.network.batch_interval = 3;
      config.observability.metrics = true;
      config.observability.tracing = true;
      core::SlidingSystem system(config);
      return obs_fingerprint_run(system, arrivals);
    };
    const ObsFingerprint want = run_once();
    const ObsFingerprint got = run_once();
    EXPECT_GT(want.snapshot.counter_or("net.drops"), 0u)
        << "wire not lossy enough to prove anything";
    EXPECT_GT(want.events.size(), 0u);
    EXPECT_EQ(want, got);
  }
}

TEST(ObsDeterminism, InfiniteOverLatencyJitterWireMatchesSerial) {
  // Second protocol over the wire: infinite-window distinct sampling,
  // slot-per-arrival shape.
  for (const std::uint64_t seed : kSeeds) {
    const auto arrivals = infinite_stream(kSites, 4000, 900, seed * 13 + 2);
    auto run_once = [&] {
      core::SystemConfig config{kSites, 8, hash::HashKind::kMurmur2, seed};
      config.network.link.latency = 2.0;
      config.network.link.jitter = 1.0;
      config.network.link.drop_rate = 0.03;
      config.observability.metrics = true;
      config.observability.tracing = true;
      core::InfiniteSystem system(config);
      return obs_fingerprint_run(system, arrivals);
    };
    const ObsFingerprint want = run_once();
    const ObsFingerprint got = run_once();
    EXPECT_GT(want.snapshot.counter_or("net.wire.msgs"), 0u);
    EXPECT_EQ(want, got);
  }
}

TEST(ObsDeterminism, SnapshotsExportIdenticallyAcrossEngines) {
  // The rendered artifacts (what CI archives) match too, not just the
  // in-memory views: identical snapshots imply identical expositions.
  const auto arrivals = slotted_stream(kSites, 120, 4, 200, 9);
  auto exposition = [&] {
    core::SlidingSystemConfig config;
    config.num_sites = kSites;
    config.window = 20;
    config.sample_size = 2;
    config.seed = 11;
    config.network.link.latency = 1.25;
    config.network.link.drop_rate = 0.04;
    config.observability.metrics = true;
    core::SlidingSystem system(config);
    ListSource source(arrivals);
    system.run(source);
    const auto snap = system.observability().snapshot();
    return std::pair{obs::to_prometheus(snap), obs::to_json(snap)};
  };
  const auto [prom_first, json_first] = exposition();
  const auto [prom_second, json_second] = exposition();
  EXPECT_EQ(prom_first, prom_second);
  EXPECT_EQ(json_first, json_second);
  EXPECT_TRUE(obs::parse_prometheus(prom_first).has_value());
}

// ------------------------------------- sim::Series miss-path (satellite) --

TEST(SimSeries, StatAtThrowsAndFindStatReturnsNullOnMiss) {
  sim::Series series;
  series.add(1.0, 10.0);
  series.add(1.0, 20.0);

  ASSERT_NE(series.find_stat(1.0), nullptr);
  EXPECT_DOUBLE_EQ(series.find_stat(1.0)->mean(), 15.0);
  EXPECT_DOUBLE_EQ(series.stat_at(1.0).mean(), 15.0);

  EXPECT_EQ(series.find_stat(2.0), nullptr);
  EXPECT_THROW(series.stat_at(2.0), std::out_of_range);
  EXPECT_EQ(sim::Series{}.find_stat(0.0), nullptr);
}

TEST(SimSeries, RaggedBundleRendersDashesInsteadOfThrowing) {
  // Two series sampled at different x sets: to_table must render the
  // union of x values with "-" where a series has no sample.
  sim::SeriesBundle bundle("n");
  bundle.series("a").add(1.0, 5.0);
  bundle.series("a").add(2.0, 7.0);
  bundle.series("b").add(2.0, 9.0);  // no sample at x=1

  std::ostringstream os;
  bundle.to_table(/*with_ci=*/false).print(os, "ragged");
  const std::string rendered = os.str();
  EXPECT_NE(rendered.find("5"), std::string::npos);
  EXPECT_NE(rendered.find("9"), std::string::npos);
  EXPECT_NE(rendered.find("-"), std::string::npos);
}

}  // namespace
}  // namespace dds
