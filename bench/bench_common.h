// Shared scaffolding for the per-figure bench binaries.
//
// Every binary reproduces one table or figure of the paper's Chapter 5:
// it sweeps the paper's parameters, averages over independent runs
// (paper: 50; default here: 5, --runs to change), prints the series as a
// Markdown table, and mirrors it to CSV under bench_results/.
//
// Quick mode (the default) uses scaled-down synthetic traces so the
// whole harness runs in minutes on a laptop; --full uses paper-scale
// streams.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>

#include "core/system.h"
#include "baseline/baseline_system.h"
#include "sim/metrics.h"
#include "stream/generators.h"
#include "stream/partitioner.h"
#include "stream/trace_synth.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace dds::bench {

struct CommonArgs {
  bool full = false;
  /// Figure benches default to the duplicate-suppression variant, which
  /// realizes the paper's Lemma-2 accounting ("repeated occurrences are
  /// free") exactly; the faithful-pseudocode behaviour re-reports
  /// current sample members on every re-arrival, adding a noisy
  /// O(sum_t s/d(t)) term that the A6 ablation quantifies. Set
  /// --faithful-duplicates to reproduce the raw pseudocode instead.
  bool suppress_duplicates = true;
  std::uint64_t runs = 5;
  std::uint64_t seed = 1;
  std::string outdir = "bench_results";
  /// Mirror every emitted table to <outdir>/<name>.json as well as CSV,
  /// so CI can archive a machine-readable perf trajectory.
  bool json = false;
  hash::HashKind hash_kind = hash::HashKind::kMurmur2;
  /// Coordinator shards for every facade this header builds: >1
  /// consistent-hashes the coordinator.
  std::uint32_t num_shards = 1;

  /// Stream scale for a dataset: paper scale under --full, otherwise a
  /// quick default that preserves heavy duplication (OC48 1/50, Enron
  /// 1/4 — chosen so each single run stays under ~1M arrivals).
  double scale(stream::Dataset dataset) const {
    if (full) return 1.0;
    return dataset == stream::Dataset::kOc48 ? 0.02 : 0.25;
  }
};

/// Registers the shared flags on a Cli.
inline void register_common(util::Cli& cli) {
  cli.boolean("full", "run at paper scale (slow)");
  cli.boolean("faithful-duplicates",
              "use the raw pseudocode (sample-member repeats re-report) "
              "instead of the Lemma-2-faithful duplicate suppression");
  cli.flag("runs", "independent runs per data point", "5");
  cli.flag("seed", "master seed", "1");
  cli.flag("outdir", "CSV output directory", "bench_results");
  cli.boolean("json", "also write each table as <outdir>/<name>.json");
  cli.flag("hash", "hash function: murmur2|murmur3|splitmix|tabulation",
           "murmur2");
  cli.flag("shards", "coordinator shards (consistent hashing when > 1)", "1");
}

inline CommonArgs read_common(const util::Cli& cli) {
  CommonArgs args;
  args.full = cli.get_bool("full");
  args.suppress_duplicates = !cli.get_bool("faithful-duplicates");
  args.runs = cli.get_uint("runs");
  args.seed = cli.get_uint("seed");
  args.outdir = cli.get("outdir");
  args.json = cli.get_bool("json");
  args.hash_kind = hash::parse_hash_kind(cli.get("hash"));
  args.num_shards = static_cast<std::uint32_t>(cli.get_uint("shards"));
  return args;
}

/// Prints a table and writes its CSV twin (plus a JSON twin under
/// --json, for the machine-read perf trajectory).
inline void emit(const util::Table& table, const std::string& title,
                 const std::string& csv_name, const CommonArgs& args) {
  table.print(std::cout, title);
  table.write_csv(std::filesystem::path(args.outdir) / csv_name);
  std::cout << "(csv: " << args.outdir << "/" << csv_name << ")\n";
  if (args.json) {
    std::filesystem::path json_name(csv_name);
    json_name.replace_extension(".json");
    table.write_json(std::filesystem::path(args.outdir) / json_name);
    std::cout << "(json: " << args.outdir << "/" << json_name.string()
              << ")\n";
  }
}

/// Seed for run r of sweep point p — decorrelated across everything.
inline std::uint64_t run_seed(const CommonArgs& args, std::uint64_t point,
                              std::uint64_t run) {
  return util::derive_seed(util::derive_seed(args.seed, point), run);
}

/// One infinite-window run: returns total messages.
inline std::uint64_t run_infinite_once(
    std::uint32_t sites, std::size_t sample_size,
    stream::Distribution distribution, stream::Dataset dataset,
    const CommonArgs& args, std::uint64_t seed, double dominate_rate = 1.0) {
  core::SystemConfig config{sites, sample_size, args.hash_kind, seed};
  config.num_shards = args.num_shards;
  core::InfiniteSystem system(config, /*eager_threshold=*/false,
                              args.suppress_duplicates);
  auto input = stream::make_trace(dataset, args.scale(dataset), seed + 1);
  auto source = stream::make_partitioner(distribution, *input, sites, seed + 2,
                                         dominate_rate);
  system.run(*source);
  return system.bus().counters().total;
}

/// One Broadcast-baseline run: returns total messages.
inline std::uint64_t run_broadcast_once(
    std::uint32_t sites, std::size_t sample_size,
    stream::Distribution distribution, stream::Dataset dataset,
    const CommonArgs& args, std::uint64_t seed, double dominate_rate = 1.0) {
  core::SystemConfig config{sites, sample_size, args.hash_kind, seed};
  // Broadcast fans replies out to every site, so it has no element
  // partition to shard over: the sharding knob is inert here.
  baseline::BroadcastSystem system(config, args.suppress_duplicates);
  auto input = stream::make_trace(dataset, args.scale(dataset), seed + 1);
  auto source = stream::make_partitioner(distribution, *input, sites, seed + 2,
                                         dominate_rate);
  system.run(*source);
  return system.bus().counters().total;
}

/// Cumulative-messages time series: records bus totals at `points`
/// equally spaced checkpoints along the stream into `series`. The x axis
/// is LOGICAL stream position (elements observed); under flooding each
/// element produces `arrivals_per_element` = k arrivals, so pass k there
/// to keep x comparable across distribution methods.
template <typename System>
void run_with_series(System& system, sim::ArrivalSource& source,
                     std::uint64_t stream_length, int points,
                     sim::Series& series,
                     std::uint64_t arrivals_per_element = 1) {
  const std::uint64_t total_arrivals = stream_length * arrivals_per_element;
  const std::uint64_t every = std::max<std::uint64_t>(
      1, total_arrivals / static_cast<std::uint64_t>(points));
  // Snap checkpoints to multiples of the logical stride so rows line up
  // across distribution methods despite integer-division rounding.
  const double xstep = std::max<double>(
      1.0, static_cast<double>(stream_length) / static_cast<double>(points));
  system.runner().set_observer(
      every,
      [&system, &series, arrivals_per_element, xstep](const sim::Progress& p) {
        if (!p.final_snapshot) {
          const double logical = static_cast<double>(p.elements_processed) /
                                 static_cast<double>(arrivals_per_element);
          series.add(std::round(logical / xstep) * xstep,
                     static_cast<double>(system.bus().counters().total));
        }
      });
  system.run(source);
}

/// One sliding-window run over Section 5.3's input construction
/// (`per_slot` elements per slot to uniformly random sites). Memory is
/// sampled once per slot.
struct SlidingRunStats {
  std::uint64_t messages = 0;
  double mean_per_site_memory = 0.0;  ///< time-avg of (sum |T_i|) / k
  double max_per_site_memory = 0.0;   ///< max over slots of max_i |T_i|
  std::uint64_t slots = 0;
};

inline SlidingRunStats run_sliding_once(std::uint32_t sites, sim::Slot window,
                                        stream::Dataset dataset,
                                        const CommonArgs& args,
                                        std::uint64_t seed,
                                        std::uint32_t per_slot = 5) {
  core::SlidingSystemConfig config;
  config.num_sites = sites;
  config.window = window;
  config.sample_size = 1;
  config.hash_kind = args.hash_kind;
  config.seed = seed;
  core::SlidingSystem system(config);
  auto input = stream::make_trace(dataset, args.scale(dataset), seed + 1);
  stream::SlottedFeeder source(*input, sites, per_slot, seed + 2);

  util::RunningStat mean_mem;
  double max_mem = 0.0;
  system.runner().set_observer(
      per_slot, [&](const sim::Progress& p) {
        if (p.final_snapshot) return;
        mean_mem.add(static_cast<double>(system.total_site_state()) /
                     static_cast<double>(sites));
        max_mem = std::max(
            max_mem, static_cast<double>(system.max_site_state()));
      });
  system.run(source);

  SlidingRunStats stats;
  stats.messages = system.bus().counters().total;
  stats.mean_per_site_memory = mean_mem.mean();
  stats.max_per_site_memory = max_mem;
  stats.slots = static_cast<std::uint64_t>(system.runner().current_slot()) + 1;
  return stats;
}

/// Standard banner.
inline void banner(const std::string& what, const CommonArgs& args) {
  std::cout << "== " << what << " ==\n"
            << "mode: " << (args.full ? "FULL (paper scale)" : "quick")
            << (args.suppress_duplicates ? "" : ", faithful-duplicates")
            << ", runs/point: " << args.runs << ", hash: "
            << hash::to_string(args.hash_kind) << ", seed: " << args.seed
            << "\n";
}

}  // namespace dds::bench
