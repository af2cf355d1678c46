// The benchmark's workloads and the harness that measures them.
//
// A run generates its input from the seed (outside every timed region),
// computes the reference answers, then repeats "construct a deployment,
// ingest the whole input with queries at a fixed arrival cadence" for
// the requested number of seconds. Untraced runs (trace = false) report
// the end-to-end metrics; traced runs report the per-layer metrics (see
// README.md for both tables).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test hook: corrupt one captured answer per pass before it is
  /// checked, so the reference check must report a failure.
  bool perturb_answer = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

struct RunResult {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  std::uint64_t input_arrivals = 0;
  std::uint64_t input_slots = 0;
  std::uint64_t passes = 0;         ///< untraced passes
  std::uint64_t traced_passes = 0;  ///< traced passes (trace runs only)
  /// Answers checked against the reference, and how many disagreed.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// The end-to-end metrics (trace = false) or per-layer metrics
  /// (trace = true), in the order of end_to_end_names() /
  /// per_layer_names().
  std::vector<Metric> metrics;
  /// failed / attempted. Printed with the end-to-end table; not a
  /// BENCHMARK.json metric because it is 0 on every correct run.
  double failed_frac = 0.0;
  /// Digest of every captured answer of the first untraced pass and of
  /// the first traced pass (trace runs; equal when tracing does not
  /// change what the deployment answers).
  std::uint64_t untraced_digest = 0;
  std::uint64_t traced_digest = 0;
  /// Traced runs, for the self-test: the site and coordinator time left
  /// once the hash and substrate replays are taken out of it (per
  /// arrival; negative when the replays do more work than the sites), and
  /// the tuples per site the substrate replay holds against those the
  /// deployment's sites hold, both averaged over the slots.
  double protocol_ns_per_arrival = 0.0;
  double replay_site_tuples = 0.0;
  double site_state_tuples = 0.0;
};

std::vector<std::string> workload_names();
std::vector<std::string> end_to_end_names();
std::vector<std::string> per_layer_names();

/// Runs one workload. Throws std::invalid_argument on an unknown name.
RunResult run(const RunOptions& options);

}  // namespace perfbench
