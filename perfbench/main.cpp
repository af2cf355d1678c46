// perfbench: one workload, one run.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Prints the metric table, then one `{"record": ...}` line (every metric
// with its unit and sample count, the seed and the input size; compare.py
// reads these), then the result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exits 1 when any checked answer disagrees with the reference.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\nworkloads:");
  for (const auto& name : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') return false;
  out = v;
  return true;
}

std::string json_metrics(const perfbench::RunResult& r, bool with_samples) {
  std::string out = "{";
  char buf[128];
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"";
    if (with_samples) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  std::uint64_t trace = 0;
  std::uint64_t seconds = 10;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const char* value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      ok = parse_u64(value, options.seed);
    } else if (flag == "--seconds") {
      ok = parse_u64(value, seconds) && seconds > 0;
    } else if (flag == "--trace") {
      ok = parse_u64(value, trace) && trace <= 1;
    } else {
      ok = false;
    }
    if (!ok) {
      usage();
      return 2;
    }
  }
  if (!have_workload) {
    usage();
    return 2;
  }
  options.seconds = static_cast<double>(seconds);
  options.trace = trace == 1;

  perfbench::RunResult r;
  try {
    r = perfbench::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    usage();
    return 2;
  }
  for (const auto& m : r.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   m.name.c_str());
      return 3;
    }
  }

  std::printf("workload %s  seed %llu  trace %d  input %llu arrivals / %llu "
              "slots  passes %llu untraced, %llu traced\n",
              r.workload.c_str(), static_cast<unsigned long long>(r.seed),
              r.trace ? 1 : 0, static_cast<unsigned long long>(r.input_arrivals),
              static_cast<unsigned long long>(r.input_slots),
              static_cast<unsigned long long>(r.passes),
              static_cast<unsigned long long>(r.traced_passes));
  for (const auto& m : r.metrics) {
    std::printf("  %-40s %16.6g %-11s n=%llu\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  std::printf("  %-40s %16.6g %-11s n=%llu\n", "failed_frac", r.failed_frac,
              "fraction", static_cast<unsigned long long>(r.attempted));
  const bool correct = r.failed == 0 && r.attempted > 0;
  std::printf(
      "{\"record\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"input_arrivals\": %llu, \"input_slots\": %llu, \"passes\": %llu, "
      "\"traced_passes\": %llu, \"attempted\": %llu, \"failed\": %llu, "
      "\"failed_frac\": %.17g, \"metrics\": %s}}\n",
      r.workload.c_str(), static_cast<unsigned long long>(r.seed),
      r.trace ? 1 : 0, static_cast<unsigned long long>(r.input_arrivals),
      static_cast<unsigned long long>(r.input_slots),
      static_cast<unsigned long long>(r.passes),
      static_cast<unsigned long long>(r.traced_passes),
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), r.failed_frac,
      json_metrics(r, true).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              json_metrics(r, false).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
