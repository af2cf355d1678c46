// The metrics substrate of the observability layer (docs/observability.md).
//
// Design: PULL, not push. Components keep counting in the plain integer
// cells they already own (BusCounters, NetStats, the engine's arrival
// counter, substrate migration counters, ...) and the registry holds *named
// references* to those cells — registering a metric never changes a hot
// path, and with observability disabled nothing is registered at all.
// Aggregation happens at snapshot() time: every registration under the
// same name is summed, so per-shard instances (one cell per coordinator
// shard) keep their own cells while the exported view is the deployment
// total.
//
// Three instrument kinds:
//   * counter — a monotonically increasing uint64 cell (or a callback);
//   * gauge   — a double-valued callback evaluated at snapshot time
//               (pool occupancy, queue depth, cache hit counts);
//   * histogram — log2-bucketed value distribution (latencies, sizes):
//               bucket b counts values v with bit_width(v) == b, i.e.
//               v in [2^(b-1), 2^b - 1], bucket 0 counting v == 0.
//
// Snapshots are deterministic: names are sorted, values are exact
// integer sums (gauges are doubles but every producer in this repo
// computes them from integer state), so two runs that perform the same
// logical work produce bit-identical snapshots — the property the
// observability determinism tests pin down.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace dds::obs {

/// Log2-bucketed histogram cell. Owned by the instrumented component
/// (like a counter cell) and registered by pointer; observe() is two
/// increments and an add, cheap enough for per-message paths.
struct Histogram {
  /// Bucket b holds values whose bit_width is b: bucket 0 is v == 0,
  /// bucket 64 is v >= 2^63.
  static constexpr std::size_t kBuckets = 65;

  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  void observe(std::uint64_t value) noexcept {
    ++buckets[static_cast<std::size_t>(std::bit_width(value))];
    ++count;
    sum += value;
  }
};

/// Aggregated histogram state inside a snapshot.
struct HistogramSnapshot {
  std::array<std::uint64_t, Histogram::kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  /// Inclusive upper bound of bucket b (the Prometheus `le` value);
  /// the last bucket is unbounded.
  static constexpr std::uint64_t upper_bound(std::size_t b) noexcept {
    return b >= 64 ? ~0ULL : (1ULL << b) - 1;
  }

  double mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  friend bool operator==(const HistogramSnapshot&,
                         const HistogramSnapshot&) = default;
};

/// One coherent, name-sorted view of every registered metric.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  std::uint64_t counter_or(std::string_view name,
                           std::uint64_t fallback = 0) const;
  double gauge_or(std::string_view name, double fallback = 0.0) const;

  bool empty() const noexcept {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  friend bool operator==(const MetricsSnapshot&,
                         const MetricsSnapshot&) = default;
};

/// Name -> cell-reference table. Components register at bind time (once,
/// off the hot path); snapshot() reads every cell and sums duplicates.
/// Registered pointers/callbacks must outlive the registry's last
/// snapshot — in practice the Deployment owns both the registry and
/// every registered component, and only snapshots while alive.
class MetricsRegistry {
 public:
  /// Registers a counter backed by `cell`. Multiple registrations under
  /// one name sum at snapshot (the per-shard aggregation path).
  void counter(std::string name, const std::uint64_t* cell);
  /// Counter whose value is computed at snapshot time.
  void counter_fn(std::string name, std::function<std::uint64_t()> fn);
  /// Gauge evaluated at snapshot time; duplicates sum.
  void gauge(std::string name, std::function<double()> fn);
  /// Histogram backed by `cell`; duplicates merge bucket-wise.
  void histogram(std::string name, const Histogram* cell);

  /// Number of registrations (all kinds).
  std::size_t size() const noexcept {
    return counters_.size() + counter_fns_.size() + gauges_.size() +
           histograms_.size();
  }

  MetricsSnapshot snapshot() const;

 private:
  std::vector<std::pair<std::string, const std::uint64_t*>> counters_;
  std::vector<std::pair<std::string, std::function<std::uint64_t()>>>
      counter_fns_;
  std::vector<std::pair<std::string, std::function<double()>>> gauges_;
  std::vector<std::pair<std::string, const Histogram*>> histograms_;
};

}  // namespace dds::obs
