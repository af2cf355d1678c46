#include "obs/metrics.h"

#include <utility>

namespace dds::obs {

std::uint64_t MetricsSnapshot::counter_or(std::string_view name,
                                          std::uint64_t fallback) const {
  auto it = counters.find(std::string(name));
  return it == counters.end() ? fallback : it->second;
}

double MetricsSnapshot::gauge_or(std::string_view name,
                                 double fallback) const {
  auto it = gauges.find(std::string(name));
  return it == gauges.end() ? fallback : it->second;
}

void MetricsRegistry::counter(std::string name, const std::uint64_t* cell) {
  counters_.emplace_back(std::move(name), cell);
}

void MetricsRegistry::counter_fn(std::string name,
                                 std::function<std::uint64_t()> fn) {
  counter_fns_.emplace_back(std::move(name), std::move(fn));
}

void MetricsRegistry::gauge(std::string name, std::function<double()> fn) {
  gauges_.emplace_back(std::move(name), std::move(fn));
}

void MetricsRegistry::histogram(std::string name, const Histogram* cell) {
  histograms_.emplace_back(std::move(name), cell);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  for (const auto& [name, cell] : counters_) {
    snap.counters[name] += *cell;
  }
  for (const auto& [name, fn] : counter_fns_) {
    snap.counters[name] += fn();
  }
  for (const auto& [name, fn] : gauges_) {
    snap.gauges[name] += fn();
  }
  for (const auto& [name, cell] : histograms_) {
    HistogramSnapshot& h = snap.histograms[name];
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      h.buckets[b] += cell->buckets[b];
    }
    h.count += cell->count;
    h.sum += cell->sum;
  }
  return snap;
}

}  // namespace dds::obs
