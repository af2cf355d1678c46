#include "obs/observability.h"

#include "obs/export.h"

namespace dds::obs {

Observability::Observability(const ObservabilityConfig& config)
    : config_(config) {
  if (config_.metrics) registry_ = std::make_unique<MetricsRegistry>();
  if (config_.tracing) {
    tracer_ = std::make_unique<Tracer>(config_.trace_capacity);
  }
}

MetricsSnapshot Observability::snapshot() const {
  return registry_ ? registry_->snapshot() : MetricsSnapshot{};
}

std::string Observability::prometheus() const {
  return to_prometheus(snapshot());
}

std::string Observability::json() const { return to_json(snapshot()); }

bool Observability::write_trace(const std::filesystem::path& path) const {
  if (!tracer_) return false;
  tracer_->write_chrome_json_file(path);
  return true;
}

void Observability::sample_counters(double slot) {
  if (!registry_ || !tracer_) return;
  const MetricsSnapshot snap = registry_->snapshot();
  for (const auto& [name, value] : snap.counters) {
    tracer_->counter("metrics", name, slot, static_cast<double>(value));
  }
  for (const auto& [name, value] : snap.gauges) {
    tracer_->counter("metrics", name, slot, value);
  }
}

}  // namespace dds::obs
