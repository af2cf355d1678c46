// The per-deployment observability bundle: one MetricsRegistry + one
// Tracer behind a pair of on/off switches (SystemConfig::observability).
//
// Both instruments are strictly opt-in. With everything off (the
// default) the deployment binds nothing: components keep their private
// counters exactly as before, no registry exists, and every tracing
// call site is a null-pointer check — the <2% overhead budget in
// bench/micro_substrates (BM_ObsOverhead) holds because the disabled
// path does no observability work at all.
#pragma once

#include <filesystem>
#include <memory>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace dds::obs {

/// Deployment-level observability switches (SystemConfig::observability).
struct ObservabilityConfig {
  /// Build a MetricsRegistry and bind every layer's counters/gauges/
  /// histograms to it (pull-based; hot paths unchanged).
  bool metrics = false;
  /// Build a Tracer and emit slot-timestamped events (transport
  /// deliveries, batch flushes, checkpoints) in Chrome
  /// trace-event JSON.
  bool tracing = false;
  /// Tracer event cap; past it events are dropped and counted.
  std::size_t trace_capacity = 1 << 20;

  bool enabled() const noexcept { return metrics || tracing; }
};

/// Owns the (optional) registry and tracer of one deployment and offers
/// the snapshot/export surface. Components receive nullable pointers:
/// nullptr simply means "that instrument is off".
class Observability {
 public:
  explicit Observability(const ObservabilityConfig& config);

  const ObservabilityConfig& config() const noexcept { return config_; }
  bool metrics_enabled() const noexcept { return registry_ != nullptr; }
  bool tracing_enabled() const noexcept { return tracer_ != nullptr; }

  /// nullptr when metrics are off.
  MetricsRegistry* registry() noexcept { return registry_.get(); }
  /// nullptr when tracing is off. Const-qualified but returns a mutable
  /// tracer: emitting an event is not an observable mutation of the
  /// deployment, and const paths (checkpointing a const deployment)
  /// legitimately leave trace marks.
  Tracer* tracer() const noexcept { return tracer_.get(); }

  /// Aggregated snapshot (empty when metrics are off).
  MetricsSnapshot snapshot() const;
  /// Prometheus text exposition of snapshot().
  std::string prometheus() const;
  /// Structured-JSON rendering of snapshot().
  std::string json() const;

  /// Writes the Chrome trace; no-op (returns false) when tracing is off.
  bool write_trace(const std::filesystem::path& path) const;

  /// Samples every counter and gauge of the current snapshot into the
  /// tracer as 'C' (counter) events at `slot` — the polled bridge from
  /// metrics to the trace timeline. Call between engine runs or at query
  /// time. No-op unless both instruments are on.
  void sample_counters(double slot);

 private:
  ObservabilityConfig config_;
  std::unique_ptr<MetricsRegistry> registry_;
  std::unique_ptr<Tracer> tracer_;
};

}  // namespace dds::obs
