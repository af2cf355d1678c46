// Slot-timestamped tracing in Chrome trace-event form (the tracing half
// of the observability layer; docs/observability.md has the schema).
//
// Timestamps are VIRTUAL: a slot maps to 1000 "microseconds" of trace
// time (fractional slots — SimNetwork's event clock — map to fractional
// milliseconds), so a trace is a pure function of the run's logical
// execution, never of wall-clock scheduling. That is what lets the
// observability tests demand bit-identical traces from two runs with
// the same seed.
//
// Capacity is bounded: past `capacity` events the tracer drops (and
// counts) instead of growing without bound; dropped_events() makes the
// truncation visible rather than silent.
#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <string>
#include <vector>

namespace dds::obs {

/// One trace event. `phase` follows the Chrome trace-event format:
/// 'i' = instant, 'X' = complete (with duration), 'C' = counter sample.
struct TraceEvent {
  std::string cat;
  std::string name;
  char phase = 'i';
  double ts_us = 0.0;   ///< virtual time: slot * 1000
  double dur_us = 0.0;  ///< 'X' events only
  std::uint32_t tid = 0;  ///< logical lane: node id, shard, or 0
  /// Small argument list rendered into the event's "args" object.
  std::vector<std::pair<std::string, double>> args;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 1 << 20) : capacity_(capacity) {}

  /// Virtual-time scale: trace microseconds per slot.
  static constexpr double kUsPerSlot = 1000.0;

  void instant(std::string cat, std::string name, double slot,
               std::uint32_t tid,
               std::vector<std::pair<std::string, double>> args = {});
  /// A [slot_begin, slot_end] span.
  void complete(std::string cat, std::string name, double slot_begin,
                double slot_end, std::uint32_t tid,
                std::vector<std::pair<std::string, double>> args = {});
  /// A counter sample ('C'): chrome://tracing renders these as a value
  /// graph over time — the substrate/occupancy lanes use this.
  void counter(std::string cat, std::string name, double slot,
               double value);

  std::size_t size() const;
  std::uint64_t dropped_events() const;
  /// Copy of the event list (test introspection).
  std::vector<TraceEvent> events() const;

  /// Renders {"traceEvents": [...]} — loadable by chrome://tracing and
  /// Perfetto.
  void write_chrome_json(std::ostream& os) const;
  std::string to_chrome_json() const;
  void write_chrome_json_file(const std::filesystem::path& path) const;

 private:
  void emit(TraceEvent event);

  std::size_t capacity_;
  std::vector<TraceEvent> events_;
  std::uint64_t dropped_ = 0;
};

}  // namespace dds::obs
