#include "obs/trace.h"

#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace dds::obs {

namespace {

/// JSON string escaping for the small, controlled name/category/key set
/// (quotes, backslashes, control characters).
void write_escaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xF]
             << "0123456789abcdef"[c & 0xF];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

/// Doubles in trace output: integers print exactly (counter values,
/// slot-aligned timestamps), the rest with enough digits to round-trip.
void write_number(std::ostream& os, double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    os << static_cast<long long>(v);
  } else {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os << buf;
  }
}

}  // namespace

void Tracer::emit(TraceEvent event) {
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(event));
}

void Tracer::instant(std::string cat, std::string name, double slot,
                     std::uint32_t tid,
                     std::vector<std::pair<std::string, double>> args) {
  emit(TraceEvent{std::move(cat), std::move(name), 'i', slot * kUsPerSlot,
                  0.0, tid, std::move(args)});
}

void Tracer::complete(std::string cat, std::string name, double slot_begin,
                      double slot_end, std::uint32_t tid,
                      std::vector<std::pair<std::string, double>> args) {
  emit(TraceEvent{std::move(cat), std::move(name), 'X',
                  slot_begin * kUsPerSlot,
                  (slot_end - slot_begin) * kUsPerSlot, tid,
                  std::move(args)});
}

void Tracer::counter(std::string cat, std::string name, double slot,
                     double value) {
  emit(TraceEvent{std::move(cat), std::move(name), 'C', slot * kUsPerSlot,
                  0.0, 0, {{"value", value}}});
}

std::size_t Tracer::size() const {
  return events_.size();
}

std::uint64_t Tracer::dropped_events() const {
  return dropped_;
}

std::vector<TraceEvent> Tracer::events() const {
  return events_;
}

void Tracer::write_chrome_json(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events_) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"cat\":";
    write_escaped(os, e.cat);
    os << ",\"name\":";
    write_escaped(os, e.name);
    os << ",\"ph\":\"" << e.phase << "\",\"pid\":1,\"tid\":" << e.tid
       << ",\"ts\":";
    write_number(os, e.ts_us);
    if (e.phase == 'X') {
      os << ",\"dur\":";
      write_number(os, e.dur_us);
    }
    // Instants render scoped to their thread lane.
    if (e.phase == 'i') os << ",\"s\":\"t\"";
    if (!e.args.empty()) {
      os << ",\"args\":{";
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        if (i > 0) os << ",";
        write_escaped(os, e.args[i].first);
        os << ":";
        write_number(os, e.args[i].second);
      }
      os << "}";
    }
    os << "}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

std::string Tracer::to_chrome_json() const {
  std::ostringstream os;
  write_chrome_json(os);
  return os.str();
}

void Tracer::write_chrome_json_file(const std::filesystem::path& path) const {
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("Tracer: cannot open " + path.string());
  }
  write_chrome_json(os);
}

}  // namespace dds::obs
