// Reusable ArrivalSource adapters.
//
// Every test and bench that drives a deployment needs the same two
// shapes: "replay this fixed arrival list" and "replay one slot's
// arrivals" (the drive pattern of query-at-every-slot suites, which
// run one slot, query, run the next). They live here once instead of
// as per-file copies.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "sim/serial_engine.h"

namespace dds::sim {

/// Replays a fixed arrival sequence (owned; single-pass like every
/// ArrivalSource — construct a fresh one per run).
class ListSource final : public ArrivalSource {
 public:
  explicit ListSource(std::vector<Arrival> arrivals)
      : arrivals_(std::move(arrivals)) {}

  std::optional<Arrival> next() override {
    if (pos_ >= arrivals_.size()) return std::nullopt;
    return arrivals_[pos_++];
  }

 private:
  std::vector<Arrival> arrivals_;
  std::size_t pos_ = 0;
};

/// Replays one slot's arrivals, given as (site, element) pairs. Holds a
/// reference — the pair list must outlive the source (it always does in
/// the run-one-slot-then-query loop this serves).
class SlotSource final : public ArrivalSource {
 public:
  SlotSource(Slot slot,
             const std::vector<std::pair<NodeId, std::uint64_t>>& arrivals)
      : slot_(slot), arrivals_(arrivals) {}

  std::optional<Arrival> next() override {
    if (pos_ >= arrivals_.size()) return std::nullopt;
    const auto& [site, element] = arrivals_[pos_++];
    return Arrival{slot_, site, element};
  }

 private:
  Slot slot_;
  const std::vector<std::pair<NodeId, std::uint64_t>>& arrivals_;
  std::size_t pos_ = 0;
};

/// Replays a span of elements, all arriving at one site in one slot —
/// the adapter behind Deployment::update_batch. Holds a view; the span
/// must outlive the source (it does: the source lives only for the
/// run_batched call).
class SpanSource final : public ArrivalSource {
 public:
  SpanSource(Slot slot, NodeId site, std::span<const std::uint64_t> elements)
      : slot_(slot), site_(site), elements_(elements) {}

  std::optional<Arrival> next() override {
    if (pos_ >= elements_.size()) return std::nullopt;
    return Arrival{slot_, site_, elements_[pos_++]};
  }

 private:
  Slot slot_;
  NodeId site_;
  std::span<const std::uint64_t> elements_;
  std::size_t pos_ = 0;
};

}  // namespace dds::sim
