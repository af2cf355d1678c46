#include "sim/serial_engine.h"

#include <stdexcept>
#include <utility>

#include "obs/metrics.h"

namespace dds::sim {

SerialEngine::SerialEngine(net::Transport& net, std::vector<StreamNode*> sites,
                           bool invoke_slot_begin)
    : net_(net), sites_(std::move(sites)),
      invoke_slot_begin_(invoke_slot_begin) {
  if (sites_.size() != net_.num_sites()) {
    throw std::invalid_argument(
        "SerialEngine: site count mismatch with transport");
  }
}

void SerialEngine::set_observer(
    std::uint64_t observe_every,
    std::function<void(const Progress&)> observer) {
  observe_every_ = observe_every;
  observer_ = std::move(observer);
}

void SerialEngine::bind_observability(obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  registry->counter("engine.arrivals", &processed_);
  registry->gauge("engine.slot",
                  [this] { return static_cast<double>(current_slot_); });
}

void SerialEngine::begin_slots_through(Slot slot) {
  if (!invoke_slot_begin_) {
    current_slot_ = slot;
    net_.set_now(current_slot_);
    // In-flight traffic due by this slot lands before the next arrival.
    net_.drain();
    return;
  }
  while (current_slot_ < slot) {
    ++current_slot_;
    net_.set_now(current_slot_);
    // Traffic due at the slot boundary is delivered before any site runs
    // its expiry logic for the slot (a no-op on the zero-delay Bus,
    // whose queue is always empty here).
    net_.drain();
    for (auto* site : sites_) {
      site->on_slot_begin(current_slot_, net_);
      net_.drain();
    }
  }
}

void SerialEngine::validate(const Arrival& arrival) const {
  if (arrival.slot < current_slot_) {
    throw std::invalid_argument("SerialEngine: arrivals must be slot-ordered");
  }
  if (arrival.site >= sites_.size()) {
    throw std::out_of_range("SerialEngine: arrival for unknown site");
  }
}

std::uint64_t SerialEngine::run(ArrivalSource& source) {
  while (auto arrival = source.next()) {
    validate(*arrival);
    begin_slots_through(arrival->slot);
    sites_[arrival->site]->on_element(arrival->element, arrival->slot, net_);
    net_.drain();
    ++processed_;
    if (observe_every_ != 0 && processed_ % observe_every_ == 0) {
      observe(/*final_snapshot=*/false);
    }
  }
  // Let delayed / batched traffic land before the final snapshot (a
  // plain drain on the zero-delay Bus).
  net_.finish();
  observe(/*final_snapshot=*/true);
  return processed_;
}

std::uint64_t SerialEngine::run_batched(ArrivalSource& source,
                                        std::size_t max_batch) {
  if (max_batch <= 1) return run(source);
  batch_.reserve(max_batch);
  std::optional<Arrival> pending = source.next();
  while (pending) {
    validate(*pending);
    begin_slots_through(pending->slot);
    const Slot slot = pending->slot;
    const NodeId site = pending->site;
    batch_.clear();
    batch_.push_back(pending->element);
    pending = source.next();
    while (pending && batch_.size() < max_batch && pending->slot == slot &&
           pending->site == site) {
      validate(*pending);
      batch_.push_back(pending->element);
      pending = source.next();
    }
    sites_[site]->on_element_batch(
        std::span<const std::uint64_t>(batch_.data(), batch_.size()), slot,
        net_);
    const std::uint64_t before = processed_;
    processed_ += batch_.size();
    // The batch hook drains after every element, so the transport is
    // already quiescent. Observe at most once per batch, when a multiple
    // of observe_every was crossed inside it.
    if (observe_every_ != 0 &&
        processed_ / observe_every_ != before / observe_every_) {
      observe(/*final_snapshot=*/false);
    }
  }
  net_.finish();
  observe(/*final_snapshot=*/true);
  return processed_;
}

}  // namespace dds::sim
