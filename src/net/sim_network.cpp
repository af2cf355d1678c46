#include "net/sim_network.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/trace.h"

namespace dds::net {

namespace {

constexpr std::uint64_t link_key(sim::NodeId from, sim::NodeId to) noexcept {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}

}  // namespace

SimNetwork::SimNetwork(std::uint32_t num_sites, const NetworkConfig& config,
                       std::uint32_t num_coordinators)
    : Transport(num_sites, num_coordinators),
      config_(config),
      rng_(util::derive_seed(config.seed, 0x4E455453ULL)),  // "NETS"
      default_link_(make_link_model(config.link)),
      batcher_(num_sites, num_coordinators, config.batch_interval,
               config.batch_max_msgs) {}

void SimNetwork::set_link_model(sim::NodeId from, sim::NodeId to,
                                std::unique_ptr<LinkModel> model) {
  link_overrides_[link_key(from, to)] = std::move(model);
}

void SimNetwork::clear_link_model(sim::NodeId from, sim::NodeId to) {
  link_overrides_.erase(link_key(from, to));
}

void SimNetwork::flush_shard(std::uint32_t shard) {
  if (config_.batch_interval > 0) flush_batches(batcher_.take_for_shard(shard));
}

void SimNetwork::on_coordinators_resized() {
  flush_batches(batcher_.rebind(num_coordinators()));
}

LinkModel& SimNetwork::link_for(sim::NodeId from, sim::NodeId to) {
  auto it = link_overrides_.find(link_key(from, to));
  return it == link_overrides_.end() ? *default_link_ : *it->second;
}

void SimNetwork::send(const sim::Message& msg) {
  check_endpoints(msg);
  note_send(msg);
  logical_.add_transmission(is_coordinator(msg.from),
                            sim::Message::wire_bytes());
  logical_.by_type[static_cast<std::size_t>(msg.type)] += 1;

  const bool batchable = config_.batch_interval > 0 &&
                         !is_coordinator(msg.from) && is_coordinator(msg.to);
  if (batchable) {
    net_stats_.batched_messages += 1;
    if (batcher_.add(msg, now())) {
      // Size-triggered flush: the batch leaves immediately.
      Batch full = batcher_.take_for(msg);
      net_stats_.batches_flushed += 1;
      if (tracer_ != nullptr) {
        tracer_->instant("net", "batch.flush", vtime_, full.msgs.front().to,
                         {{"msgs", static_cast<double>(full.msgs.size())},
                          {"size_triggered", 1.0}});
      }
      transmit(WireUnit{std::move(full.msgs), true}, vtime_, 1);
    }
    return;
  }
  transmit(WireUnit{{msg}, false}, vtime_, 1);
}

void SimNetwork::transmit(WireUnit unit, double at, int attempt) {
  const sim::Message& head = unit.msgs.front();
  const LinkFate fate = link_for(head.from, head.to).transmit(head, rng_);
  count_wire(head, batch_wire_bytes(unit.msgs.size()));
  net_stats_.transmissions += 1;
  if (metrics_bound_) {
    batch_size_hist_.observe(unit.msgs.size());
  }
  if (fate.dropped) {
    net_stats_.drops += 1;
    const bool retry =
        config_.link.retransmit && attempt < config_.link.max_attempts;
    if (tracer_ != nullptr) {
      tracer_->instant("net", retry ? "drop.retransmit" : "drop.lost", at,
                       head.to,
                       {{"from", static_cast<double>(head.from)},
                        {"msgs", static_cast<double>(unit.msgs.size())},
                        {"attempt", static_cast<double>(attempt)}});
    }
    if (retry) {
      net_stats_.retransmissions += 1;
      schedule(at + config_.link.retransmit_timeout, EventKind::kTransmit,
               std::move(unit), attempt + 1);
    } else {
      net_stats_.lost_messages += unit.msgs.size();
    }
    return;
  }
  if (metrics_bound_) {
    flight_us_hist_.observe(
        static_cast<std::uint64_t>(fate.delay * obs::Tracer::kUsPerSlot));
  }
  schedule(at + fate.delay, EventKind::kDeliver, std::move(unit), attempt);
}

void SimNetwork::schedule(double time, EventKind kind, WireUnit unit,
                          int attempt) {
  queue_.push(Event{time, next_seq_++, kind, attempt, std::move(unit)});
}

void SimNetwork::deliver_unit(const WireUnit& unit) {
  for (const sim::Message& msg : unit.msgs) deliver(msg);
}

void SimNetwork::flush_batches(std::vector<Batch> batches) {
  for (Batch& batch : batches) {
    net_stats_.batches_flushed += 1;
    if (tracer_ != nullptr) {
      tracer_->instant("net", "batch.flush", vtime_, batch.msgs.front().to,
                       {{"msgs", static_cast<double>(batch.msgs.size())},
                        {"size_triggered", 0.0}});
    }
    transmit(WireUnit{std::move(batch.msgs), true}, vtime_, 1);
  }
}

void SimNetwork::on_clock_advance(sim::Slot now_slot) {
  vtime_ = std::max(vtime_, static_cast<double>(now_slot));
  if (config_.batch_interval > 0) {
    flush_batches(batcher_.take_due(now_slot));
  }
}

void SimNetwork::run_due(double horizon) {
  if (draining_) return;  // re-entrant drain: outer loop finishes the queue
  draining_ = true;
  try {
    while (!queue_.empty() && queue_.top().time <= horizon) {
      // Standard move-out-of-priority_queue idiom: top() is const only
      // to protect the heap order, which pop() discards anyway.
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      vtime_ = std::max(vtime_, ev.time);
      if (ev.kind == EventKind::kTransmit) {
        transmit(std::move(ev.unit), ev.time, ev.attempt);
      } else {
        deliver_unit(ev.unit);
      }
    }
  } catch (...) {
    draining_ = false;
    throw;
  }
  draining_ = false;
}

void SimNetwork::drain() { run_due(static_cast<double>(now())); }

void SimNetwork::bind_observability(obs::MetricsRegistry* registry,
                                    obs::Tracer* tracer) {
  Transport::bind_observability(registry, tracer);
  if (registry == nullptr) return;
  registry->counter("net.transmissions", &net_stats_.transmissions);
  registry->counter("net.drops", &net_stats_.drops);
  registry->counter("net.retransmissions", &net_stats_.retransmissions);
  registry->counter("net.lost_messages", &net_stats_.lost_messages);
  registry->counter("net.batches_flushed", &net_stats_.batches_flushed);
  registry->counter("net.batched_messages", &net_stats_.batched_messages);
  registry->counter_fn("net.stranded_messages",
                       [this] { return batcher_.stranded(); });
  registry->counter("net.logical.msgs", &logical_.total);
  registry->counter("net.logical.bytes", &logical_.bytes);
  registry->gauge("net.in_flight", [this] {
    return static_cast<double>(queue_.size());
  });
  registry->histogram("net.batch.msgs", &batch_size_hist_);
  registry->histogram("net.flight.us", &flight_us_hist_);
  metrics_bound_ = true;
}

void SimNetwork::finish() {
  // Deliveries may send fresh batchable messages, so alternate flushing
  // and running the queue until both are empty.
  for (;;) {
    if (config_.batch_interval > 0) flush_batches(batcher_.take_all());
    if (queue_.empty()) break;
    run_due(std::numeric_limits<double>::infinity());
  }
}

}  // namespace dds::net
