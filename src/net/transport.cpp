#include "net/transport.h"

#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/node.h"

namespace dds::net {

BusCounters BusCounters::operator-(const BusCounters& rhs) const noexcept {
  BusCounters out;
  out.total = total - rhs.total;
  out.site_to_coordinator = site_to_coordinator - rhs.site_to_coordinator;
  out.coordinator_to_site = coordinator_to_site - rhs.coordinator_to_site;
  out.bytes = bytes - rhs.bytes;
  for (std::size_t i = 0; i < by_type.size(); ++i) {
    out.by_type[i] = by_type[i] - rhs.by_type[i];
  }
  return out;
}

Transport::Transport(std::uint32_t num_sites, std::uint32_t num_coordinators)
    : num_sites_(num_sites),
      num_coordinators_(num_coordinators == 0 ? 1 : num_coordinators),
      nodes_(num_sites + num_coordinators_, nullptr),
      sent_by_(num_sites + num_coordinators_, 0),
      received_by_(num_sites + num_coordinators_, 0),
      per_coordinator_(num_coordinators_) {}

void Transport::attach(sim::NodeId id, sim::Node* node) {
  if (id >= nodes_.size()) {
    throw std::out_of_range("Transport::attach: node id out of range");
  }
  nodes_[id] = node;
}

void Transport::add_coordinator() {
  ++num_coordinators_;
  nodes_.push_back(nullptr);
  sent_by_.push_back(0);
  received_by_.push_back(0);
  per_coordinator_.emplace_back();
  register_shard_metrics();
  on_coordinators_resized();
}

void Transport::remove_last_coordinator() {
  if (num_coordinators_ < 2) {
    throw std::logic_error(
        "Transport::remove_last_coordinator: cannot remove the only shard");
  }
  --num_coordinators_;
  nodes_.pop_back();
  sent_by_.pop_back();
  received_by_.pop_back();
  per_coordinator_.pop_back();
  on_coordinators_resized();
}

void Transport::check_endpoints(const sim::Message& msg) const {
  if (msg.from >= nodes_.size() || msg.to >= nodes_.size()) {
    throw std::out_of_range("Transport::send: bad endpoint");
  }
}

void Transport::note_send(const sim::Message& msg) {
  ++sent_by_[msg.from];
  wire_.by_type[static_cast<std::size_t>(msg.type)] += 1;
  per_coordinator_[shard_of(msg)].by_type[static_cast<std::size_t>(msg.type)] +=
      1;
  if (tap_) tap_(msg);
}

void Transport::count_wire(const sim::Message& msg, std::uint64_t bytes) {
  const bool from_coordinator = is_coordinator(msg.from);
  wire_.add_transmission(from_coordinator, bytes);
  per_coordinator_[shard_of(msg)].add_transmission(from_coordinator, bytes);
}

const BusCounters& Transport::coordinator_counters(std::uint32_t shard) const {
  if (shard >= per_coordinator_.size()) {
    throw std::out_of_range("Transport::coordinator_counters");
  }
  return per_coordinator_[shard];
}

void Transport::deliver(const sim::Message& msg) {
  ++received_by_[msg.to];
  sim::Node* node = nodes_[msg.to];
  if (node == nullptr) {
    throw std::logic_error("Transport::deliver: message to unattached node");
  }
  if (tracer_ != nullptr) {
    tracer_->instant("net", sim::msg_type_name(msg.type), trace_time(),
                     msg.to,
                     {{"from", static_cast<double>(msg.from)},
                      {"instance", static_cast<double>(msg.instance)}});
  }
  node->on_message(msg, *this);
}

void Transport::bind_observability(obs::MetricsRegistry* registry,
                                   obs::Tracer* tracer) {
  tracer_ = tracer;
  if (registry == nullptr) return;
  registry->counter("net.wire.msgs", &wire_.total);
  registry->counter("net.wire.bytes", &wire_.bytes);
  registry->counter("net.wire.site_to_coordinator",
                    &wire_.site_to_coordinator);
  registry->counter("net.wire.coordinator_to_site",
                    &wire_.coordinator_to_site);
  for (std::size_t t = 0; t < sim::kNumMsgTypes; ++t) {
    registry->counter(
        std::string("proto.msgs.") +
            sim::msg_type_name(static_cast<sim::MsgType>(t)),
        &wire_.by_type[t]);
  }
  registry_ = registry;
  register_shard_metrics();
}

void Transport::register_shard_metrics() {
  if (registry_ == nullptr) return;
  // counter_fn closures, not cell pointers: per_coordinator_ resizes on
  // elastic topology changes, and a shard that later leaves must read 0
  // (its registration stays — the registry has no unregister), not a
  // dangling pointer.
  for (std::uint32_t j = shard_metrics_registered_; j < num_coordinators_;
       ++j) {
    const std::string prefix = "net.shard" + std::to_string(j);
    registry_->counter_fn(prefix + ".msgs", [this, j]() {
      return j < per_coordinator_.size() ? per_coordinator_[j].total : 0;
    });
    registry_->counter_fn(prefix + ".bytes", [this, j]() {
      return j < per_coordinator_.size() ? per_coordinator_[j].bytes : 0;
    });
  }
  if (num_coordinators_ > shard_metrics_registered_) {
    shard_metrics_registered_ = num_coordinators_;
  }
}

std::uint64_t Transport::sent_by(sim::NodeId id) const {
  if (id >= sent_by_.size()) throw std::out_of_range("Transport::sent_by");
  return sent_by_[id];
}

std::uint64_t Transport::received_by(sim::NodeId id) const {
  if (id >= received_by_.size()) {
    throw std::out_of_range("Transport::received_by");
  }
  return received_by_[id];
}

}  // namespace dds::net
