#include "baseline/drs.h"

namespace dds::baseline {

DrsSite::DrsSite(sim::NodeId id, sim::NodeId coordinator, std::uint64_t seed)
    : id_(id), coordinator_(coordinator), rng_(seed) {}

void DrsSite::on_element(stream::Element element, sim::Slot /*t*/,
                         net::Transport& bus) {
  // Fresh tag per OCCURRENCE — the defining difference from DDS, whose
  // "tag" is h(element) and therefore identical across repeats.
  const std::uint64_t tag = rng_.next();
  if (tag < u_local_) {
    sim::Message msg;
    msg.from = id_;
    msg.to = coordinator_;
    msg.type = sim::MsgType::kDrsReport;
    msg.a = element;
    msg.b = tag;
    bus.send(msg);
  }
}

void DrsSite::on_message(const sim::Message& msg, net::Transport& /*bus*/) {
  if (msg.type == sim::MsgType::kDrsReply) u_local_ = msg.b;
}

DrsCoordinator::DrsCoordinator(sim::NodeId id, std::size_t sample_size)
    : id_(id), capacity_(sample_size) {}

void DrsCoordinator::on_message(const sim::Message& msg, net::Transport& bus) {
  if (msg.type != sim::MsgType::kDrsReport) return;
  if (msg.b < u_) {
    by_tag_.emplace(msg.b, msg.a);
    if (by_tag_.size() > capacity_) {
      by_tag_.erase(std::prev(by_tag_.end()));
      u_ = std::prev(by_tag_.end())->first;
    }
  }
  sim::Message reply;
  reply.from = id_;
  reply.to = msg.from;
  reply.type = sim::MsgType::kDrsReply;
  reply.b = u_;
  bus.send(reply);
}

std::vector<stream::Element> DrsCoordinator::sample() const {
  std::vector<stream::Element> out;
  out.reserve(by_tag_.size());
  for (const auto& [tag, element] : by_tag_) out.push_back(element);
  return out;
}

}  // namespace dds::baseline
