// Ship-everything baseline: every site forwards every arriving element
// to the coordinator, which runs the bottom-s sketch locally. Message
// cost is exactly n (one per arrival, no replies) — the naive ceiling
// that any distributed protocol must beat, and the reference point for
// "how much does the threshold protocol save". The coordinator's sample
// is exact at all times, so this also serves as a live oracle in
// integration tests.
#pragma once

#include <cstdint>

#include "core/bottom_s_sample.h"
#include "hash/hash_function.h"
#include "net/transport.h"
#include "sim/node.h"
#include "stream/element.h"

namespace dds::baseline {

class ForwardingSite final : public sim::StreamNode {
 public:
  ForwardingSite(sim::NodeId id, sim::NodeId coordinator,
                 hash::HashFunction hash_fn);

  void on_element(stream::Element element, sim::Slot t, net::Transport& bus) override;
  void on_message(const sim::Message& /*msg*/, net::Transport& /*bus*/) override {}

 private:
  sim::NodeId id_;
  sim::NodeId coordinator_;
  hash::HashFunction hash_fn_;
};

class CentralizedCoordinator final : public sim::Node {
 public:
  CentralizedCoordinator(sim::NodeId id, std::size_t sample_size);

  void on_message(const sim::Message& msg, net::Transport& bus) override;
  std::size_t state_size() const noexcept override { return sample_.size(); }

  const core::BottomSSample& sample() const noexcept { return sample_; }

 private:
  core::BottomSSample sample_;
};

}  // namespace dds::baseline
