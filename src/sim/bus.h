// The zero-delay synchronous message bus.
//
// The default net::Transport implementation: delivery is queued FIFO and
// drained to quiescence after every external event, which models the
// paper's zero-delay synchronous network while keeping ordering
// deterministic and call stacks shallow. All counting (the paper's cost
// metric is message count) lives in the Transport base, measured at the
// transport layer rather than tallied inside the algorithms. For
// realistic wires (latency, jitter, loss, batching) see
// net::SimNetwork.
#pragma once

#include <deque>

#include "net/transport.h"
#include "sim/message.h"
#include "sim/node.h"

namespace dds::sim {

/// The counters kept their historical home in this namespace; the struct
/// itself moved to the transport layer.
using BusCounters = net::BusCounters;

class Bus final : public net::Transport {
 public:
  /// Creates a bus for `num_sites` sites (ids 0..num_sites-1) plus
  /// `num_coordinators` coordinator shards (ids from num_sites up).
  /// Nodes are attached afterwards.
  explicit Bus(std::uint32_t num_sites, std::uint32_t num_coordinators = 1)
      : Transport(num_sites, num_coordinators) {}

  /// Queues a message for immediate delivery and counts it.
  void send(const Message& msg) override;

  /// Delivers queued messages (FIFO) until the queue is empty. Messages
  /// sent during delivery are processed in the same drain.
  void drain() override;

 private:
  std::deque<Message> queue_;
  bool draining_ = false;
};

}  // namespace dds::sim
