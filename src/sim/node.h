// Node interfaces for the simulator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "sim/message.h"

namespace dds::net {
class Transport;
}  // namespace dds::net

namespace dds::sim {

/// Anything attached to a transport: protocol sites and coordinators.
class Node {
 public:
  virtual ~Node() = default;

  /// Handles a delivered message. May send further messages via `net`.
  virtual void on_message(const Message& msg, net::Transport& net) = 0;

  /// Number of stream-element records currently held (the paper's
  /// per-site "memory consumption", Figures 5.7 / 5.9). Constant-state
  /// nodes report their O(1) state size.
  virtual std::size_t state_size() const noexcept { return 0; }
};

/// A node that observes stream elements (a site).
class StreamNode : public Node {
 public:
  /// Called by the runner for every element delivered to this site in
  /// slot `t`. May send messages via `net`.
  virtual void on_element(std::uint64_t element, Slot t,
                          net::Transport& net) = 0;

  /// Batched delivery: every element of `elements` arrives at this site
  /// in slot `t`, in order. The contract is EXACT equivalence to
  /// element-at-a-time delivery with a transport drain after each
  /// element — the default does literally that. Overrides must keep the
  /// per-element drain boundary (so synchronous replies land before the
  /// next element is processed and wire traces stay bit-identical; a
  /// drain with nothing due is a no-op, so unconditional draining is
  /// free) but amortize hash dispatch, virtual calls, and memory
  /// latency (prefetch of element i+1's lines) across the batch.
  virtual void on_element_batch(std::span<const std::uint64_t> elements,
                                Slot t, net::Transport& net);

  /// Called once per slot before any arrivals of slot `t` are delivered
  /// (sliding-window sites run their expiry logic here). Default: no-op.
  virtual void on_slot_begin(Slot t, net::Transport& net) {
    (void)t;
    (void)net;
  }
};

}  // namespace dds::sim
