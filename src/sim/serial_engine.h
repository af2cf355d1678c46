// The execution engine: how an arrival stream is driven through a
// deployed protocol (sites + coordinator(s) on a transport).
//
// SerialEngine is the paper's synchronous model, verbatim: one arrival
// at a time on the calling thread, the transport drained to quiescence
// after every event. It owns the slot clock, per-slot expiry callbacks,
// arrival validation, and the progress observer. Message counters,
// samples and traces are a pure function of the seeds and the arrival
// sequence, so two runs with the same inputs are bit-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "net/transport.h"
#include "sim/node.h"

namespace dds::obs {
class MetricsRegistry;
}  // namespace dds::obs

namespace dds::sim {

/// One stream observation: element `element` arrives at site `site`
/// during slot `slot`. A single slot may carry any number of arrivals
/// (including several at the same site), matching Chapter 4's model.
struct Arrival {
  Slot slot = 0;
  NodeId site = 0;
  std::uint64_t element = 0;
};

/// Lazily produced arrival sequence (non-decreasing in slot). Sources are
/// single-pass; experiments construct a fresh source per run.
class ArrivalSource {
 public:
  virtual ~ArrivalSource() = default;
  /// Next arrival, or nullopt at end of stream.
  virtual std::optional<Arrival> next() = 0;
};

/// Progress snapshot handed to the observer callback.
struct Progress {
  std::uint64_t elements_processed = 0;
  Slot slot = 0;
  bool final_snapshot = false;
};

/// Drives an arrival stream through a deployed protocol.
class SerialEngine {
 public:
  /// `sites[i]` handles arrivals for site id i. If `invoke_slot_begin` is
  /// set, every site receives on_slot_begin for every slot in order (the
  /// sliding-window protocols need this for expiry processing); leave it
  /// off for infinite-window runs where slots carry no semantics.
  SerialEngine(net::Transport& net, std::vector<StreamNode*> sites,
               bool invoke_slot_begin);

  SerialEngine(const SerialEngine&) = delete;
  SerialEngine& operator=(const SerialEngine&) = delete;

  /// Observer invoked every `observe_every` arrivals and once at the end
  /// (with final_snapshot=true). observe_every == 0 disables periodic
  /// observation. The transport is quiescent whenever it runs.
  void set_observer(std::uint64_t observe_every,
                    std::function<void(const Progress&)> observer);

  /// Runs the whole source, then lets the transport finish in-flight
  /// deliveries. Returns the number of arrivals processed.
  std::uint64_t run(ArrivalSource& source);

  /// Batched variant of run(): groups up to `max_batch` consecutive
  /// arrivals that share a (slot, site) and delivers each group through
  /// StreamNode::on_element_batch. Bit-identical to run() — the batch
  /// hook's contract keeps the per-element drain boundary — but
  /// amortizes dispatch, hashing, and memory latency. `max_batch` <= 1
  /// is plain run(). Progress observers fire at batch boundaries: at
  /// most one observation per batch, when a multiple of observe_every
  /// is crossed inside it.
  std::uint64_t run_batched(ArrivalSource& source, std::size_t max_batch);

  /// Advances slot processing through `slot` without arrivals (used to
  /// let sliding windows expire after the stream ends).
  void advance_to_slot(Slot slot) { begin_slots_through(slot); }

  Slot current_slot() const noexcept { return current_slot_; }

  /// Registers engine metrics with `registry` (engine.arrivals,
  /// engine.slot). A null registry registers nothing.
  void bind_observability(obs::MetricsRegistry* registry);

 private:
  /// Advances the slot clock (and per-slot expiry callbacks) through
  /// `slot`, delivering due transport traffic.
  void begin_slots_through(Slot slot);

  /// Throws on slot-order or site-id violations.
  void validate(const Arrival& arrival) const;

  void observe(bool final_snapshot) {
    if (observer_) {
      observer_(Progress{processed_, current_slot_, final_snapshot});
    }
  }

  net::Transport& net_;
  std::vector<StreamNode*> sites_;
  bool invoke_slot_begin_;
  Slot current_slot_ = -1;
  std::uint64_t processed_ = 0;
  std::uint64_t observe_every_ = 0;
  std::function<void(const Progress&)> observer_;
  std::vector<std::uint64_t> batch_;  ///< gather buffer, reused across runs
};

}  // namespace dds::sim
