// The transport abstraction every site<->coordinator message crosses.
//
// Extracted from sim::Bus so the deployment facades can swap the wire
// model without the protocols noticing: the zero-delay synchronous Bus
// (the paper's cost model) and the event-driven net::SimNetwork (latency,
// jitter, loss, batching) both implement this interface.
//
// The transport is also the audit point: every message is counted here
// (total, per type, per direction, per node), so the paper's cost metric
// — message count — is measured at the wire rather than tallied inside
// the algorithms. Counter semantics: `counters()` reports *wire-level*
// cost (a coalesced batch counts once; a retransmission counts again),
// which for the zero-delay Bus coincides with one count per send().
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/message.h"

namespace dds::sim {
class Node;
}  // namespace dds::sim

namespace dds::obs {
class MetricsRegistry;
class Tracer;
}  // namespace dds::obs

namespace dds::net {

/// Counter snapshot; subtraction gives per-interval deltas.
///
/// `total`, the direction counters, and `bytes` count wire-level
/// transmissions; `by_type` counts logical protocol messages (so a batch
/// carrying three reports bumps total once and by_type three times).
/// On the zero-delay Bus the two views are identical.
struct BusCounters {
  std::uint64_t total = 0;
  std::uint64_t site_to_coordinator = 0;
  std::uint64_t coordinator_to_site = 0;
  std::uint64_t bytes = 0;
  std::array<std::uint64_t, sim::kNumMsgTypes> by_type{};

  /// Counts one transmission of `bytes`; `from_coordinator` gives the
  /// direction (by_type is the caller's business — batch carriers count
  /// their entries there).
  void add_transmission(bool from_coordinator, std::uint64_t bytes) noexcept {
    ++total;
    this->bytes += bytes;
    if (from_coordinator) {
      ++coordinator_to_site;
    } else {
      ++site_to_coordinator;
    }
  }

  BusCounters operator-(const BusCounters& rhs) const noexcept;
};

/// Abstract wire. Owns the audit counters and the node attachment table;
/// concrete transports decide when (and whether) a sent message arrives.
class Transport {
 public:
  /// A transport for `num_sites` sites (ids 0..num_sites-1) plus
  /// `num_coordinators` coordinator shards (ids num_sites ..
  /// num_sites+num_coordinators-1). Nodes are attached afterwards. The
  /// single-coordinator deployment of the paper is num_coordinators = 1.
  explicit Transport(std::uint32_t num_sites,
                     std::uint32_t num_coordinators = 1);
  virtual ~Transport() = default;

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Node id of coordinator shard `shard`.
  sim::NodeId coordinator_id(std::uint32_t shard = 0) const noexcept {
    return num_sites_ + shard;
  }
  std::uint32_t num_sites() const noexcept { return num_sites_; }
  std::uint32_t num_coordinators() const noexcept { return num_coordinators_; }
  bool is_coordinator(sim::NodeId id) const noexcept {
    return id >= num_sites_ && id < num_sites_ + num_coordinators_;
  }

  /// Current slot, maintained by the Runner. The paper's model has all
  /// nodes time-synchronized (Chapter 2), so the coordinator may read
  /// the clock directly (Algorithm 4 tests "t* < t").
  void set_now(sim::Slot now) {
    now_ = now;
    on_clock_advance(now);
  }
  sim::Slot now() const noexcept { return now_; }

  /// Attaches the handler for node `id`. The transport does not own
  /// nodes. Passing nullptr detaches (messages delivered to a detached
  /// node throw — kill a shard by swapping in a sink, not a null).
  void attach(sim::NodeId id, sim::Node* node);

  // ---- elastic topology ----------------------------------------------

  /// Grows the coordinator table by one shard. Coordinators sit at the
  /// END of the node-id table (ids num_sites .. num_sites+N-1), so
  /// every existing id — site or coordinator — is unchanged; the new
  /// shard's id is coordinator_id(N) and its counters start at zero.
  /// Subclasses re-layout per-shard buffers in on_coordinators_resized().
  void add_coordinator();

  /// Shrinks the coordinator table by the LAST shard (throws
  /// std::logic_error when only one remains). The caller must have
  /// quiesced traffic to it first — flush_shard() + finish() — or its
  /// in-flight messages will fail endpoint checks.
  void remove_last_coordinator();

  /// Pushes any transport-internal buffering (batches) destined to
  /// coordinator shard `shard` onto the wire. No-op on unbuffered
  /// transports; SimNetwork overrides. Virtual here so topology code
  /// (Deployment::remove_shard, the Supervisor) can quiesce a shard
  /// through the abstract interface.
  virtual void flush_shard(std::uint32_t shard) { (void)shard; }

  /// Accepts a message for (eventual) delivery and counts it.
  virtual void send(const sim::Message& msg) = 0;

  /// Delivers every message due at the current time, including messages
  /// sent during delivery that are themselves immediately due.
  virtual void drain() = 0;

  /// Delivers everything still in flight (flushing batches and advancing
  /// virtual time past the last scheduled event). The Runner calls this
  /// once the arrival stream ends. Zero-delay transports have nothing in
  /// flight beyond the current drain.
  virtual void finish() { drain(); }

  /// True when nothing is buffered or in flight anywhere in the
  /// transport: no scheduled event, no batched report awaiting a flush,
  /// no unacknowledged socket data. This is the drain-at-finish
  /// contract: finish() must leave the transport quiescent, so that
  /// tearing it down (or exiting the process) cannot strand an
  /// end-of-stream message. Zero-delay transports are always quiescent
  /// between drains.
  virtual bool quiescent() const noexcept { return true; }

  /// Wire-level cost counters (see BusCounters for semantics).
  const BusCounters& counters() const noexcept { return wire_; }

  /// Wire-level counters restricted to the traffic of coordinator shard
  /// `shard` (every protocol message has exactly one coordinator
  /// endpoint, so the per-shard counters partition counters() exactly —
  /// the paper's cost metric stays exact under sharding).
  const BusCounters& coordinator_counters(std::uint32_t shard) const;

  /// Messages sent by node `id` (either direction counts at the sender).
  std::uint64_t sent_by(sim::NodeId id) const;
  /// Messages delivered to node `id`.
  std::uint64_t received_by(sim::NodeId id) const;

  /// Optional tap invoked for every logical send (determinism tests
  /// record traces through this).
  void set_tap(std::function<void(const sim::Message&)> tap) {
    tap_ = std::move(tap);
  }

  /// Registers the wire counters (net.wire.*, proto.msgs.*, per-shard
  /// net.shard<j>.*) with `registry` and stores `tracer` for delivery
  /// instants. Either pointer may be null ("that instrument is off");
  /// the registry only ever *reads* the counters at snapshot time, so
  /// this adds no hot-path cost. Subclasses extend with their own cells
  /// and must call the base.
  virtual void bind_observability(obs::MetricsRegistry* registry,
                                  obs::Tracer* tracer);

 protected:
  /// Hook invoked whenever the Runner advances the slot clock.
  virtual void on_clock_advance(sim::Slot now) { (void)now; }

  /// Hook invoked after add_coordinator / remove_last_coordinator has
  /// resized the tables — num_coordinators() already reports the new
  /// value. Subclasses re-layout per-shard state here.
  virtual void on_coordinators_resized() {}

  /// Validates endpoints; throws std::out_of_range like the legacy Bus.
  void check_endpoints(const sim::Message& msg) const;

  /// Sender-side bookkeeping for one logical send: sent_by, tap, and the
  /// per-type counter.
  void note_send(const sim::Message& msg);

  /// Counts one wire transmission of `bytes` on-wire size in msg's
  /// direction (`msg` may be a batch carrier; per-type counts are logical
  /// and happen in note_send).
  void count_wire(const sim::Message& msg, std::uint64_t bytes);

  /// Receiver-side bookkeeping + dispatch. Throws std::logic_error if the
  /// destination was never attached.
  void deliver(const sim::Message& msg);

  /// Timestamp (in slots) stamped onto trace events. The zero-delay Bus
  /// lives on the slot clock; SimNetwork overrides with its continuous
  /// virtual time.
  virtual double trace_time() const noexcept {
    return static_cast<double>(now_);
  }

  /// Index of msg's coordinator endpoint (its shard). Site<->site
  /// traffic does not exist in this model; a message with two
  /// coordinator endpoints is attributed to the sender.
  std::uint32_t shard_of(const sim::Message& msg) const noexcept {
    return is_coordinator(msg.from) ? msg.from - num_sites_
                                    : msg.to - num_sites_;
  }

  BusCounters wire_;
  /// Non-owning; null when tracing is off. Delivery instants are emitted
  /// in deliver(), in delivery order.
  obs::Tracer* tracer_ = nullptr;

 private:
  std::uint32_t num_sites_;
  std::uint32_t num_coordinators_;
  std::vector<sim::Node*> nodes_;
  std::vector<std::uint64_t> sent_by_;
  std::vector<std::uint64_t> received_by_;
  /// Indexed by shard. Grows/shrinks with the topology, so per-shard
  /// metrics are registered as counter_fn closures over (this, j) —
  /// never as raw pointers into this vector, which resizes.
  std::vector<BusCounters> per_coordinator_;
  /// Stored registry so shards added after bind_observability() get
  /// their net.shard<j>.* metrics registered too.
  obs::MetricsRegistry* registry_ = nullptr;
  std::uint32_t shard_metrics_registered_ = 0;
  std::function<void(const sim::Message&)> tap_;
  sim::Slot now_ = 0;

  void register_shard_metrics();
};

}  // namespace dds::net
