// Event-driven network simulator.
//
// Generalizes the zero-delay sim::Bus: every transmission is scheduled
// on a priority queue keyed by delivery time (ties broken by send order,
// so a zero-delay configuration reproduces the Bus's FIFO semantics
// bit-for-bit). Per-link LinkModels decide flight time and loss;
// dropped transmissions optionally retransmit after a timeout; outbound
// site->coordinator reports can be coalesced by a Batcher.
//
// Time: the Runner advances the integer slot clock (set_now); the
// network keeps a fractional virtual clock that tracks the slot clock
// and the timestamps of processed events, so cascaded replies are sent
// at the moment their trigger arrived. drain() delivers everything due
// at the current slot; finish() runs the queue dry at end of stream.
//
// Determinism: all randomness (jitter, loss, reordering) comes from one
// generator seeded by NetworkConfig::seed, so a run is a pure function
// of (arrival sequence, protocol seeds, network seed).
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "net/batcher.h"
#include "net/config.h"
#include "net/link_model.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace dds::net {

/// Wire-level pathology and batching statistics (beyond BusCounters).
struct NetStats {
  std::uint64_t transmissions = 0;     ///< wire units put on a link
  std::uint64_t drops = 0;             ///< transmissions lost in flight
  std::uint64_t retransmissions = 0;   ///< retries scheduled after a drop
  std::uint64_t lost_messages = 0;     ///< logical msgs abandoned for good
  std::uint64_t batches_flushed = 0;   ///< batcher flushes (any size)
  std::uint64_t batched_messages = 0;  ///< logical msgs that rode a batch
};

class SimNetwork final : public Transport {
 public:
  SimNetwork(std::uint32_t num_sites, const NetworkConfig& config,
             std::uint32_t num_coordinators = 1);

  void send(const sim::Message& msg) override;
  void drain() override;
  void finish() override;

  /// Overrides the wire model of the directed link from -> to. Links
  /// without an override use the model NetworkConfig::link describes.
  /// Retransmission policy (timeout, attempt cap) stays global.
  void set_link_model(sim::NodeId from, sim::NodeId to,
                      std::unique_ptr<LinkModel> model);

  /// Removes the from -> to override, restoring the default link — the
  /// partition-heal path of the chaos layer (set a lossy override to
  /// partition, clear it to heal).
  void clear_link_model(sim::NodeId from, sim::NodeId to);

  /// Force-flushes every pending batch destined to coordinator shard
  /// `shard` onto its link, regardless of deadline — the per-shard
  /// flush hook for query staleness control: flushed reports reach the
  /// coordinator one link flight later, so the NEXT slot's answer
  /// reflects them instead of waiting out the batch deadline
  /// (examples/sharded_sliding_lossy.cpp shows the pattern). This is
  /// an explicit opt-in: Deployment queries never touch the wire, so
  /// nothing flushes automatically — the batching-staleness trade
  /// stays visible in abl10/abl12 rather than being silently papered
  /// over at query time.
  void flush_shard(std::uint32_t shard) override;

  /// Batched messages discarded because their destination shard was
  /// removed before they flushed (see Batcher::stranded(); 0 under a
  /// correct quiesce-then-remove sequence).
  std::uint64_t stranded_messages() const noexcept {
    return batcher_.stranded();
  }

  /// Protocol-level counters: one count per send(), regardless of
  /// batching or retransmission. counters() is the wire-level view;
  /// (logical - wire) is the batching saving, (wire - logical) the
  /// retransmission overhead.
  const BusCounters& logical_counters() const noexcept { return logical_; }

  const NetStats& stats() const noexcept { return net_stats_; }

  const NetworkConfig& config() const noexcept { return config_; }

  /// Fractional virtual clock (== slot clock unless finish() ran past
  /// it or events carried fractional delays).
  double virtual_time() const noexcept { return vtime_; }

  /// Scheduled wire units not yet delivered (in flight or awaiting
  /// retransmission); excludes batched messages still buffering.
  std::size_t in_flight() const noexcept { return queue_.size(); }

  /// Event queue empty AND batcher empty — what finish() guarantees.
  bool quiescent() const noexcept override {
    return queue_.empty() && batcher_.buffered_total() == 0;
  }

  /// Base registrations plus the NetStats cells (net.drops, ...), the
  /// logical counters (net.logical.*), an in-flight gauge, and wire
  /// pathology histograms (batch sizes, flight times in trace us).
  void bind_observability(obs::MetricsRegistry* registry,
                          obs::Tracer* tracer) override;

 protected:
  void on_clock_advance(sim::Slot now) override;

  /// Re-layouts the batcher's per-(site, shard) buffers and immediately
  /// flushes every batch whose destination survived the resize, so no
  /// buffered report is silently dropped by a topology change.
  void on_coordinators_resized() override;

  /// Trace events ride the fractional event clock, not the slot clock.
  double trace_time() const noexcept override { return vtime_; }

 private:
  /// One wire unit: a single message or a coalesced batch.
  struct WireUnit {
    std::vector<sim::Message> msgs;  // non-empty; in send order
    bool batched = false;
  };

  enum class EventKind : std::uint8_t { kTransmit, kDeliver };

  struct Event {
    double time = 0.0;
    std::uint64_t seq = 0;  // FIFO tie-break at equal times
    EventKind kind = EventKind::kDeliver;
    int attempt = 1;
    WireUnit unit;
  };

  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void schedule(double time, EventKind kind, WireUnit unit, int attempt);
  /// Puts a wire unit on its link at time `at`: rolls the link model,
  /// counts the attempt, and schedules delivery or a retry.
  void transmit(WireUnit unit, double at, int attempt);
  void deliver_unit(const WireUnit& unit);
  void flush_batches(std::vector<Batch> batches);
  void run_due(double horizon);
  LinkModel& link_for(sim::NodeId from, sim::NodeId to);

  NetworkConfig config_;
  util::Xoshiro256StarStar rng_;
  std::unique_ptr<LinkModel> default_link_;
  std::unordered_map<std::uint64_t, std::unique_ptr<LinkModel>> link_overrides_;
  Batcher batcher_;
  std::priority_queue<Event, std::vector<Event>, EventAfter> queue_;
  std::uint64_t next_seq_ = 0;
  double vtime_ = 0.0;
  bool draining_ = false;
  BusCounters logical_;
  NetStats net_stats_;
  /// True once a registry holds references into the histograms below;
  /// the hot paths only observe() when set, so disabled observability
  /// costs a single predictable branch per transmission.
  bool metrics_bound_ = false;
  obs::Histogram batch_size_hist_;  ///< logical msgs per wire unit
  obs::Histogram flight_us_hist_;   ///< delivery delay, trace us
};

}  // namespace dds::net
