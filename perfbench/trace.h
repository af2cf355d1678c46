// Span tracing from outside the library: forwarding wrappers around the
// sites, coordinators and transport of a deployment record one span per
// call into a layer, and a stack-based aggregator turns the spans into
// per-kind self times (span duration minus the spans it caused).
//
// Nothing under src/ knows about these spans. The traced run drives the
// deployment's own node objects through a benchmark-owned SerialEngine
// over a TracedTransport, so every arrival, delivery and send crosses one
// of the wrappers below.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <utility>
#include <vector>

#include "core/shard_router.h"
#include "net/transport.h"
#include "sim/node.h"

namespace perfbench {

/// What a span covers. per_layer() in workloads.cpp sums the kinds into
/// layers; kBench is the benchmark's own bookkeeping and counts as
/// unattributed.
enum class Span : std::uint8_t {
  kEngine,         ///< SerialEngine::run (sim)
  kSiteElement,    ///< StreamNode::on_element (site protocol)
  kSiteSlotBegin,  ///< StreamNode::on_slot_begin (site protocol)
  kSiteMessage,    ///< Node::on_message at a site (site protocol)
  kRouter,         ///< ShardCache::owner / ShardRouter::owner (core)
  kCoordinator,    ///< Node::on_message at a coordinator
  kNetSend,        ///< Transport::send
  kNetDrain,       ///< Transport::drain
  kNetFinish,      ///< Transport::finish
  kQueryMerge,     ///< the workload's sample(now) calls
  kBench,          ///< answer capture and state sampling
  kCount,
};

inline constexpr std::size_t kNumSpans = static_cast<std::size_t>(Span::kCount);

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Aggregates nested spans into per-kind inclusive and self time.
///
/// Reading the clock costs tens of ns, more than many of the calls it
/// wraps (a zero-delay bus drain, a cached route lookup), so raw self
/// times of those would mostly measure the tracer. calibrate() measures
/// that cost: `inside_ns` is what an empty
/// span reads, `total_ns` what one empty span adds to its parent. Each
/// span's inclusive time is corrected by its own `inside_ns` and by
/// `total_ns` per descendant; the removed time, `total_ns` per span, is
/// summed in overhead_ns(). Work much cheaper than a span (a few ns) is
/// within the calibration's error and can read slightly negative.
class SpanTracer {
 public:
  struct Totals {
    double self_ns = 0.0;
    double inclusive_ns = 0.0;
    std::uint64_t count = 0;
  };

  void calibrate();

  void begin(Span span) noexcept {
    if (depth_ == stack_.size()) std::abort();  // deeper than any protocol nests
    Frame& f = stack_[depth_++];
    f.span = span;
    f.child_inclusive_ns = 0.0;
    f.descendants = 0;
    f.start = now_ns();
  }

  void end() noexcept {
    const std::int64_t stop = now_ns();
    const Frame& f = stack_[--depth_];
    const double inclusive = static_cast<double>(stop - f.start) - inside_ns_ -
                             static_cast<double>(f.descendants) * total_ns_;
    Totals& t = totals_[static_cast<std::size_t>(f.span)];
    t.self_ns += inclusive - f.child_inclusive_ns;
    t.inclusive_ns += inclusive;
    ++t.count;
    overhead_ns_ += total_ns_;
    if (depth_ > 0) {
      Frame& parent = stack_[depth_ - 1];
      parent.child_inclusive_ns += inclusive;
      parent.descendants += 1 + f.descendants;
    }
  }

  const Totals& totals(Span span) const noexcept {
    return totals_[static_cast<std::size_t>(span)];
  }
  /// Span cost removed from the totals so far.
  double overhead_ns() const noexcept { return overhead_ns_; }
  double total_ns() const noexcept { return total_ns_; }

 private:
  struct Frame {
    std::int64_t start = 0;
    double child_inclusive_ns = 0.0;
    std::uint64_t descendants = 0;
    Span span = Span::kEngine;
  };
  // Deepest nesting: engine > site > send > (bus) > coordinator > send.
  std::array<Frame, 32> stack_{};
  std::size_t depth_ = 0;
  std::array<Totals, kNumSpans> totals_{};
  double inside_ns_ = 0.0;
  double total_ns_ = 0.0;
  double overhead_ns_ = 0.0;
};

/// RAII span; does nothing when `tracer` is null (untraced passes run
/// the same query code).
class Scope {
 public:
  Scope(SpanTracer* tracer, Span span) noexcept : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(span);
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanTracer* tracer_;
};

/// Forwards send, drain, finish (each inside a net span) and the slot
/// clock to the deployment's transport. The engine, the traced sites and
/// the traced coordinators all send through this object, so every send
/// is seen.
class TracedTransport final : public dds::net::Transport {
 public:
  TracedTransport(dds::net::Transport& inner, SpanTracer& tracer)
      : Transport(inner.num_sites(), inner.num_coordinators()),
        inner_(inner),
        tracer_(tracer) {}

  void send(const dds::sim::Message& msg) override {
    Scope s(&tracer_, Span::kNetSend);
    inner_.send(msg);
  }
  void drain() override {
    Scope s(&tracer_, Span::kNetDrain);
    inner_.drain();
  }
  void finish() override {
    Scope s(&tracer_, Span::kNetFinish);
    inner_.finish();
  }

 protected:
  void on_clock_advance(dds::sim::Slot now) override { inner_.set_now(now); }

 private:
  dds::net::Transport& inner_;
  SpanTracer& tracer_;
};

/// A coordinator re-attached to the deployment's transport: deliveries
/// run in a coordinator span, and its replies go out through the
/// TracedTransport.
class TracedCoordinator final : public dds::sim::Node {
 public:
  TracedCoordinator(dds::sim::Node& inner, TracedTransport& net,
                    SpanTracer& tracer)
      : inner_(inner), net_(net), tracer_(tracer) {}

  void on_message(const dds::sim::Message& msg,
                  dds::net::Transport& /*bus*/) override {
    Scope s(&tracer_, Span::kCoordinator);
    inner_.on_message(msg, net_);
  }
  std::size_t state_size() const noexcept override {
    return inner_.state_size();
  }

 private:
  dds::sim::Node& inner_;
  TracedTransport& net_;
  SpanTracer& tracer_;
};

/// A site as the traced engine sees it: one protocol site per coordinator
/// shard (the deployment's own objects), routed by element through a
/// ShardCache exactly as core::RoutedSite routes, with each call in a
/// span.
template <typename Site>
class TracedSite final : public dds::sim::StreamNode {
 public:
  TracedSite(std::vector<Site*> copies, const dds::core::ShardRouter* router,
             dds::sim::NodeId first_coordinator, TracedTransport& net,
             SpanTracer& tracer)
      : copies_(std::move(copies)),
        router_(router),
        first_coordinator_(first_coordinator),
        net_(net),
        tracer_(tracer) {}

  void on_element(std::uint64_t element, dds::sim::Slot t,
                  dds::net::Transport& /*bus*/) override {
    std::size_t copy = 0;
    if (router_ != nullptr) {
      Scope r(&tracer_, Span::kRouter);
      copy = cache_.owner(*router_, element);
    }
    Scope s(&tracer_, Span::kSiteElement);
    copies_[copy]->on_element(element, t, net_);
  }
  void on_slot_begin(dds::sim::Slot t, dds::net::Transport& /*bus*/) override {
    Scope s(&tracer_, Span::kSiteSlotBegin);
    for (Site* copy : copies_) copy->on_slot_begin(t, net_);
  }
  void on_message(const dds::sim::Message& msg,
                  dds::net::Transport& /*bus*/) override {
    Scope s(&tracer_, Span::kSiteMessage);
    const std::size_t copy =
        router_ != nullptr ? msg.from - first_coordinator_ : 0;
    copies_[copy]->on_message(msg, net_);
  }
  std::size_t state_size() const noexcept override {
    std::size_t total = 0;
    for (const Site* copy : copies_) total += copy->state_size();
    return total;
  }

  const dds::core::ShardCache& route_cache() const noexcept { return cache_; }

 private:
  std::vector<Site*> copies_;
  const dds::core::ShardRouter* router_;
  dds::sim::NodeId first_coordinator_;
  TracedTransport& net_;
  SpanTracer& tracer_;
  dds::core::ShardCache cache_;
};

}  // namespace perfbench
