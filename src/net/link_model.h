// Pluggable per-link wire models for net::SimNetwork.
//
// A LinkModel decides, per transmission attempt, whether the packet is
// lost and how long it spends in flight. Models draw randomness from the
// network's single seeded generator, so a run is reproducible from
// (arrival sequence, seed). Retransmission policy lives in SimNetwork —
// a model only reports the fate of one attempt.
#pragma once

#include <memory>

#include "net/config.h"
#include "sim/message.h"
#include "util/rng.h"

namespace dds::net {

/// Outcome of one transmission attempt.
struct LinkFate {
  bool dropped = false;
  double delay = 0.0;  ///< one-way flight time in slots (>= 0)
};

class LinkModel {
 public:
  virtual ~LinkModel() = default;
  virtual LinkFate transmit(const sim::Message& msg,
                            util::Xoshiro256StarStar& rng) = 0;
};

/// Constant one-way delay; never drops.
class FixedLatencyLink final : public LinkModel {
 public:
  explicit FixedLatencyLink(double latency) : latency_(latency) {}
  LinkFate transmit(const sim::Message& msg,
                    util::Xoshiro256StarStar& rng) override;

 private:
  double latency_;
};

/// Base latency + uniform jitter in [0, width].
class UniformJitterLink final : public LinkModel {
 public:
  UniformJitterLink(double latency, double width)
      : latency_(latency), width_(width) {}
  LinkFate transmit(const sim::Message& msg,
                    util::Xoshiro256StarStar& rng) override;

 private:
  double latency_;
  double width_;
};

/// Base latency + gaussian jitter (Box-Muller), clamped to >= 0 so time
/// never runs backwards.
class NormalJitterLink final : public LinkModel {
 public:
  NormalJitterLink(double latency, double stddev)
      : latency_(latency), stddev_(stddev) {}
  LinkFate transmit(const sim::Message& msg,
                    util::Xoshiro256StarStar& rng) override;

 private:
  double latency_;
  double stddev_;
};

/// Decorator: Bernoulli loss with probability `drop_rate` on top of an
/// inner delay model. A dropped attempt still reports the inner delay
/// (unused by the caller) so RNG consumption stays uniform across fates.
class DropLink final : public LinkModel {
 public:
  DropLink(double drop_rate, std::unique_ptr<LinkModel> inner)
      : drop_rate_(drop_rate), inner_(std::move(inner)) {}
  LinkFate transmit(const sim::Message& msg,
                    util::Xoshiro256StarStar& rng) override;

 private:
  double drop_rate_;
  std::unique_ptr<LinkModel> inner_;
};

/// Decorator: with probability `rate`, holds the packet back an extra
/// uniform [0, extra] slots, letting later packets overtake it.
class ReorderLink final : public LinkModel {
 public:
  ReorderLink(double rate, double extra, std::unique_ptr<LinkModel> inner)
      : rate_(rate), extra_(extra), inner_(std::move(inner)) {}
  LinkFate transmit(const sim::Message& msg,
                    util::Xoshiro256StarStar& rng) override;

 private:
  double rate_;
  double extra_;
  std::unique_ptr<LinkModel> inner_;
};

/// Builds the decorator chain a LinkConfig describes: fixed latency or
/// jittered latency, optionally wrapped in reorder and drop layers.
std::unique_ptr<LinkModel> make_link_model(const LinkConfig& config);

}  // namespace dds::net
