// Distributed random (frequency-weighted) sampling — the DRS contrast of
// Chapter 1's discussion.
//
// DRS samples uniformly from all n OCCURRENCES (so heavy elements are
// likelier), whereas DDS samples from the d distinct IDENTITIES. We
// implement DRS in the same min-tag style as the DDS protocol so the two
// are directly comparable: every arrival draws a FRESH random tag (not a
// hash of its identity); the coordinator keeps the elements bearing the
// s smallest tags; sites keep a lazy view of the s-th smallest tag.
//
// The key consequence the abl2 bench demonstrates: a repeated element
// re-arrives with a new tag, so duplicates still cost messages for DRS
// but never for DDS; conversely the probability of selection decays as
// s/n (occurrences) for DRS versus s/d (distinct) for DDS. Note this is
// the min-tag analogue, not the round-based protocol of Cormode et al.
// (2012) whose k log(n/s)/log(k/s) bound is lower for s << k; we state
// the distinction in DESIGN.md and compare growth shapes, not constants.
#pragma once

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "core/bottom_s_sample.h"
#include "net/transport.h"
#include "sim/node.h"
#include "stream/element.h"
#include "util/rng.h"

namespace dds::baseline {

class DrsSite final : public sim::StreamNode {
 public:
  DrsSite(sim::NodeId id, sim::NodeId coordinator, std::uint64_t seed);

  void on_element(stream::Element element, sim::Slot t, net::Transport& bus) override;
  void on_message(const sim::Message& msg, net::Transport& bus) override;
  std::size_t state_size() const noexcept override { return 1; }

 private:
  sim::NodeId id_;
  sim::NodeId coordinator_;
  util::Xoshiro256StarStar rng_;
  std::uint64_t u_local_ = ~0ULL;
};

class DrsCoordinator final : public sim::Node {
 public:
  DrsCoordinator(sim::NodeId id, std::size_t sample_size);

  void on_message(const sim::Message& msg, net::Transport& bus) override;
  std::size_t state_size() const noexcept override { return by_tag_.size(); }

  /// Uniform random sample of the multiset of occurrences; element
  /// values may repeat if the same element was sampled through two
  /// occurrences (that is with-replacement-like by design of DRS).
  std::vector<stream::Element> sample() const;
  std::size_t size() const noexcept { return by_tag_.size(); }
  std::uint64_t threshold() const noexcept { return u_; }

 private:
  sim::NodeId id_;
  std::size_t capacity_;
  /// (tag, element) pairs with the s smallest tags; tags are unique
  /// 64-bit randoms w.h.p., so a std::set suffices.
  std::set<std::pair<std::uint64_t, stream::Element>> by_tag_;
  std::uint64_t u_ = ~0ULL;
};

}  // namespace dds::baseline
