// Distinct sampling WITH replacement (Chapter 3, "Sampling With
// Replacement"): run s parallel, independent copies of the
// single-element (s = 1) sampling algorithm, each with its own hash
// function from an indexed family. Copy j's traffic is tagged
// instance = j on the shared bus. Message cost is O(sk log d e) — close
// to the without-replacement cost O(ks log(de/s)) — and the union of a
// slightly larger with-replacement sample yields a without-replacement
// sample (the paper's reduction), so the lower bound covers both.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/infinite_coordinator.h"
#include "core/infinite_site.h"
#include "hash/hash_function.h"
#include "net/transport.h"
#include "sim/node.h"

namespace dds::core {

class WithReplacementSite final : public sim::StreamNode {
 public:
  WithReplacementSite(sim::NodeId id, sim::NodeId coordinator,
                      const hash::HashFamily& family, std::size_t sample_size);

  void on_element(stream::Element element, sim::Slot t, net::Transport& bus) override;
  void on_element_batch(std::span<const std::uint64_t> elements, sim::Slot t,
                        net::Transport& bus) override;
  void on_message(const sim::Message& msg, net::Transport& bus) override;
  std::size_t state_size() const noexcept override { return copies_.size(); }

 private:
  std::vector<InfiniteWindowSite> copies_;
  std::vector<std::uint64_t> hash_scratch_;  ///< copy-major, copies x batch
};

class WithReplacementCoordinator final : public sim::Node {
 public:
  WithReplacementCoordinator(sim::NodeId id, const hash::HashFamily& family,
                             std::size_t sample_size);

  void on_message(const sim::Message& msg, net::Transport& bus) override;
  std::size_t state_size() const noexcept override;

  /// The with-replacement sample: copy j's current element, for every
  /// copy that has observed at least one element. May contain repeats —
  /// that is the point of with-replacement sampling.
  std::vector<stream::Element> sample() const;

  /// Copy j's single-element sampler (shard-merge and tests read its
  /// sample entries, which carry the hash values).
  const InfiniteWindowCoordinator& copy(std::size_t j) const {
    return copies_[j];
  }
  std::size_t num_copies() const noexcept { return copies_.size(); }

 private:
  std::vector<InfiniteWindowCoordinator> copies_;
};

}  // namespace dds::core
