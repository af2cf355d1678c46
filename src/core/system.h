// Deployment facades for the paper's protocols — each is the templated
// core::Deployment builder instantiated with a small Traits struct that
// names the protocol's node types and constructor recipe. Examples,
// tests, and every bench binary build on these instead of repeating the
// plumbing. SystemConfig (including the num_shards scale knob) lives
// in core/deployment.h.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/bottom_s_sample.h"
#include "core/deployment.h"
#include "core/infinite_coordinator.h"
#include "core/infinite_site.h"
#include "core/multi_sliding.h"
#include "core/with_replacement.h"
#include "hash/hash_function.h"
#include "net/config.h"
#include "net/transport.h"
#include "query/merge.h"
#include "sim/runner.h"

namespace dds::core {

/// Algorithms 1 & 2 (infinite window, sampling without replacement).
struct InfiniteTraits {
  using Site = InfiniteWindowSite;
  using Coordinator = InfiniteWindowCoordinator;
  /// `eager_threshold` forwards to InfiniteWindowCoordinator;
  /// `suppress_duplicates` to InfiniteWindowSite.
  struct Options {
    bool eager_threshold = false;
    bool suppress_duplicates = false;
  };
  struct Shared {
    hash::HashFunction hash_fn;
  };
  static constexpr bool kInvokeSlotBegin = false;
  static constexpr bool kShardableCoordinator = true;

  static Shared make_shared(const SystemConfig& config) {
    return Shared{
        hash::HashFunction(config.hash_kind,
                           util::derive_seed(config.seed, 0xA5))};
  }
  static std::unique_ptr<Coordinator> make_coordinator(
      sim::NodeId id, std::uint32_t /*shard*/, const SystemConfig& config,
      const Shared& /*shared*/, const Options& options) {
    return std::make_unique<Coordinator>(id, config.sample_size,
                                         /*instance=*/0,
                                         options.eager_threshold);
  }
  static std::unique_ptr<Site> make_site(sim::NodeId id,
                                         sim::NodeId coordinator,
                                         const SystemConfig& /*config*/,
                                         const Shared& shared,
                                         const Options& options) {
    return std::make_unique<Site>(id, coordinator, shared.hash_fn,
                                  /*instance=*/0, options.suppress_duplicates);
  }
  /// Exact global bottom-s: each shard's sample is the bottom-s of its
  /// element partition, so the bottom-s of their union is the bottom-s
  /// of everything (query::BottomSMerger).
  static BottomSSample merge_samples(
      const std::vector<std::unique_ptr<Coordinator>>& coordinators,
      const SystemConfig& config) {
    query::BottomSMerger merger(config.sample_size);
    for (const auto& coordinator : coordinators) {
      merger.add(coordinator->sample());
    }
    return merger.result();
  }
};

/// Chapter 3's with-replacement sampler (s parallel s=1 copies).
struct WithReplacementTraits {
  using Site = WithReplacementSite;
  using Coordinator = WithReplacementCoordinator;
  struct Options {};
  struct Shared {
    hash::HashFamily family;
  };
  static constexpr bool kInvokeSlotBegin = false;
  static constexpr bool kShardableCoordinator = true;

  static Shared make_shared(const SystemConfig& config) {
    return Shared{hash::HashFamily(config.hash_kind,
                                   util::derive_seed(config.seed, 0xB6))};
  }
  static std::unique_ptr<Coordinator> make_coordinator(
      sim::NodeId id, std::uint32_t /*shard*/, const SystemConfig& config,
      const Shared& shared, const Options& /*options*/) {
    return std::make_unique<Coordinator>(id, shared.family,
                                         config.sample_size);
  }
  static std::unique_ptr<Site> make_site(sim::NodeId id,
                                         sim::NodeId coordinator,
                                         const SystemConfig& config,
                                         const Shared& shared,
                                         const Options& /*options*/) {
    return std::make_unique<Site>(id, coordinator, shared.family,
                                  config.sample_size);
  }
  /// Copy j's global sample element is the min-hash element of copy j
  /// across shards (each shard holds the min over its own partition;
  /// query::PerCopyMinMerger).
  static std::vector<stream::Element> merge_samples(
      const std::vector<std::unique_ptr<Coordinator>>& coordinators,
      const SystemConfig& config) {
    query::PerCopyMinMerger merger(config.sample_size);
    for (const auto& coordinator : coordinators) {
      for (std::size_t j = 0; j < config.sample_size; ++j) {
        const auto entries = coordinator->copy(j).sample().entries();
        if (!entries.empty()) {
          merger.offer(j, entries.front().element, entries.front().hash);
        }
      }
    }
    return merger.elements();
  }
};

/// Algorithms 3 & 4 (sliding window; sample_size independent copies,
/// sample_size = 1 being the paper's base protocol).
struct SlidingTraits {
  using Site = MultiSlidingSite;
  using Coordinator = MultiSlidingCoordinator;
  struct Options {};
  struct Shared {
    hash::HashFamily family;
  };
  static constexpr bool kInvokeSlotBegin = true;
  /// Sharded coordinator: shard j runs the unmodified lazy protocol
  /// over its element partition (per-shard site copies carry their own
  /// candidate sets and expiry); queries merge per copy through the
  /// validity-window-aware merger. Note the lazy protocol's documented
  /// transient (sliding_coordinator.h) applies per shard: each shard's
  /// answer is a valid element of its partition's window but may lag
  /// the partition minimum briefly after an expiry, so the merged
  /// answer carries the same guarantee per copy — exact whenever every
  /// shard is in its exact regime (always for k = 1, and in the common
  /// case otherwise; tests/sliding_shard_test.cpp quantifies it). The
  /// bottom-s window protocols (baseline_system.h) shard with full
  /// per-slot exactness.
  static constexpr bool kShardableCoordinator = true;

  static Shared make_shared(const SystemConfig& config) {
    return Shared{hash::HashFamily(config.hash_kind,
                                   util::derive_seed(config.seed, 0xC7))};
  }
  static std::unique_ptr<Coordinator> make_coordinator(
      sim::NodeId id, std::uint32_t /*shard*/, const SystemConfig& config,
      const Shared& /*shared*/, const Options& /*options*/) {
    return std::make_unique<Coordinator>(id, config.sample_size);
  }
  static std::unique_ptr<Site> make_site(sim::NodeId id,
                                         sim::NodeId coordinator,
                                         const SystemConfig& config,
                                         const Shared& shared,
                                         const Options& /*options*/) {
    return std::make_unique<Site>(
        id, coordinator, config.window, shared.family, config.sample_size,
        util::derive_seed(config.seed, 0xD800ULL + id), config.substrate);
  }
  /// Validity-aware per-copy merge at slot `now`: copy j's answer is
  /// the smallest copy-j hash among the shards' still-valid samples —
  /// each copy respects its own expiry independently. Same shape as
  /// MultiSlidingCoordinator::sample(now).
  static std::vector<stream::Element> merge_samples_at(
      const std::vector<std::unique_ptr<Coordinator>>& coordinators,
      const SystemConfig& config, sim::Slot now) {
    std::vector<stream::Element> out;
    out.reserve(config.sample_size);
    for (std::size_t j = 0; j < config.sample_size; ++j) {
      query::SlidingValidityMerger merger(/*sample_size=*/1, now);
      for (const auto& coordinator : coordinators) {
        merger.offer(coordinator->copy(j).sample(now));
      }
      if (const auto best = merger.min_hash()) out.push_back(best->element);
    }
    return out;
  }
};

using InfiniteSystem = Deployment<InfiniteTraits>;
using WithReplacementSystem = Deployment<WithReplacementTraits>;
using SlidingSystem = Deployment<SlidingTraits>;

}  // namespace dds::core
