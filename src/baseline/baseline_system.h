// Deployment facades for the baseline protocols — the same templated
// core::Deployment builder as core/system.h, instantiated with baseline
// traits, so benches can swap algorithms behind one shape.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "baseline/broadcast.h"
#include "baseline/centralized.h"
#include "baseline/drs.h"
#include "baseline/fullsync_bottom_s.h"
#include "baseline/sliding_fullsync.h"
#include "core/deployment.h"
#include "core/system.h"
#include "query/merge.h"
#include "sim/runner.h"

namespace dds::baseline {

/// Algorithm Broadcast (Section 5.2 comparison). The coordinator pushes
/// every threshold change to ALL sites.
struct BroadcastTraits {
  using Site = BroadcastSite;
  using Coordinator = BroadcastCoordinator;
  struct Options {
    bool suppress_duplicates = false;
  };
  struct Shared {
    hash::HashFunction hash_fn;
  };
  static constexpr bool kInvokeSlotBegin = false;
  static constexpr bool kShardableCoordinator = false;

  static Shared make_shared(const core::SystemConfig& config) {
    // Same seed derivation as InfiniteSystem so head-to-head runs use
    // the identical hash function.
    return Shared{
        hash::HashFunction(config.hash_kind,
                           util::derive_seed(config.seed, 0xA5))};
  }
  static std::unique_ptr<Coordinator> make_coordinator(
      sim::NodeId id, std::uint32_t /*shard*/,
      const core::SystemConfig& config, const Shared& /*shared*/,
      const Options& /*options*/) {
    return std::make_unique<Coordinator>(id, config.sample_size,
                                         config.num_sites);
  }
  static std::unique_ptr<Site> make_site(sim::NodeId id,
                                         sim::NodeId coordinator,
                                         const core::SystemConfig& /*config*/,
                                         const Shared& shared,
                                         const Options& options) {
    return std::make_unique<Site>(id, coordinator, shared.hash_fn,
                                  options.suppress_duplicates);
  }
};

/// Ship-everything baseline.
struct CentralizedTraits {
  using Site = ForwardingSite;
  using Coordinator = CentralizedCoordinator;
  struct Options {};
  struct Shared {
    hash::HashFunction hash_fn;
  };
  static constexpr bool kInvokeSlotBegin = false;
  static constexpr bool kShardableCoordinator = false;

  static Shared make_shared(const core::SystemConfig& config) {
    return Shared{
        hash::HashFunction(config.hash_kind,
                           util::derive_seed(config.seed, 0xA5))};
  }
  static std::unique_ptr<Coordinator> make_coordinator(
      sim::NodeId id, std::uint32_t /*shard*/,
      const core::SystemConfig& config, const Shared& /*shared*/,
      const Options& /*options*/) {
    return std::make_unique<Coordinator>(id, config.sample_size);
  }
  static std::unique_ptr<Site> make_site(sim::NodeId id,
                                         sim::NodeId coordinator,
                                         const core::SystemConfig& /*config*/,
                                         const Shared& shared,
                                         const Options& /*options*/) {
    return std::make_unique<Site>(id, coordinator, shared.hash_fn);
  }
};

/// Distributed random (frequency-weighted) sampling baseline.
struct DrsTraits {
  using Site = DrsSite;
  using Coordinator = DrsCoordinator;
  struct Options {};
  struct Shared {};
  static constexpr bool kInvokeSlotBegin = false;
  /// DRS tags are drawn fresh per occurrence, so there is no element
  /// space to hash-partition — single coordinator only.
  static constexpr bool kShardableCoordinator = false;

  static Shared make_shared(const core::SystemConfig& /*config*/) {
    return Shared{};
  }
  static std::unique_ptr<Coordinator> make_coordinator(
      sim::NodeId id, std::uint32_t /*shard*/,
      const core::SystemConfig& config, const Shared& /*shared*/,
      const Options& /*options*/) {
    return std::make_unique<Coordinator>(id, config.sample_size);
  }
  static std::unique_ptr<Site> make_site(sim::NodeId id,
                                         sim::NodeId coordinator,
                                         const core::SystemConfig& config,
                                         const Shared& /*shared*/,
                                         const Options& /*options*/) {
    return std::make_unique<Site>(id, coordinator,
                                  util::derive_seed(config.seed, 0xE00 + id));
  }
};

/// Full-sync sliding-window baseline (exact; message-heavy).
struct FullSyncSlidingTraits {
  using Site = FullSyncSlidingSite;
  using Coordinator = FullSyncSlidingCoordinator;
  struct Options {};
  struct Shared {
    hash::HashFunction hash_fn;
  };
  static constexpr bool kInvokeSlotBegin = true;
  /// Shard j's coordinator holds every site's current partition-j
  /// minimum, so its answer is the EXACT window minimum of partition j
  /// at every slot; the validity-aware merge of the shard minima is
  /// therefore the exact global window minimum — per-slot bit-identical
  /// to the unsharded coordinator.
  static constexpr bool kShardableCoordinator = true;

  static Shared make_shared(const core::SystemConfig& config) {
    // Match SlidingSystem's hash: family member 0 with the same seed
    // derivation, so the two protocols sample identical elements.
    return Shared{hash::HashFamily(config.hash_kind,
                                   util::derive_seed(config.seed, 0xC7))
                      .at(0)};
  }
  static std::unique_ptr<Coordinator> make_coordinator(
      sim::NodeId id, std::uint32_t /*shard*/,
      const core::SystemConfig& config, const Shared& /*shared*/,
      const Options& /*options*/) {
    return std::make_unique<Coordinator>(id, config.num_sites);
  }
  static std::unique_ptr<Site> make_site(sim::NodeId id,
                                         sim::NodeId coordinator,
                                         const core::SystemConfig& config,
                                         const Shared& shared,
                                         const Options& /*options*/) {
    return std::make_unique<Site>(id, coordinator, config.window,
                                  shared.hash_fn,
                                  util::derive_seed(config.seed, 0xF00 + id),
                                  config.substrate);
  }
  /// Exact global window minimum: validity-aware min over the shards'
  /// exact partition minima at `now`.
  static std::optional<treap::Candidate> merge_samples_at(
      const std::vector<std::unique_ptr<Coordinator>>& coordinators,
      const core::SystemConfig& /*config*/, sim::Slot now) {
    query::SlidingValidityMerger merger(/*sample_size=*/1, now);
    for (const auto& coordinator : coordinators) {
      merger.offer(coordinator->sample(now));
    }
    return merger.min_hash();
  }
};

/// Exact distributed bottom-s sliding-window baseline (full-sync).
struct BottomSSlidingTraits {
  using Site = BottomSSlidingSite;
  using Coordinator = BottomSSlidingCoordinator;
  struct Options {};
  struct Shared {
    hash::HashFunction hash_fn;
  };
  static constexpr bool kInvokeSlotBegin = true;
  /// Shard j's coordinator pools partition j's local-bottom-s reports
  /// (an SDominanceSet), so its answer is the EXACT window bottom-s of
  /// partition j at every slot. Every member of the global window
  /// bottom-s is in its own partition's bottom-s, so the validity-aware
  /// bottom-s of the shard answers' union is per-slot bit-identical to
  /// the unsharded coordinator — the exactness proof test lives in
  /// tests/sliding_shard_test.cpp.
  static constexpr bool kShardableCoordinator = true;

  static Shared make_shared(const core::SystemConfig& config) {
    // Family member 0 with SlidingSystem's derivation: head-to-head
    // runs against the parallel-copies scheme share instance 0's hash.
    return Shared{hash::HashFamily(config.hash_kind,
                                   util::derive_seed(config.seed, 0xC7))
                      .at(0)};
  }
  static std::unique_ptr<Coordinator> make_coordinator(
      sim::NodeId id, std::uint32_t /*shard*/,
      const core::SystemConfig& config, const Shared& /*shared*/,
      const Options& /*options*/) {
    return std::make_unique<Coordinator>(id, config.sample_size);
  }
  static std::unique_ptr<Site> make_site(sim::NodeId id,
                                         sim::NodeId coordinator,
                                         const core::SystemConfig& config,
                                         const Shared& shared,
                                         const Options& /*options*/) {
    return std::make_unique<Site>(id, coordinator, config.sample_size,
                                  config.window, shared.hash_fn,
                                  util::derive_seed(config.seed, 0xB05 + id));
  }
  /// Exact global window bottom-s: validity-aware bottom-s of the
  /// shards' exact partition bottom-s answers. `now` must be
  /// non-decreasing across queries — each shard's pool sweeps expiry
  /// at query time (see BottomSSlidingCoordinator::sample).
  static std::vector<treap::Candidate> merge_samples_at(
      const std::vector<std::unique_ptr<Coordinator>>& coordinators,
      const core::SystemConfig& config, sim::Slot now) {
    query::SlidingValidityMerger merger(config.sample_size, now);
    for (const auto& coordinator : coordinators) {
      merger.add(coordinator->sample(now));
    }
    return merger.bottom_s();
  }
};

using BroadcastSystem = core::Deployment<BroadcastTraits>;
using CentralizedSystem = core::Deployment<CentralizedTraits>;
using DrsSystem = core::Deployment<DrsTraits>;
using FullSyncSlidingSystem = core::Deployment<FullSyncSlidingTraits>;
using BottomSSlidingSystem = core::Deployment<BottomSSlidingTraits>;

}  // namespace dds::baseline
