// Fault-injection matrix: chaos plans driving the Deployment fault
// surface under the Supervisor's checkpoint/restore policy.
//
// The load-bearing results:
//   * Kill + respawn under a lossy wire — with checkpoint cadence
//     <= w/2 — leaves the exact sliding protocols (FullSync single-min
//     and FullSync bottom-s) per-slot BIT-IDENTICAL to an unsharded
//     fault-free run at every slot where all shards are alive, across
//     seeds. While a shard is down, queries degrade gracefully
//     (AnnotatedSample::complete == false, dead-letter traffic counted,
//     never a crash).
//   * Corrupted / truncated checkpoint images injected into the restore
//     transfer are caught by the integrity gate and survived via
//     retry-with-backoff; state converges regardless because recovery
//     ends with a site resync (exact for the full-sync family).
//   * A coordinator-ensemble crash restored from images — plus
//     candidate-set images for the sites — reconstructs the WHOLE
//     deployment losslessly: the restored run is bit-identical to the
//     original from the checkpoint slot onward.
//   * Network partitions (loss bursts on a shard's report links) heal
//     back to exactness after clear_link_model + resync.
//   * The infinite protocol recovers through the Supervisor's timeout
//     detection: restore + threshold-reset resync + re-exposure
//     converges to the unsharded answer.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "baseline/baseline_checkpoint.h"
#include "baseline/baseline_system.h"
#include "core/checkpoint.h"
#include "core/shard_router.h"
#include "core/supervisor.h"
#include "core/system.h"
#include "net/batcher.h"
#include "net/link_model.h"
#include "net/sim_network.h"
#include "sim/chaos.h"
#include "sim/sources.h"
#include "util/rng.h"

namespace dds {
namespace {

using sim::ChaosController;
using sim::ChaosHooks;
using sim::ChaosPlan;
using sim::SlotSource;
using treap::Candidate;

std::vector<std::pair<sim::NodeId, stream::Element>> random_slot(
    util::Xoshiro256StarStar& rng, std::uint32_t sites, std::uint64_t domain,
    int arrivals = 4) {
  std::vector<std::pair<sim::NodeId, stream::Element>> xs;
  for (int i = 0; i < arrivals; ++i) {
    xs.emplace_back(static_cast<sim::NodeId>(rng.next_below(sites)),
                    1 + rng.next_below(domain));
  }
  return xs;
}

template <typename System>
void feed(System& system, sim::Slot t,
          const std::vector<std::pair<sim::NodeId, stream::Element>>& xs) {
  SlotSource src(t, xs);
  system.run(src);
}

/// Loss-bursts every site->shard report link (the partition chaos hook).
template <typename System>
void partition_shard(System& system, net::SimNetwork& net, std::uint32_t shard,
                     double drop) {
  net::LinkConfig burst = net.config().link;
  burst.drop_rate = drop;
  for (std::uint32_t i = 0; i < system.num_sites(); ++i) {
    net.set_link_model(i, system.bus().coordinator_id(shard),
                       net::make_link_model(burst));
  }
}

template <typename System>
void heal_shard(System& system, net::SimNetwork& net, std::uint32_t shard) {
  for (std::uint32_t i = 0; i < system.num_sites(); ++i) {
    net.clear_link_model(i, system.bus().coordinator_id(shard));
  }
  system.resync_shard(shard);
  system.bus().finish();
}

// ---------------- kill/respawn on a lossy wire: exact protocols -------

/// The shared chaos drill: `chaotic` (3 shards, lossy wire) runs the
/// same stream as the fault-free unsharded `reference` while a scripted
/// plan kills/respawns shards (one respawn restoring through a
/// corrupted image, one through a truncated image) and loss-bursts a
/// shard's links. `compare(t)` runs at every slot where the chaotic
/// deployment is whole (all shards alive, no partition in force).
template <typename System, typename Compare>
void run_kill_respawn_drill(System& reference, System& chaotic,
                            std::uint32_t sites, sim::Slot window,
                            std::uint64_t stream_seed, Compare compare) {
  auto* net = dynamic_cast<net::SimNetwork*>(&chaotic.bus());
  ASSERT_NE(net, nullptr) << "chaotic deployment must ride the SimNetwork";

  core::SupervisorConfig sup_config;
  sup_config.checkpoint_cadence = window / 2;  // the acceptance cadence
  sup_config.auto_recover = false;             // respawns are scripted
  core::Supervisor<System> supervisor(chaotic, sup_config);

  ChaosPlan plan;
  plan.kill_at(40, 1).respawn_at(52, 1);
  plan.kill_at(90, 0).corrupt_image_at(90, 0).respawn_at(97, 0);
  plan.kill_at(130, 2).truncate_image_at(130, 2).respawn_at(145, 2);
  plan.partition_at(170, 1, /*drop=*/1.0).heal_at(178, 1);

  sim::Slot now = 0;
  std::uint32_t partitioned = 0;  // heal-pending shards
  ChaosHooks hooks;
  hooks.kill = [&](std::uint32_t shard) {
    chaotic.kill_shard(shard);
    supervisor.notify_killed(shard, now);
  };
  hooks.respawn = [&](std::uint32_t shard) { supervisor.recover(shard, now); };
  hooks.partition = [&](std::uint32_t shard, double drop) {
    partition_shard(chaotic, *net, shard, drop);
    ++partitioned;
  };
  hooks.heal = [&](std::uint32_t shard) {
    heal_shard(chaotic, *net, shard);
    --partitioned;
  };
  ChaosController controller(plan, std::move(hooks));
  supervisor.set_image_filter(
      [&](std::uint32_t shard, core::CheckpointImage& image) {
        controller.mangle(shard, image);
      });

  util::Xoshiro256StarStar rng(stream_seed);
  std::uint64_t whole_slots = 0;
  std::uint64_t degraded_slots = 0;
  for (sim::Slot t = 0; t < 210; ++t) {
    now = t;
    const auto xs = random_slot(rng, sites, /*domain=*/120);
    feed(reference, t, xs);
    feed(chaotic, t, xs);
    supervisor.on_slot(t);
    controller.step(t);
    if (chaotic.dead_shards() == 0 && partitioned == 0) {
      compare(t);
      ++whole_slots;
    } else {
      // Graceful degradation: merged queries still answer, annotated.
      const auto annotated = chaotic.sample_annotated(t);
      EXPECT_EQ(annotated.complete, chaotic.dead_shards() == 0) << "slot " << t;
      ++degraded_slots;
    }
  }
  EXPECT_TRUE(controller.done());
  EXPECT_GT(whole_slots, 150u);   // the drill is mostly-healthy...
  EXPECT_GT(degraded_slots, 20u); // ...but every outage window was seen
  EXPECT_GT(chaotic.dead_letters(), 0u);  // in-flight traffic was absorbed
  // Both sabotaged restores were caught by the integrity gate and
  // survived through the retry path.
  EXPECT_EQ(controller.stats().images_corrupted, 1u);
  EXPECT_EQ(controller.stats().images_truncated, 1u);
  EXPECT_EQ(supervisor.stats().restore_failures, 2u);
  EXPECT_EQ(supervisor.stats().recoveries, 3u);
  EXPECT_GE(supervisor.stats().checkpoints, 3u);
}

TEST(ChaosKillRespawn, FullSyncBitIdenticalWheneverWhole) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    core::SlidingSystemConfig config;
    config.num_sites = 5;
    config.window = 24;
    config.seed = seed;
    baseline::FullSyncSlidingSystem reference(config);
    auto chaotic_config = config;
    chaotic_config.num_shards = 3;
    chaotic_config.network.link.latency = 1.0;
    chaotic_config.network.link.drop_rate = 0.15;
    chaotic_config.network.seed = seed * 7 + 1;
    baseline::FullSyncSlidingSystem chaotic(chaotic_config);
    run_kill_respawn_drill(reference, chaotic, 5, config.window,
                           seed * 31 + 11, [&](sim::Slot t) {
                             ASSERT_EQ(reference.coordinator().sample(t),
                                       chaotic.sample(t))
                                 << "seed " << seed << " slot " << t;
                           });
  }
}

TEST(ChaosKillRespawn, BottomSBitIdenticalWheneverWhole) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    core::SlidingSystemConfig config;
    config.num_sites = 5;
    config.window = 24;
    config.sample_size = 3;
    config.seed = seed;
    baseline::BottomSSlidingSystem reference(config);
    auto chaotic_config = config;
    chaotic_config.num_shards = 3;
    chaotic_config.network.link.latency = 1.0;
    chaotic_config.network.link.drop_rate = 0.15;
    chaotic_config.network.seed = seed * 7 + 2;
    baseline::BottomSSlidingSystem chaotic(chaotic_config);
    run_kill_respawn_drill(reference, chaotic, 5, config.window,
                           seed * 31 + 12, [&](sim::Slot t) {
                             ASSERT_EQ(reference.coordinator().sample(t),
                                       chaotic.sample(t))
                                 << "seed " << seed << " slot " << t;
                           });
  }
}

// The lazy s-copy sliding scheme has no resync hook — it self-heals by
// expiry (bounded staleness). A kill + respawn must leave it crash-free
// and back to agreement with the unsharded run within one window.
TEST(ChaosKillRespawn, LazySlidingSelfHealsWithinOneWindow) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    core::SlidingSystemConfig config;
    config.num_sites = 1;  // the lazy protocol's exact regime
    config.window = 20;
    config.sample_size = 2;
    config.seed = seed;
    core::SlidingSystem reference(config);
    auto chaotic_config = config;
    chaotic_config.num_shards = 2;
    core::SlidingSystem chaotic(chaotic_config);
    const sim::Slot kKill = 60;
    const sim::Slot kRespawn = 66;
    util::Xoshiro256StarStar rng(seed * 17 + 5);
    for (sim::Slot t = 0; t < 140; ++t) {
      const auto xs = random_slot(rng, 1, 60);
      feed(reference, t, xs);
      feed(chaotic, t, xs);
      if (t == kKill) chaotic.kill_shard(1);
      if (t == kRespawn) {
        chaotic.respawn_shard(1);
        chaotic.resync_shard(1);  // documented no-op for the lazy scheme
        chaotic.bus().finish();
      }
      if (t < kKill || t >= kRespawn + config.window) {
        ASSERT_EQ(reference.coordinator().sample(t), chaotic.sample(t))
            << "seed " << seed << " slot " << t;
      }
    }
  }
}

// ------------- coordinator crash-restore: lossless site failover ------

/// Captures coordinator-ensemble images plus one candidate-set image
/// per (site, shard copy), restores both into a fresh deployment, and
/// asserts the restored run is bit-identical to the original at EVERY
/// subsequent slot — the full lossless-failover property.
template <typename System, typename Query>
void run_lossless_failover(const core::SystemConfig& config,
                           std::uint64_t stream_seed, Query query) {
  System original(config);
  util::Xoshiro256StarStar rng(stream_seed);
  const sim::Slot kCrash = 100;
  for (sim::Slot t = 0; t < kCrash; ++t) {
    feed(original, t, random_slot(rng, config.num_sites, 90));
  }
  const auto images = core::checkpoint_ensemble(original);
  std::vector<std::vector<core::CheckpointImage>> site_images(
      config.num_sites);
  for (std::uint32_t i = 0; i < config.num_sites; ++i) {
    for (std::uint32_t j = 0; j < config.num_shards; ++j) {
      site_images[i].push_back(core::checkpoint_candidates(
          original.site(i, j).snapshot_candidates()));
    }
  }

  System restored(config);
  for (std::uint32_t i = 0; i < config.num_sites; ++i) {
    for (std::uint32_t j = 0; j < config.num_shards; ++j) {
      const auto parsed = core::parse_candidates(site_images[i][j]);
      ASSERT_TRUE(parsed.has_value());
      restored.site(i, j).restore_candidates(*parsed);
    }
  }
  ASSERT_TRUE(core::restore_ensemble(restored, images));

  ASSERT_EQ(query(original, kCrash), query(restored, kCrash));
  for (sim::Slot t = kCrash; t < kCrash + 60; ++t) {
    const auto xs = random_slot(rng, config.num_sites, 90);
    feed(original, t, xs);
    feed(restored, t, xs);
    ASSERT_EQ(query(original, t), query(restored, t)) << "slot " << t;
  }
}

TEST(ChaosCrashRestore, FullSyncLosslessFromImages) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    core::SlidingSystemConfig config;
    config.num_sites = 4;
    config.window = 25;
    config.seed = seed;
    config.num_shards = 2;
    run_lossless_failover<baseline::FullSyncSlidingSystem>(
        config, seed * 13 + 3,
        [](const auto& system, sim::Slot t) { return system.sample(t); });
  }
}

TEST(ChaosCrashRestore, BottomSLosslessFromImages) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    core::SlidingSystemConfig config;
    config.num_sites = 4;
    config.window = 25;
    config.sample_size = 3;
    config.seed = seed;
    config.num_shards = 2;
    run_lossless_failover<baseline::BottomSSlidingSystem>(
        config, seed * 13 + 4,
        [](const auto& system, sim::Slot t) { return system.sample(t); });
  }
}

// --------------- supervisor: corrupted-image retry + backoff ----------

TEST(ChaosSupervisor, CorruptedTransferSurvivedByRetryWithBackoff) {
  core::SlidingSystemConfig config;
  config.num_sites = 4;
  config.window = 20;
  baseline::FullSyncSlidingSystem reference(config);
  auto chaotic_config = config;
  chaotic_config.num_shards = 2;
  baseline::FullSyncSlidingSystem chaotic(chaotic_config);
  core::SupervisorConfig sup_config;
  sup_config.checkpoint_cadence = 8;
  sup_config.auto_recover = false;
  core::Supervisor<baseline::FullSyncSlidingSystem> supervisor(chaotic,
                                                               sup_config);
  ChaosPlan plan;
  plan.corrupt_image_at(48, 1).truncate_image_at(48, 1);
  ChaosController controller(plan, ChaosHooks{});
  supervisor.set_image_filter(
      [&](std::uint32_t shard, core::CheckpointImage& image) {
        controller.mangle(shard, image);
      });
  util::Xoshiro256StarStar rng(41);
  for (sim::Slot t = 0; t < 50; ++t) {
    const auto xs = random_slot(rng, 4, 80);
    feed(reference, t, xs);
    feed(chaotic, t, xs);
    supervisor.on_slot(t);
    controller.step(t);
  }
  chaotic.kill_shard(1);
  supervisor.notify_killed(1, 49);
  EXPECT_TRUE(supervisor.recover(1, 49));  // restored — on the 2nd try
  EXPECT_EQ(supervisor.stats().restores_attempted, 2u);
  EXPECT_EQ(supervisor.stats().restore_failures, 1u);
  EXPECT_EQ(supervisor.stats().recoveries, 1u);
  EXPECT_EQ(supervisor.stats().backoff_slots,
            static_cast<std::uint64_t>(sup_config.backoff_base));
  EXPECT_EQ(controller.stats().images_corrupted, 1u);
  EXPECT_EQ(controller.stats().images_truncated, 1u);
  for (sim::Slot t = 50; t < 80; ++t) {
    const auto xs = random_slot(rng, 4, 80);
    feed(reference, t, xs);
    feed(chaotic, t, xs);
    ASSERT_EQ(reference.coordinator().sample(t), chaotic.sample(t))
        << "slot " << t;
  }
}

TEST(ChaosSupervisor, ExhaustedRetriesDegradeToResyncAndStillConverge) {
  core::SlidingSystemConfig config;
  config.num_sites = 4;
  config.window = 20;
  baseline::FullSyncSlidingSystem reference(config);
  auto chaotic_config = config;
  chaotic_config.num_shards = 2;
  baseline::FullSyncSlidingSystem chaotic(chaotic_config);
  core::SupervisorConfig sup_config;
  sup_config.checkpoint_cadence = 8;
  sup_config.max_restore_attempts = 3;
  sup_config.auto_recover = false;
  core::Supervisor<baseline::FullSyncSlidingSystem> supervisor(chaotic,
                                                               sup_config);
  // Every transfer is mangled: restore can never succeed.
  supervisor.set_image_filter(
      [](std::uint32_t, core::CheckpointImage& image) { image.clear(); });
  util::Xoshiro256StarStar rng(43);
  for (sim::Slot t = 0; t < 40; ++t) {
    const auto xs = random_slot(rng, 4, 80);
    feed(reference, t, xs);
    feed(chaotic, t, xs);
    supervisor.on_slot(t);
  }
  chaotic.kill_shard(0);
  EXPECT_FALSE(supervisor.recover(0, 39));  // degraded: resync-only
  EXPECT_EQ(supervisor.stats().degraded_recoveries, 1u);
  // An empty image never even costs a restore attempt loop failure
  // beyond the verify gate; what matters is convergence:
  for (sim::Slot t = 40; t < 70; ++t) {
    const auto xs = random_slot(rng, 4, 80);
    feed(reference, t, xs);
    feed(chaotic, t, xs);
    ASSERT_EQ(reference.coordinator().sample(t), chaotic.sample(t))
        << "slot " << t;
  }
}

// ----------------- supervisor: timeout detection (infinite) -----------

TEST(ChaosSupervisor, InfiniteProtocolAutoRecoversAndReconverges) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    core::SystemConfig config;
    config.num_sites = 4;
    config.sample_size = 8;
    config.seed = seed;
    core::InfiniteSystem reference(config);
    auto chaotic_config = config;
    chaotic_config.num_shards = 2;
    core::InfiniteSystem chaotic(chaotic_config);
    core::SupervisorConfig sup_config;
    sup_config.checkpoint_cadence = 10;
    sup_config.detect_after = 2;
    sup_config.auto_recover = true;
    core::Supervisor<core::InfiniteSystem> supervisor(chaotic, sup_config);
    util::Xoshiro256StarStar rng(seed * 19 + 7);
    const std::uint64_t kDomain = 400;
    for (sim::Slot t = 0; t < 120; ++t) {
      const auto xs = random_slot(rng, 4, kDomain);
      feed(reference, t, xs);
      feed(chaotic, t, xs);
      if (t == 60) {
        chaotic.kill_shard(1);
        supervisor.notify_killed(1, t);
      }
      supervisor.on_slot(t);  // detects at t = 62 and recovers
      if (t == 61) {
        EXPECT_EQ(chaotic.dead_shards(), 1u);
      }
      if (t >= 62) {
        EXPECT_EQ(chaotic.dead_shards(), 0u) << "slot " << t;
      }
    }
    EXPECT_EQ(supervisor.stats().recoveries, 1u);
    EXPECT_GE(supervisor.stats().last_recovery_latency, 2u);
    // Deterministic re-exposure: one pass over the domain re-offers
    // every element (sites re-report under their reset thresholds), so
    // both systems end at the exact global bottom-s.
    sim::Slot t = 120;
    for (std::uint64_t e = 1; e <= kDomain; ++t) {
      std::vector<std::pair<sim::NodeId, stream::Element>> xs;
      for (int i = 0; i < 8 && e <= kDomain; ++i, ++e) {
        xs.emplace_back(static_cast<sim::NodeId>(e % 4), e);
      }
      feed(reference, t, xs);
      feed(chaotic, t, xs);
    }
    EXPECT_EQ(reference.sample().elements(), chaotic.sample().elements())
        << "seed " << seed;
  }
}

// --------------------------- elastic topology -------------------------

TEST(ElasticTopology, GrowAndShrinkStayBitIdenticalOnBatchedWire) {
  for (const std::uint64_t seed : {1ULL, 2ULL}) {
    core::SlidingSystemConfig config;
    config.num_sites = 5;
    config.window = 20;
    config.sample_size = 2;
    config.seed = seed;
    baseline::BottomSSlidingSystem reference(config);
    auto elastic_config = config;
    elastic_config.num_shards = 2;
    elastic_config.elastic = true;
    elastic_config.network.link.latency = 1.0;
    elastic_config.network.batch_interval = 3;
    elastic_config.network.seed = seed + 40;
    baseline::BottomSSlidingSystem elastic(elastic_config);
    auto* net = dynamic_cast<net::SimNetwork*>(&elastic.bus());
    ASSERT_NE(net, nullptr);
    util::Xoshiro256StarStar rng(seed * 23 + 9);
    for (sim::Slot t = 0; t < 120; ++t) {
      const auto xs = random_slot(rng, 5, 100, /*arrivals=*/5);
      feed(reference, t, xs);
      feed(elastic, t, xs);
      if (t == 40) {
        elastic.add_shard();  // 2 -> 3, live
        EXPECT_EQ(elastic.num_shards(), 3u);
      }
      if (t == 80) {
        elastic.remove_shard();  // 3 -> 2, live
        EXPECT_EQ(elastic.num_shards(), 2u);
      }
      ASSERT_EQ(reference.coordinator().sample(t), elastic.sample(t))
          << "seed " << seed << " slot " << t;
    }
    // The resize flushed (not dropped) every buffered report.
    EXPECT_EQ(net->stranded_messages(), 0u);
  }
}

TEST(ElasticTopology, SupervisorDrainImageCapturesDepartingShard) {
  core::SlidingSystemConfig config;
  config.num_sites = 4;
  config.window = 20;
  config.sample_size = 2;
  config.num_shards = 3;
  baseline::BottomSSlidingSystem system(config);
  core::Supervisor<baseline::BottomSSlidingSystem> supervisor(system);
  util::Xoshiro256StarStar rng(29);
  for (sim::Slot t = 0; t < 60; ++t) {
    feed(system, t, random_slot(rng, 4, 80));
  }
  const auto before = baseline::checkpoint(system.coordinator(2));
  const auto drained = supervisor.drain_and_remove_shard();
  EXPECT_EQ(drained, before);  // the image is the shard's final state
  EXPECT_EQ(system.num_shards(), 2u);
  const auto parsed = baseline::parse_bottom_s_checkpoint(drained);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->sample_size, config.sample_size);
}

TEST(ElasticTopology, ResizeMovesOnlyItsShareOfKeys) {
  const std::uint64_t kSalt = 77;
  core::ShardRouter two(2, kSalt);
  core::ShardRouter grown(2, kSalt);
  grown.add_shard();
  core::ShardRouter three(3, kSalt);
  util::SplitMix64 gen(5);
  std::uint64_t moved = 0;
  const std::uint64_t kKeys = 20000;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    const stream::Element e = gen.next();
    // Growing the ring == building the bigger ring from scratch (ring
    // points are position-stable), so a later shrink is an exact undo.
    ASSERT_EQ(grown.owner(e), three.owner(e));
    if (two.owner(e) != grown.owner(e)) ++moved;
  }
  // ~1/3 of keys move to the new shard; nothing shuffles among the
  // survivors beyond ring granularity. Generous band around 1/3.
  EXPECT_GT(moved, kKeys / 6);
  EXPECT_LT(moved, kKeys / 2);
  grown.remove_last_shard();
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const stream::Element e = gen.next();
    ASSERT_EQ(grown.owner(e), two.owner(e));
  }
  EXPECT_THROW(core::ShardRouter(1, kSalt).remove_last_shard(),
               std::logic_error);
}

TEST(ElasticTopology, LazyProtocolWithoutHooksRefusesResize) {
  core::SlidingSystemConfig config;
  config.num_sites = 2;
  config.num_shards = 2;
  core::SlidingSystem system(config);  // lazy scheme: no migration hooks
  EXPECT_THROW(system.add_shard(), std::logic_error);
}

TEST(ElasticTopology, ResizeWithDeadShardRefused) {
  core::SlidingSystemConfig config;
  config.num_sites = 2;
  config.num_shards = 2;
  baseline::BottomSSlidingSystem system(config);
  system.kill_shard(1);
  EXPECT_THROW(system.add_shard(), std::logic_error);
  system.respawn_shard(1);
  system.resync_shard(1);
  system.bus().finish();
  EXPECT_NO_THROW(system.add_shard());
}

// ----------------------- batcher resize safety ------------------------

TEST(Batcher, RebindFlushesSurvivorsAndCountsStranded) {
  net::Batcher batcher(/*num_sites=*/2, /*num_coordinators=*/3,
                       /*interval=*/10, /*max_msgs=*/64);
  auto report = [](sim::NodeId site, sim::NodeId coordinator) {
    sim::Message msg;
    msg.from = site;
    msg.to = coordinator;
    msg.type = sim::MsgType::kSlidingReport;
    return msg;
  };
  batcher.add(report(0, 2), 0);  // shard 0 — survives
  batcher.add(report(1, 3), 0);  // shard 1 — survives
  batcher.add(report(0, 4), 0);  // shard 2 — removed below
  batcher.add(report(1, 4), 0);  // shard 2 — removed below
  const auto survivors = batcher.rebind(2);
  ASSERT_EQ(survivors.size(), 2u);
  for (const auto& batch : survivors) {
    for (const auto& msg : batch.msgs) EXPECT_LT(msg.to, 4u);
  }
  EXPECT_EQ(batcher.stranded(), 2u);  // only the quiesce-skipping caller
  // Growing strands nothing and keeps nothing buffered behind.
  batcher.add(report(0, 2), 0);
  const auto regrown = batcher.rebind(3);
  ASSERT_EQ(regrown.size(), 1u);
  EXPECT_EQ(batcher.stranded(), 2u);
  EXPECT_EQ(batcher.buffered_for_shard(2), 0u);
}

// -------------------- checkpoint image hardening ----------------------

TEST(CheckpointHardening, EveryImageKindRejectsDamageUntouched) {
  core::SlidingSystemConfig config;
  config.num_sites = 3;
  config.window = 15;
  config.sample_size = 2;
  baseline::BottomSSlidingSystem bottoms(config);
  baseline::FullSyncSlidingSystem fullsync(config);
  util::Xoshiro256StarStar rng(47);
  for (sim::Slot t = 0; t < 40; ++t) {
    const auto xs = random_slot(rng, 3, 50);
    feed(bottoms, t, xs);
    feed(fullsync, t, xs);
  }
  const auto damage_cases = [](core::CheckpointImage good) {
    std::vector<core::CheckpointImage> bad;
    auto truncated = good;
    truncated.pop_back();
    bad.push_back(truncated);                       // truncated tail
    bad.push_back({good.begin(), good.begin() + 8});  // truncated body
    auto flipped = good;
    flipped[flipped.size() / 2] ^= 0x40;
    bad.push_back(flipped);                         // bit-flipped body
    auto wrong_magic = good;
    wrong_magic[0] ^= 0xFF;
    bad.push_back(wrong_magic);                     // not ours
    bad.push_back({});                              // empty
    auto trailing = good;
    trailing.push_back(0);
    bad.push_back(trailing);                        // trailing junk
    return bad;
  };

  const auto fs_image = baseline::checkpoint(fullsync.coordinator());
  EXPECT_TRUE(core::verify_checkpoint_image(fs_image));
  const auto fs_before = fullsync.coordinator().sample(40);
  for (const auto& bad : damage_cases(fs_image)) {
    EXPECT_FALSE(core::verify_checkpoint_image(bad));
    EXPECT_EQ(baseline::parse_fullsync_checkpoint(bad), std::nullopt);
    EXPECT_FALSE(baseline::restore_into(fullsync.coordinator_mut(), bad));
    EXPECT_EQ(fullsync.coordinator().sample(40), fs_before);  // untouched
  }

  const auto bs_image = baseline::checkpoint(bottoms.coordinator());
  EXPECT_TRUE(core::verify_checkpoint_image(bs_image));
  const auto bs_before = bottoms.coordinator().sample(40);
  for (const auto& bad : damage_cases(bs_image)) {
    EXPECT_FALSE(core::verify_checkpoint_image(bad));
    EXPECT_EQ(baseline::parse_bottom_s_checkpoint(bad), std::nullopt);
    EXPECT_FALSE(baseline::restore_into(bottoms.coordinator_mut(), bad));
    EXPECT_EQ(bottoms.coordinator().sample(40), bs_before);
  }

  const auto cand_image = core::checkpoint_candidates(
      bottoms.site(0).snapshot_candidates());
  EXPECT_TRUE(core::verify_checkpoint_image(cand_image));
  for (const auto& bad : damage_cases(cand_image)) {
    EXPECT_FALSE(core::verify_checkpoint_image(bad));
    EXPECT_EQ(core::parse_candidates(bad), std::nullopt);
  }
}

TEST(CheckpointHardening, VersionOneImagesStillParse) {
  // Version 1 (pre-checksum) images are no longer accepted: no writer
  // produces them, and accepting them would let an image whose version
  // word reads 1 skip the checksum gate. Every parser rejects them and
  // leaves its target untouched.
  core::CheckpointImage v1;
  core::ckpt::put_u64(v1, core::ckpt::kCandidateMagic);
  core::ckpt::put_u64(v1, 1);  // version 1: no trailing checksum
  core::ckpt::put_u64(v1, 2);  // count
  for (const auto& c :
       {Candidate{7, 700, 30}, Candidate{9, 900, 31}}) {
    core::ckpt::put_u64(v1, c.element);
    core::ckpt::put_u64(v1, c.hash);
    core::ckpt::put_u64(v1, c.expiry);
  }
  EXPECT_FALSE(core::verify_checkpoint_image(v1));
  EXPECT_EQ(core::parse_candidates(v1), std::nullopt);

  // A real coordinator image re-labelled as v1 (checksum stripped):
  // restore_into refuses it and the target keeps its state.
  const auto as_v1 = [](core::CheckpointImage image) {
    image.resize(image.size() - 8);
    image[8] = 1;  // low byte of the version word
    return image;
  };
  core::InfiniteSystem infinite(core::SystemConfig{3, 4});
  util::Xoshiro256StarStar rng(53);
  for (sim::Slot t = 0; t < 30; ++t) feed(infinite, t, random_slot(rng, 3, 60));
  const auto inf_v1 = as_v1(core::checkpoint(infinite.coordinator()));
  EXPECT_FALSE(core::verify_checkpoint_image(inf_v1));
  EXPECT_FALSE(core::parse_checkpoint(inf_v1).has_value());
  core::InfiniteSystem target(core::SystemConfig{3, 4});
  for (sim::Slot t = 0; t < 10; ++t) feed(target, t, random_slot(rng, 3, 60));
  ASSERT_FALSE(target.sample().elements().empty());
  const auto target_before = target.sample().elements();
  const auto threshold_before = target.coordinator().threshold();
  EXPECT_FALSE(core::restore_into(target.coordinator_mut(), inf_v1));
  EXPECT_EQ(target.sample().elements(), target_before);
  EXPECT_EQ(target.coordinator().threshold(), threshold_before);

  // An unknown version is rejected outright.
  core::CheckpointImage v9 = v1;
  v9[8] = 9;
  EXPECT_FALSE(core::verify_checkpoint_image(v9));
  EXPECT_EQ(core::parse_candidates(v9), std::nullopt);
}

TEST(CheckpointHardening, CandidateImagesRoundTrip) {
  const std::vector<Candidate> items{
      {1, 100, 10}, {2, 50, 12}, {3, 75, 9}};
  const auto image = core::checkpoint_candidates(items);
  const auto parsed = core::parse_candidates(image);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, items);
  const auto empty_image = core::checkpoint_candidates({});
  const auto empty_parsed = core::parse_candidates(empty_image);
  ASSERT_TRUE(empty_parsed.has_value());
  EXPECT_TRUE(empty_parsed->empty());
}

}  // namespace
}  // namespace dds
