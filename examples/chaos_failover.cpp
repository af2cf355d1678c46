// Walkthrough: surviving a coordinator crash without losing the answer.
//
//   $ ./chaos_failover
//
// Four coordinator shards run the exact bottom-s sliding protocol over
// a lossy wire (latency + jitter + loss with retransmission). A
// Supervisor checkpoints the coordinator ensemble every w/2 slots. Mid
// stream a scripted chaos plan kills shard 2 — and, for good measure,
// corrupts the checkpoint image in flight when the shard respawns, so
// the restore path has to catch the damage (integrity gate), back off,
// and retry from a clean transfer. Queries keep running throughout:
//
//   * before the kill, the merged 4-shard answer is bit-identical to an
//     unsharded fault-free twin fed the same stream;
//   * during the outage, queries degrade gracefully — the merge layer
//     answers from the live shards and annotates the sample incomplete
//     (never a crash; in-flight traffic to the dead coordinator lands
//     in the dead-letter count);
//   * after respawn + verified restore + resync, the answer is exact
//     again — bit-identical from the recovery slot onward.
//
// Observability (the CI chaos smoke runs this twice with the same seed
// and asserts the artifacts are bit-identical — the chaos layer is
// replayable):
//   --metrics PATH   write the final Prometheus snapshot (includes the
//                    chaos.* and supervisor.* counter families)
//   --json PATH      write the structured-JSON snapshot
//   --trace PATH     write the Chrome trace (chaos events appear as
//                    instants in the "chaos" category)
//   --seed N         master seed (stream + wire), default 7
#include <fstream>
#include <iostream>

#include "baseline/baseline_checkpoint.h"
#include "baseline/baseline_system.h"
#include "core/supervisor.h"
#include "net/sim_network.h"
#include "obs/observability.h"
#include "sim/chaos.h"
#include "sim/sources.h"
#include "util/cli.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  using namespace dds;

  util::Cli cli;
  cli.flag("metrics", "write the final Prometheus snapshot here", "");
  cli.flag("json", "write the final JSON snapshot here", "");
  cli.flag("trace", "write the Chrome trace here", "");
  cli.flag("seed", "master seed", "7");
  if (!cli.parse(argc, argv)) return 1;
  const std::string metrics_path = cli.get("metrics");
  const std::string json_path = cli.get("json");
  const std::string trace_path = cli.get("trace");
  const std::uint64_t seed = cli.get_uint("seed");

  core::SlidingSystemConfig config;
  config.num_sites = 8;
  config.window = 50;       // "the last 50 slots"
  config.sample_size = 3;   // exact bottom-3 of the window
  config.seed = seed;
  baseline::BottomSSlidingSystem reference(config);  // fault-free twin

  auto chaotic_config = config;
  chaotic_config.num_shards = 4;
  chaotic_config.network.link.latency = 1.5;
  chaotic_config.network.link.jitter = 0.5;
  chaotic_config.network.link.drop_rate = 0.05;
  chaotic_config.network.link.retransmit = true;
  chaotic_config.network.seed = util::derive_seed(seed, 0xFA11);
  chaotic_config.observability.metrics =
      !metrics_path.empty() || !json_path.empty();
  chaotic_config.observability.tracing = !trace_path.empty();
  baseline::BottomSSlidingSystem system(chaotic_config);

  std::cout << "shards: " << system.num_shards() << "\n";

  // The control plane: checkpoint the ensemble every w/2 slots; the
  // scripted respawn below calls recover() explicitly, so the timeout
  // detector stays out of the way.
  core::SupervisorConfig sup_config;
  sup_config.checkpoint_cadence = config.window / 2;
  sup_config.auto_recover = false;
  core::Supervisor<baseline::BottomSSlidingSystem> supervisor(system,
                                                              sup_config);

  // The scripted fault: kill shard 2 at slot 250; at the slot-270
  // respawn the restore's first image transfer arrives corrupted.
  const sim::Slot kKill = 250;
  const sim::Slot kRespawn = 270;
  sim::ChaosPlan plan;
  plan.kill_at(kKill, 2).corrupt_image_at(kKill, 2).respawn_at(kRespawn, 2);
  sim::Slot now = 0;
  sim::ChaosHooks hooks;
  hooks.kill = [&](std::uint32_t shard) {
    system.kill_shard(shard);
    supervisor.notify_killed(shard, now);
    std::cout << "slot " << now << ": CHAOS kill shard " << shard << "\n";
  };
  hooks.respawn = [&](std::uint32_t shard) {
    const bool restored = supervisor.recover(shard, now);
    std::cout << "slot " << now << ": respawn shard " << shard
              << (restored ? " (restored from checkpoint image)"
                           : " (degraded: resync only)")
              << ", retries=" << supervisor.stats().restore_failures
              << ", latency=" << supervisor.stats().last_recovery_latency
              << " slots\n";
  };
  sim::ChaosController controller(plan, std::move(hooks));
  supervisor.set_image_filter(
      [&](std::uint32_t shard, core::CheckpointImage& image) {
        controller.mangle(shard, image);
      });
  supervisor.bind_observability(system.observability().registry());
  controller.bind_observability(system.observability().registry(),
                                system.observability().tracer());

  // 600 slots of traffic; the merged window sample is queried every 60
  // slots — before, during, and after the outage.
  util::SplitMix64 gen(util::derive_seed(seed, 0x57AE));
  for (sim::Slot t = 0; t < 600; ++t) {
    now = t;
    std::vector<std::pair<sim::NodeId, std::uint64_t>> xs;
    for (int i = 0; i < 6; ++i) {
      xs.emplace_back(static_cast<sim::NodeId>(gen.next() % config.num_sites),
                      1 + gen.next() % 3000);
    }
    {
      sim::SlotSource source(t, xs);
      reference.run(source);
    }
    {
      sim::SlotSource source(t, std::move(xs));
      system.run(source);
    }
    supervisor.on_slot(t);
    controller.step(t);
    if ((t + 1) % 60 == 0 || t == kKill + 5) {
      system.observability().sample_counters(static_cast<double>(t));
      const auto annotated = system.sample_annotated(t);
      std::cout << "slot " << t << ": merged sample {";
      for (std::size_t i = 0; i < annotated.sample.size(); ++i) {
        std::cout << (i == 0 ? "" : ", ") << annotated.sample[i].element;
      }
      std::cout << "}";
      if (annotated.complete) {
        const bool exact =
            reference.coordinator().sample(t) == system.sample(t);
        std::cout << (exact ? " == unsharded fault-free answer"
                            : " DIVERGED from the unsharded answer?!");
      } else {
        std::cout << " [degraded: " << system.dead_shards()
                  << " shard down, live shards only]";
      }
      std::cout << "\n";
    }
  }

  const auto& stats = supervisor.stats();
  std::cout << "\nsupervisor: " << stats.checkpoints << " checkpoints ("
            << stats.checkpoint_bytes << " bytes), " << stats.recoveries
            << " recovery (restored), " << stats.restore_failures
            << " transfer rejected by the integrity gate, "
            << stats.backoff_slots << " backoff slot(s)\n";
  std::cout << "chaos: " << controller.stats().kills << " kill, "
            << controller.stats().respawns << " respawn, "
            << controller.stats().images_corrupted
            << " image corrupted in flight\n";
  std::cout << "dead-letter messages absorbed during the outage: "
            << system.dead_letters() << "\n";

  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    out << system.observability().prometheus();
    std::cout << "metrics snapshot written to " << metrics_path << "\n";
  }
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << system.observability().json();
    std::cout << "JSON snapshot written to " << json_path << "\n";
  }
  if (!trace_path.empty()) {
    system.observability().write_trace(trace_path);
    std::cout << "trace written to " << trace_path << " ("
              << system.observability().tracer()->size() << " events)\n";
  }
  return 0;
}
