// Shard lifecycle supervision: cadenced checkpoints, dead-shard
// detection, and verified restore with retry/backoff.
//
// The Deployment exposes the mechanism (kill_shard / respawn_shard /
// resync_shard, core/checkpoint.h the images); the Supervisor is the
// policy loop a real control plane would run, condensed to the slot
// clock of the simulation:
//
//   on_slot(t) — call once per slot boundary —
//     1. every `checkpoint_cadence` slots, snapshots each LIVE shard's
//        coordinator into the per-shard latest-image store (dead shards
//        keep their last good image; snapshotting their fresh empty
//        replacement would destroy exactly the state a restore needs);
//     2. notices shards that died (polling shard_alive, or told exactly
//        via notify_killed) and, once a shard has been down for
//        `detect_after` slots, runs recover() on it.
//
//   recover(shard, t) — also the chaos layer's respawn hook — respawns
//   the shard and replays the restore protocol: transfer a copy of the
//   latest image (the image filter models the transfer — the chaos
//   controller's mangle() corrupts/truncates it in flight), gate it
//   through verify_checkpoint_image, then restore_into the fresh
//   coordinator. Each failed attempt is retried with exponential
//   backoff (base << attempt, capped), accounted in simulated slots so
//   the recovery-latency bench sees the cost without the simulation
//   actually idling. After `max_restore_attempts` failures the
//   supervisor degrades gracefully: the shard comes back EMPTY and is
//   rebuilt from the sites' live state alone. Either way recovery ends
//   with resync_shard + a wire drain, which for the full-sync protocols
//   rebuilds the exact answer (every window minimum / bottom-s member
//   is in its own site's current local state) — so even a restore that
//   exhausted its retries converges, and the checkpoint image's role is
//   to bound the lazy protocols' staleness and preserve pre-window
//   history (infinite protocol) rather than to be a single point of
//   failure.
//
// Elastic topology rides the same image store: drain_and_remove_shard()
// checkpoints the departing (last) shard before Deployment::remove_shard
// re-derives its partition on the survivors, returning the drain image
// to the caller; add_shard() grows the store in step with the ring.
//
// Everything is deterministic: no wall clock, no randomness — recovery
// outcomes are a pure function of (plan, stream, network) seeds, which
// is what lets the chaos tests pin bit-identity across reruns.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "obs/metrics.h"
#include "sim/message.h"

namespace dds::core {

struct SupervisorConfig {
  /// Snapshot every live shard each time `slot % cadence == 0` (>= 1).
  sim::Slot checkpoint_cadence = 16;
  /// Slots a shard must be continuously dead before auto-recovery
  /// kicks in (the failure-detector timeout).
  sim::Slot detect_after = 2;
  /// Restore attempts per recovery before degrading to resync-only.
  std::uint32_t max_restore_attempts = 3;
  /// Exponential backoff between attempts: base << attempt, capped.
  sim::Slot backoff_base = 1;
  sim::Slot backoff_cap = 8;
  /// Drive recovery from on_slot() detection. Off, recover() only runs
  /// when called explicitly (scripted-respawn chaos plans).
  bool auto_recover = true;
};

/// Simulated backoff before retry `attempt` (0-based): base << attempt,
/// saturating at `cap`.
sim::Slot backoff_delay(const SupervisorConfig& config, std::uint32_t attempt);

struct RecoveryStats {
  std::uint64_t checkpoints = 0;        ///< per-shard snapshots taken
  std::uint64_t checkpoint_bytes = 0;   ///< cumulative image bytes
  std::uint64_t restores_attempted = 0; ///< image transfer+restore tries
  std::uint64_t restore_failures = 0;   ///< tries rejected (verify/parse)
  std::uint64_t recoveries = 0;         ///< recoveries restored from image
  std::uint64_t degraded_recoveries = 0; ///< recoveries resync-only
  std::uint64_t backoff_slots = 0;      ///< simulated retry wait, total
  /// Latency of the most recent recovery, in slots: detection wait +
  /// simulated backoff (0 until a recovery happened).
  std::uint64_t last_recovery_latency = 0;
  std::uint64_t total_recovery_latency = 0;
};

template <typename DeploymentT>
class Supervisor {
 public:
  using ImageFilter =
      std::function<void(std::uint32_t shard, CheckpointImage& image)>;

  explicit Supervisor(DeploymentT& deployment, SupervisorConfig config = {})
      : deployment_(deployment), config_(config) {
    if (config_.checkpoint_cadence == 0) {
      throw std::invalid_argument("Supervisor: checkpoint_cadence >= 1");
    }
    images_.resize(deployment_.num_shards());
    down_since_.assign(deployment_.num_shards(), kNotDown);
  }

  /// Models the image transfer of a restore: the filter sees (and may
  /// mutate) the copy of the latest image each restore attempt reads.
  /// Wire ChaosController::mangle here to exercise the retry path.
  void set_image_filter(ImageFilter filter) { filter_ = std::move(filter); }

  /// The supervision tick — call at every slot boundary, monotone `t`.
  void on_slot(sim::Slot t) {
    sync_topology();
    if (t % config_.checkpoint_cadence == 0) checkpoint_now(t);
    for (std::uint32_t j = 0; j < deployment_.num_shards(); ++j) {
      if (deployment_.shard_alive(j)) {
        down_since_[j] = kNotDown;
        continue;
      }
      if (down_since_[j] == kNotDown) down_since_[j] = t;  // just noticed
      if (config_.auto_recover && t >= down_since_[j] + config_.detect_after) {
        recover(j, t);
      }
    }
  }

  /// Exact down-slot bookkeeping for scripted kills (on_slot would
  /// otherwise date the outage from its next tick).
  void notify_killed(std::uint32_t shard, sim::Slot t) {
    sync_topology();
    if (shard < down_since_.size()) down_since_[shard] = t;
  }

  /// Snapshots every live shard's coordinator now (also runs on the
  /// cadence). Dead shards keep their previous image.
  void checkpoint_now(sim::Slot /*t*/) {
    sync_topology();
    for (std::uint32_t j = 0; j < deployment_.num_shards(); ++j) {
      if (!deployment_.shard_alive(j)) continue;
      images_[j] = checkpoint(deployment_.coordinator(j));
      ++stats_.checkpoints;
      stats_.checkpoint_bytes += images_[j].size();
    }
  }

  /// Respawns shard `shard` and runs the verified-restore protocol
  /// against its latest image; degrades to resync-only after
  /// max_restore_attempts failures. Returns true if the image restored
  /// (false covers both no-image-yet and degraded recoveries — the
  /// shard is back and resynced either way).
  bool recover(std::uint32_t shard, sim::Slot t) {
    sync_topology();
    if (shard >= deployment_.num_shards()) {
      throw std::out_of_range("Supervisor::recover");
    }
    const sim::Slot down = down_since_[shard] == kNotDown
                               ? t
                               : down_since_[shard];
    deployment_.respawn_shard(shard);
    bool restored = false;
    std::uint64_t waited = 0;
    if (!images_[shard].empty()) {
      for (std::uint32_t attempt = 0;
           attempt < config_.max_restore_attempts && !restored; ++attempt) {
        if (attempt > 0) {
          const sim::Slot delay = backoff_delay(config_, attempt - 1);
          waited += delay;
          stats_.backoff_slots += delay;
        }
        ++stats_.restores_attempted;
        CheckpointImage transfer = images_[shard];  // copy: one "send"
        if (filter_) filter_(shard, transfer);
        if (verify_checkpoint_image(transfer) &&
            restore_into(deployment_.coordinator_mut(shard), transfer)) {
          restored = true;
        } else {
          ++stats_.restore_failures;
        }
      }
    }
    if (restored) {
      ++stats_.recoveries;
    } else {
      ++stats_.degraded_recoveries;
    }
    // Exactness comes from the resync regardless of the image: every
    // site re-offers its current local state to the fresh coordinator.
    deployment_.resync_shard(shard);
    deployment_.bus().finish();
    down_since_[shard] = kNotDown;
    const std::uint64_t latency = (t >= down ? t - down : 0) + waited;
    stats_.last_recovery_latency = latency;
    stats_.total_recovery_latency += latency;
    return restored;
  }

  /// Checkpoints the departing (last) shard, shrinks the deployment,
  /// and returns the drain image — the survivors re-derive its
  /// partition via migration + resync; the image is the caller's
  /// lossless record of the shard's final coordinator state.
  CheckpointImage drain_and_remove_shard() {
    sync_topology();
    const std::uint32_t last = deployment_.num_shards() - 1;
    CheckpointImage drained = checkpoint(deployment_.coordinator(last));
    deployment_.remove_shard();
    sync_topology();
    return drained;
  }

  /// Grows the deployment and the image store together.
  void add_shard() {
    deployment_.add_shard();
    sync_topology();
  }

  const RecoveryStats& stats() const noexcept { return stats_; }
  const SupervisorConfig& config() const noexcept { return config_; }

  /// Latest stored image for `shard` (empty until the first cadence
  /// tick or checkpoint_now).
  const CheckpointImage& latest_image(std::uint32_t shard) const {
    return images_.at(shard);
  }

  void bind_observability(obs::MetricsRegistry* registry) {
    if (registry == nullptr) return;
    registry->counter("supervisor.checkpoints", &stats_.checkpoints);
    registry->counter("supervisor.checkpoint_bytes", &stats_.checkpoint_bytes);
    registry->counter("supervisor.restores_attempted",
                      &stats_.restores_attempted);
    registry->counter("supervisor.restore_failures", &stats_.restore_failures);
    registry->counter("supervisor.recoveries", &stats_.recoveries);
    registry->counter("supervisor.degraded_recoveries",
                      &stats_.degraded_recoveries);
    registry->counter("supervisor.backoff_slots", &stats_.backoff_slots);
  }

 private:
  static constexpr sim::Slot kNotDown = static_cast<sim::Slot>(-1);

  /// Follows elastic resizes: the image store and down-tracking stay
  /// parallel to the deployment's shard vector.
  void sync_topology() {
    images_.resize(deployment_.num_shards());
    down_since_.resize(deployment_.num_shards(), kNotDown);
  }

  DeploymentT& deployment_;
  SupervisorConfig config_;
  std::vector<CheckpointImage> images_;  ///< latest good image per shard
  std::vector<sim::Slot> down_since_;    ///< kNotDown while alive
  ImageFilter filter_;
  RecoveryStats stats_;
};

}  // namespace dds::core
