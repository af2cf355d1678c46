// Coordinator checkpointing and failover.
//
// The coordinator is the single stateful hub of the protocol (sites are
// O(1)); in a real deployment it is the component one would replicate.
// This module serializes the infinite-window coordinator's state — the
// sample P and the threshold u — to a portable byte image, and restores
// it into a fresh coordinator.
//
// Failover semantics. Hashes only decrease u over time, so a restored
// checkpoint is a VALID uniform sample of the distinct elements seen up
// to checkpoint time; elements that arrived between the checkpoint and
// the crash may be missing and, because sites hold thresholds smaller
// than the restored u, would never be re-reported on their own. The
// `resync` helper closes that gap: it broadcasts a threshold reset
// (u_i <- 1) to every site — k messages — after which every element
// that belongs in the sample is re-offered on its next arrival. Tests
// verify the restored+resynced deployment converges to the exact
// bottom-s on re-exposure.
//
// Every image kind — the three here and the FullSync and bottom-s
// coordinator images in baseline/baseline_checkpoint.h — is written and
// read by the one codec in namespace ckpt below, over the little-endian
// primitives of util/le_bytes.h. The format is versioned and
// endian-stable (little-endian u64s). Version 2 — the current writer —
// appends a trailing FNV-1a checksum over every preceding byte, so
// in-flight corruption and truncation are detected before any state is
// touched; ckpt::open checks magic, version and checksum once for every
// kind. Version-1 images (no checksum) are rejected like any other
// unknown version. Each image is [magic u64][version u64][body]
// [checksum u64], and the bodies come in two shared shapes plus one:
//   tuples  [count][element, hash, expiry] * count   (ckpt::put_tuples)
//   slots   [n][has, element, hash, expiry] * n      (ckpt::put_slots)
// Bodies per kind:
//   infinite  ("DDS_CKPT")  [sample_size][count][element, hash] * count [u]
//   sliding   ("DDS_SCKP")  slots, one per protocol copy
//   candidate ("DDS_CAND")  tuples: a DominanceSet / SDominanceSet
//                           snapshot() (lossless site failover)
//   fullsync  ("DDS_FSYN")  slots, one per site       (baseline/)
//   bottom-s  ("DDS_BSPL")  [sample_size] tuples      (baseline/)
// A parser accepts an image only if its body is consumed exactly. The
// baseline overloads are found by the ensemble templates below through
// argument-dependent lookup.
// A sharded deployment's coordinator ensemble is simply one image per
// shard (checkpoint_ensemble / restore_ensemble below): shards are
// independent protocol instances, so per-shard images compose without
// any cross-shard coordination, and a restored ensemble answers merged
// queries at the checkpoint slot exactly as the original did.
//
// Sliding failover semantics: the restored coordinator serves queries
// for tuples that were valid at checkpoint time; anything adopted
// between checkpoint and crash is lost, but the lazy scheme self-heals
// without a resync broadcast — every site's sample view expires within
// one window, and an expired view makes the site re-offer its local
// minimum (Algorithm 3 lines 21-25), refilling the coordinator. So the
// answer is fully caught up after at most w slots of re-exposure,
// which the restore tests exercise.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/infinite_coordinator.h"
#include "core/multi_sliding.h"
#include "net/transport.h"
#include "obs/trace.h"
#include "treap/dominance_set.h"
#include "util/le_bytes.h"

namespace dds::core {

/// Serialized coordinator image.
using CheckpointImage = std::vector<std::uint8_t>;

// ---- the one image codec (protocol image writers build on it;
// ---- baseline/baseline_checkpoint.cpp is the other user) -------------
namespace ckpt {

/// Format version written by every checkpoint producer in this repo.
/// Version 2 added the trailing checksum; it is the only version parsed.
inline constexpr std::uint64_t kVersion = 2;

// Image magics (ASCII tags). All five live here — including the two
// used by baseline/baseline_checkpoint.cpp — so that
// verify_checkpoint_image() can recognize every image kind without a
// reverse dependency on the protocol modules.
inline constexpr std::uint64_t kInfiniteMagic = 0x4444535F434B5054ULL;   // "DDS_CKPT"
inline constexpr std::uint64_t kSlidingMagic = 0x4444535F53434B50ULL;    // "DDS_SCKP"
inline constexpr std::uint64_t kCandidateMagic = 0x4444535F43414E44ULL;  // "DDS_CAND"
inline constexpr std::uint64_t kFullSyncMagic = 0x4444535F4653594EULL;   // "DDS_FSYN"
inline constexpr std::uint64_t kBottomSMagic = 0x4444535F4253504CULL;    // "DDS_BSPL"

/// Starts an image: [magic][version]. Append the body with util::put_le
/// and the body codecs below, then seal().
CheckpointImage begin(std::uint64_t magic);

/// Seals a finished body by appending the trailing checksum. Call
/// exactly once, after the last body word.
void seal(CheckpointImage& out);

/// Checks the magic, the version and the trailing checksum; returns a
/// reader over the body (between the version and the checksum), or
/// nullopt if any check fails. A parser reads its fields from it and
/// then requires that nothing is left. The reader views `image`, which
/// must outlive it.
std::optional<util::ByteReader> open(const CheckpointImage& image,
                                     std::uint64_t magic);

/// Tuple-list body: [count][element, hash, expiry] * count. The
/// readers reject a count the remaining bytes cannot hold before
/// sizing anything by it.
void put_tuples(CheckpointImage& out,
                const std::vector<treap::Candidate>& items);
std::optional<std::vector<treap::Candidate>> get_tuples(util::ByteReader& in);

/// Slot-table body: [n][has, element, hash, expiry] * n; an empty slot
/// is written as four words with has = 0 and the rest zero.
void put_slots(CheckpointImage& out,
               const std::vector<std::optional<treap::Candidate>>& slots);
std::optional<std::vector<std::optional<treap::Candidate>>> get_slots(
    util::ByteReader& in);

}  // namespace ckpt

/// Type-agnostic integrity check: the image leads with a known magic
/// and the current version, and its checksum verifies. This is the
/// supervisor's pre-restore gate — cheap enough to run on every
/// transferred image, catching bit-flips and truncation before any
/// protocol-specific parse is attempted.
bool verify_checkpoint_image(const CheckpointImage& image);

/// Captures sample + threshold.
CheckpointImage checkpoint(const InfiniteWindowCoordinator& coordinator);

/// Parsed view of an image; nullopt if the image is malformed.
struct CheckpointContents {
  std::size_t sample_size = 0;
  std::vector<BottomSSample::Entry> entries;
  std::uint64_t threshold = 0;
};
std::optional<CheckpointContents> parse_checkpoint(const CheckpointImage& image);

/// Writes an image's sample + threshold into an existing coordinator (a
/// fresh deployment's shard). Returns false — leaving the coordinator
/// untouched — if the image is malformed or its sample size differs.
bool restore_into(InfiniteWindowCoordinator& coordinator,
                  const CheckpointImage& image);

/// Broadcasts a threshold reset (u_i <- 1) from the coordinator to all
/// k sites — the post-failover resynchronization step. Costs exactly k
/// messages.
void resync_sites(sim::NodeId coordinator_id, net::Transport& bus,
                  std::uint32_t instance = 0);

// ---- sliding-window coordinators ------------------------------------

/// Captures the s per-copy (e*, u*, t*) tuples of a (possibly sharded)
/// sliding coordinator.
CheckpointImage checkpoint(const MultiSlidingCoordinator& coordinator);

/// Parsed view of a sliding image; nullopt if malformed. One optional
/// tuple per protocol copy.
std::optional<std::vector<std::optional<treap::Candidate>>>
parse_sliding_checkpoint(const CheckpointImage& image);

/// Writes an image's tuples into an existing coordinator (a fresh
/// deployment's shard). Returns false — leaving the coordinator
/// untouched — if the image is malformed or its copy count differs.
bool restore_into(MultiSlidingCoordinator& coordinator,
                  const CheckpointImage& image);

// ---- candidate-set images (lossless site failover) -------------------

/// Serializes a DominanceSet / SDominanceSet snapshot() — the payload a
/// site needs to resume exactly where a lost replica stopped. Protocol-
/// agnostic: FullSync single-sample and bottom-s sites share the format
/// (the set's own parameters, s and seed, come from the deployment
/// recipe, not the image).
CheckpointImage checkpoint_candidates(const std::vector<treap::Candidate>& items);

/// Parses a candidate-set image; nullopt if malformed. Feed the result
/// to the site's restore_candidates() / load_snapshot().
std::optional<std::vector<treap::Candidate>> parse_candidates(
    const CheckpointImage& image);

/// Checkpoints every coordinator shard of a sliding deployment — the
/// sharded-ensemble image is one independent image per shard.
template <typename Deployment>
std::vector<CheckpointImage> checkpoint_ensemble(const Deployment& deployment) {
  std::vector<CheckpointImage> images;
  images.reserve(deployment.num_shards());
  std::size_t bytes = 0;
  for (std::uint32_t j = 0; j < deployment.num_shards(); ++j) {
    images.push_back(checkpoint(deployment.coordinator(j)));
    bytes += images.back().size();
  }
  if (obs::Tracer* tracer = deployment.observability().tracer()) {
    tracer->instant(
        "ckpt", "checkpoint",
        static_cast<double>(deployment.engine().current_slot()), 0,
        {{"shards", static_cast<double>(images.size())},
         {"bytes", static_cast<double>(bytes)}});
  }
  return images;
}

/// Restores a sharded ensemble image into a fresh deployment of the
/// same shape (same num_shards and sample_size). Returns false — with
/// no guarantee about partially restored shards — on a shape mismatch
/// or a malformed image.
template <typename Deployment>
bool restore_ensemble(Deployment& deployment,
                      const std::vector<CheckpointImage>& images) {
  if (images.size() != deployment.num_shards()) return false;
  for (std::uint32_t j = 0; j < deployment.num_shards(); ++j) {
    if (!restore_into(deployment.coordinator_mut(j), images[j])) return false;
  }
  if (obs::Tracer* tracer = deployment.observability().tracer()) {
    tracer->instant(
        "ckpt", "restore",
        static_cast<double>(deployment.engine().current_slot()), 0,
        {{"shards", static_cast<double>(images.size())}});
  }
  return true;
}

}  // namespace dds::core
