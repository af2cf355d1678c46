// Checkpoint images for the full-sync coordinator family — the exact
// distributed protocols the chaos suite kills and restores.
//
// These are `checkpoint` / `restore_into` overloads in dds::baseline,
// deliberately named like the core ones: core/checkpoint.h's
// checkpoint_ensemble / restore_ensemble templates call them
// unqualified on `deployment.coordinator(j)`, so argument-dependent
// lookup lands here and the sharded-ensemble machinery (and the
// Supervisor built on it) works for FullSync and bottom-s deployments
// without core/ depending on baseline/.
//
// Both images go through the one codec in core/checkpoint.h (ckpt::begin
// / seal / open and its two shared body shapes), so they carry the same
// magic/version/checksum envelope and bounds checks as the core kinds:
//   FullSync ("DDS_FSYN"):     slots body, one per site
//     [magic][version][num_sites][has, element, hash, expiry] * num_sites
//     [checksum]
//   bottom-s pool ("DDS_BSPL"): [sample_size] + tuples body
//     [magic][version][sample_size][count][element, hash, expiry] * count
//     [checksum]
//
// Restore semantics mirror the protocols' order-robustness: a restored
// FullSync per-site entry carries sequence watermark 0 (any live report
// supersedes it), and a restored bottom-s pool is rebuilt through
// SDominanceSet::load_snapshot (insert keeps the freshest expiry, so
// reports racing the restore are harmless).
#pragma once

#include <optional>
#include <vector>

#include "baseline/fullsync_bottom_s.h"
#include "baseline/sliding_fullsync.h"
#include "core/checkpoint.h"

namespace dds::baseline {

using core::CheckpointImage;

/// Captures the per-site minima table of a FullSync coordinator.
CheckpointImage checkpoint(const FullSyncSlidingCoordinator& coordinator);

/// Parsed FullSync image — one optional entry per site; nullopt if the
/// image is malformed.
std::optional<std::vector<std::optional<treap::Candidate>>>
parse_fullsync_checkpoint(const CheckpointImage& image);

/// Writes a FullSync image into an existing coordinator. Returns false
/// — leaving the coordinator untouched — if the image is malformed or
/// its site count differs.
bool restore_into(FullSyncSlidingCoordinator& coordinator,
                  const CheckpointImage& image);

/// Captures the pooled candidate set of a bottom-s coordinator.
CheckpointImage checkpoint(const BottomSSlidingCoordinator& coordinator);

/// Parsed bottom-s pool image; nullopt if malformed.
struct BottomSCheckpointContents {
  std::size_t sample_size = 0;
  std::vector<treap::Candidate> items;
};
std::optional<BottomSCheckpointContents> parse_bottom_s_checkpoint(
    const CheckpointImage& image);

/// Writes a bottom-s pool image into an existing coordinator. Returns
/// false — leaving the coordinator untouched — if the image is
/// malformed or its sample size differs.
bool restore_into(BottomSSlidingCoordinator& coordinator,
                  const CheckpointImage& image);

}  // namespace dds::baseline
