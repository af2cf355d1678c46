#include "baseline/baseline_checkpoint.h"

#include <utility>

namespace dds::baseline {

namespace ckpt = core::ckpt;

CheckpointImage checkpoint(const FullSyncSlidingCoordinator& coordinator) {
  std::vector<std::optional<treap::Candidate>> entries;
  entries.reserve(coordinator.num_sites());
  for (std::uint32_t i = 0; i < coordinator.num_sites(); ++i) {
    entries.push_back(coordinator.site_entry(i));
  }
  CheckpointImage out = ckpt::begin(ckpt::kFullSyncMagic);
  ckpt::put_slots(out, entries);
  ckpt::seal(out);
  return out;
}

std::optional<std::vector<std::optional<treap::Candidate>>>
parse_fullsync_checkpoint(const CheckpointImage& image) {
  auto in = ckpt::open(image, ckpt::kFullSyncMagic);
  if (!in) return std::nullopt;
  auto entries = ckpt::get_slots(*in);
  if (!entries || in->remaining() != 0) return std::nullopt;
  return entries;
}

bool restore_into(FullSyncSlidingCoordinator& coordinator,
                  const CheckpointImage& image) {
  const auto contents = parse_fullsync_checkpoint(image);
  if (!contents || contents->size() != coordinator.num_sites()) return false;
  for (std::uint32_t i = 0; i < coordinator.num_sites(); ++i) {
    coordinator.restore_site(i, (*contents)[i]);
  }
  return true;
}

CheckpointImage checkpoint(const BottomSSlidingCoordinator& coordinator) {
  CheckpointImage out = ckpt::begin(ckpt::kBottomSMagic);
  util::put_le<std::uint64_t>(out, coordinator.pool().sample_size());
  ckpt::put_tuples(out, coordinator.pool().snapshot());
  ckpt::seal(out);
  return out;
}

std::optional<BottomSCheckpointContents> parse_bottom_s_checkpoint(
    const CheckpointImage& image) {
  auto in = ckpt::open(image, ckpt::kBottomSMagic);
  if (!in) return std::nullopt;
  const auto s = in->u64();
  if (!s || *s == 0) return std::nullopt;
  auto items = ckpt::get_tuples(*in);
  if (!items || in->remaining() != 0) return std::nullopt;
  return BottomSCheckpointContents{static_cast<std::size_t>(*s),
                                   std::move(*items)};
}

bool restore_into(BottomSSlidingCoordinator& coordinator,
                  const CheckpointImage& image) {
  const auto contents = parse_bottom_s_checkpoint(image);
  if (!contents || contents->sample_size != coordinator.pool().sample_size()) {
    return false;
  }
  coordinator.restore_pool(contents->items);
  return true;
}

}  // namespace dds::baseline
