#include "core/checkpoint.h"

#include <cstring>

namespace dds::core {

namespace ckpt {

void put_u64(CheckpointImage& out, std::uint64_t value) {
  for (int b = 0; b < 8; ++b) {
    out.push_back(static_cast<std::uint8_t>(value >> (8 * b)));
  }
}

std::optional<std::uint64_t> get_u64(const CheckpointImage& in,
                                     std::size_t& pos) {
  if (pos + 8 > in.size()) return std::nullopt;
  std::uint64_t value = 0;
  for (int b = 0; b < 8; ++b) {
    value |= static_cast<std::uint64_t>(in[pos + b]) << (8 * b);
  }
  pos += 8;
  return value;
}

std::uint64_t fnv1a(const CheckpointImage& in, std::size_t begin,
                    std::size_t end) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t i = begin; i < end; ++i) {
    h ^= in[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

void seal(CheckpointImage& out) {
  put_u64(out, fnv1a(out, 0, out.size()));
}

std::optional<std::size_t> body_end(const CheckpointImage& image,
                                    std::uint64_t version) {
  if (version != kVersion) return std::nullopt;
  // The last word is the checksum over everything before it. The
  // smallest sealable image is [magic][version][checksum].
  if (image.size() < 24) return std::nullopt;
  const std::size_t end = image.size() - 8;
  std::size_t pos = end;
  const auto stored = get_u64(image, pos);
  if (!stored || *stored != fnv1a(image, 0, end)) return std::nullopt;
  return end;
}

}  // namespace ckpt

bool verify_checkpoint_image(const CheckpointImage& image) {
  std::size_t pos = 0;
  const auto magic = ckpt::get_u64(image, pos);
  const auto version = ckpt::get_u64(image, pos);
  if (!magic || !version) return false;
  if (*magic != ckpt::kInfiniteMagic && *magic != ckpt::kSlidingMagic &&
      *magic != ckpt::kCandidateMagic && *magic != ckpt::kFullSyncMagic &&
      *magic != ckpt::kBottomSMagic) {
    return false;
  }
  return ckpt::body_end(image, *version).has_value();
}

CheckpointImage checkpoint(const InfiniteWindowCoordinator& coordinator) {
  const auto entries = coordinator.sample().entries();
  CheckpointImage out;
  out.reserve(8 * (4 + 2 * entries.size() + 2));
  ckpt::put_u64(out, ckpt::kInfiniteMagic);
  ckpt::put_u64(out, ckpt::kVersion);
  ckpt::put_u64(out, coordinator.sample().capacity());
  ckpt::put_u64(out, entries.size());
  for (const auto& entry : entries) {
    ckpt::put_u64(out, entry.element);
    ckpt::put_u64(out, entry.hash);
  }
  ckpt::put_u64(out, coordinator.threshold());
  ckpt::seal(out);
  return out;
}

std::optional<CheckpointContents> parse_checkpoint(
    const CheckpointImage& image) {
  std::size_t pos = 0;
  const auto magic = ckpt::get_u64(image, pos);
  const auto version = ckpt::get_u64(image, pos);
  if (!magic || *magic != ckpt::kInfiniteMagic) return std::nullopt;
  if (!version) return std::nullopt;
  const auto end = ckpt::body_end(image, *version);
  if (!end) return std::nullopt;
  const auto capacity = ckpt::get_u64(image, pos);
  const auto count = ckpt::get_u64(image, pos);
  if (!capacity || *capacity == 0 || !count || *count > *capacity) {
    return std::nullopt;
  }
  // Bound the count by the bytes actually present BEFORE reserving by
  // it: a corrupted count must yield nullopt, not a length_error.
  if (*count > (*end - pos) / 16) return std::nullopt;
  CheckpointContents contents;
  contents.sample_size = static_cast<std::size_t>(*capacity);
  contents.entries.reserve(static_cast<std::size_t>(*count));
  for (std::uint64_t i = 0; i < *count; ++i) {
    const auto element = ckpt::get_u64(image, pos);
    const auto hash = ckpt::get_u64(image, pos);
    if (!element || !hash) return std::nullopt;
    contents.entries.push_back(BottomSSample::Entry{*element, *hash});
  }
  const auto threshold = ckpt::get_u64(image, pos);
  if (!threshold || pos != *end) return std::nullopt;
  contents.threshold = *threshold;
  return contents;
}

std::unique_ptr<InfiniteWindowCoordinator> restore_coordinator(
    sim::NodeId id, const CheckpointImage& image, std::uint32_t instance,
    bool eager_threshold) {
  const auto contents = parse_checkpoint(image);
  if (!contents) return nullptr;
  auto coordinator = std::make_unique<InfiniteWindowCoordinator>(
      id, contents->sample_size, instance, eager_threshold);
  coordinator->restore(contents->entries, contents->threshold);
  return coordinator;
}

bool restore_into(InfiniteWindowCoordinator& coordinator,
                  const CheckpointImage& image) {
  const auto contents = parse_checkpoint(image);
  if (!contents || contents->sample_size != coordinator.sample().capacity()) {
    return false;
  }
  coordinator.restore(contents->entries, contents->threshold);
  return true;
}

CheckpointImage checkpoint(const MultiSlidingCoordinator& coordinator) {
  CheckpointImage out;
  const std::size_t copies = coordinator.num_copies();
  out.reserve(8 * (3 + 4 * copies + 1));
  ckpt::put_u64(out, ckpt::kSlidingMagic);
  ckpt::put_u64(out, ckpt::kVersion);
  ckpt::put_u64(out, copies);
  for (std::size_t j = 0; j < copies; ++j) {
    const auto stored = coordinator.copy(j).raw_sample();
    ckpt::put_u64(out, stored ? 1 : 0);
    ckpt::put_u64(out, stored ? stored->element : 0);
    ckpt::put_u64(out, stored ? stored->hash : 0);
    ckpt::put_u64(out, stored ? static_cast<std::uint64_t>(stored->expiry) : 0);
  }
  ckpt::seal(out);
  return out;
}

std::optional<std::vector<std::optional<treap::Candidate>>>
parse_sliding_checkpoint(const CheckpointImage& image) {
  std::size_t pos = 0;
  const auto magic = ckpt::get_u64(image, pos);
  const auto version = ckpt::get_u64(image, pos);
  if (!magic || *magic != ckpt::kSlidingMagic) return std::nullopt;
  if (!version) return std::nullopt;
  const auto end = ckpt::body_end(image, *version);
  if (!end) return std::nullopt;
  // Validate the copy count against the image's actual size BEFORE
  // sizing anything by it: a corrupted count must yield nullopt, not a
  // length_error out of reserve(). The bound check comes first so the
  // exact-size formula cannot overflow on a huge count.
  const auto copies = ckpt::get_u64(image, pos);
  if (!copies || *copies == 0 || *copies > image.size() / 32 ||
      *end != 8 * (3 + 4 * *copies)) {
    return std::nullopt;
  }
  std::vector<std::optional<treap::Candidate>> out;
  out.reserve(static_cast<std::size_t>(*copies));
  for (std::uint64_t j = 0; j < *copies; ++j) {
    const auto has = ckpt::get_u64(image, pos);
    const auto element = ckpt::get_u64(image, pos);
    const auto hash = ckpt::get_u64(image, pos);
    const auto expiry = ckpt::get_u64(image, pos);
    if (!has || !element || !hash || !expiry || *has > 1) return std::nullopt;
    if (*has == 1) {
      out.push_back(treap::Candidate{*element, *hash,
                                     static_cast<sim::Slot>(*expiry)});
    } else {
      out.push_back(std::nullopt);
    }
  }
  if (pos != *end) return std::nullopt;
  return out;
}

std::unique_ptr<MultiSlidingCoordinator> restore_sliding_coordinator(
    sim::NodeId id, const CheckpointImage& image) {
  const auto contents = parse_sliding_checkpoint(image);
  if (!contents) return nullptr;
  auto coordinator =
      std::make_unique<MultiSlidingCoordinator>(id, contents->size());
  for (std::size_t j = 0; j < contents->size(); ++j) {
    coordinator->restore_copy(j, (*contents)[j]);
  }
  return coordinator;
}

bool restore_into(MultiSlidingCoordinator& coordinator,
                  const CheckpointImage& image) {
  const auto contents = parse_sliding_checkpoint(image);
  if (!contents || contents->size() != coordinator.num_copies()) return false;
  for (std::size_t j = 0; j < contents->size(); ++j) {
    coordinator.restore_copy(j, (*contents)[j]);
  }
  return true;
}

CheckpointImage checkpoint_candidates(
    const std::vector<treap::Candidate>& items) {
  CheckpointImage out;
  out.reserve(8 * (3 + 3 * items.size() + 1));
  ckpt::put_u64(out, ckpt::kCandidateMagic);
  ckpt::put_u64(out, ckpt::kVersion);
  ckpt::put_u64(out, items.size());
  for (const auto& c : items) {
    ckpt::put_u64(out, c.element);
    ckpt::put_u64(out, c.hash);
    ckpt::put_u64(out, static_cast<std::uint64_t>(c.expiry));
  }
  ckpt::seal(out);
  return out;
}

std::optional<std::vector<treap::Candidate>> parse_candidates(
    const CheckpointImage& image) {
  std::size_t pos = 0;
  const auto magic = ckpt::get_u64(image, pos);
  const auto version = ckpt::get_u64(image, pos);
  if (!magic || *magic != ckpt::kCandidateMagic) return std::nullopt;
  if (!version) return std::nullopt;
  const auto end = ckpt::body_end(image, *version);
  if (!end) return std::nullopt;
  // Size-bound first, so the exact-size formula cannot overflow on a
  // corrupted (huge) count.
  const auto count = ckpt::get_u64(image, pos);
  if (!count || *count > image.size() / 24 ||
      *end != 8 * (3 + 3 * *count)) {
    return std::nullopt;
  }
  std::vector<treap::Candidate> out;
  out.reserve(static_cast<std::size_t>(*count));
  for (std::uint64_t i = 0; i < *count; ++i) {
    const auto element = ckpt::get_u64(image, pos);
    const auto hash = ckpt::get_u64(image, pos);
    const auto expiry = ckpt::get_u64(image, pos);
    if (!element || !hash || !expiry) return std::nullopt;
    out.push_back(
        treap::Candidate{*element, *hash, static_cast<sim::Slot>(*expiry)});
  }
  if (pos != *end) return std::nullopt;
  return out;
}

void resync_sites(sim::NodeId coordinator_id, net::Transport& bus,
                  std::uint32_t instance) {
  for (std::uint32_t i = 0; i < bus.num_sites(); ++i) {
    sim::Message msg;
    msg.from = coordinator_id;
    msg.to = i;
    msg.type = sim::MsgType::kThresholdBroadcast;
    msg.instance = instance;
    msg.b = hash::kHashMax;  // u_i <- 1: report everything again
    bus.send(msg);
  }
  bus.drain();
}

}  // namespace dds::core
