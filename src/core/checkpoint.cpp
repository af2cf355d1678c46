#include "core/checkpoint.h"

#include <algorithm>
#include <array>

namespace dds::core {

namespace ckpt {

namespace {

constexpr std::array<std::uint64_t, 5> kMagics = {
    kInfiniteMagic, kSlidingMagic, kCandidateMagic, kFullSyncMagic,
    kBottomSMagic};

void put(CheckpointImage& out, std::uint64_t value) {
  util::put_le(out, value);
}

/// Reads a body's leading element count and bounds it by the bytes
/// actually present BEFORE anything is sized by it: a corrupted count
/// must yield nullopt, not a length_error out of reserve().
std::optional<std::size_t> get_count(util::ByteReader& in,
                                     std::size_t words_per_item) {
  const auto count = in.u64();
  if (!count || *count > in.remaining() / (8 * words_per_item)) {
    return std::nullopt;
  }
  return static_cast<std::size_t>(*count);
}

std::optional<treap::Candidate> get_tuple(util::ByteReader& in) {
  const auto element = in.u64();
  const auto hash = in.u64();
  const auto expiry = in.u64();
  if (!element || !hash || !expiry) return std::nullopt;
  return treap::Candidate{*element, *hash, static_cast<sim::Slot>(*expiry)};
}

void put_tuple(CheckpointImage& out, const treap::Candidate& c) {
  put(out, c.element);
  put(out, c.hash);
  put(out, static_cast<std::uint64_t>(c.expiry));
}

}  // namespace

CheckpointImage begin(std::uint64_t magic) {
  CheckpointImage out;
  put(out, magic);
  put(out, kVersion);
  return out;
}

void seal(CheckpointImage& out) { put(out, util::fnv1a(out)); }

std::optional<util::ByteReader> open(const CheckpointImage& image,
                                     std::uint64_t magic) {
  // The smallest sealed image is [magic][version][checksum].
  if (image.size() < 24) return std::nullopt;
  const std::size_t body_end = image.size() - 8;
  util::ByteReader in{image, 0, body_end};
  util::ByteReader sum{image, body_end, image.size()};
  if (in.u64() != magic || in.u64() != kVersion ||
      sum.u64() != util::fnv1a({image.data(), body_end})) {
    return std::nullopt;
  }
  return in;
}

void put_tuples(CheckpointImage& out,
                const std::vector<treap::Candidate>& items) {
  out.reserve(out.size() + 8 * (1 + 3 * items.size() + 1));
  put(out, items.size());
  for (const auto& c : items) put_tuple(out, c);
}

std::optional<std::vector<treap::Candidate>> get_tuples(util::ByteReader& in) {
  const auto count = get_count(in, 3);
  if (!count) return std::nullopt;
  std::vector<treap::Candidate> out;
  out.reserve(*count);
  for (std::size_t i = 0; i < *count; ++i) {
    const auto c = get_tuple(in);
    if (!c) return std::nullopt;
    out.push_back(*c);
  }
  return out;
}

void put_slots(CheckpointImage& out,
               const std::vector<std::optional<treap::Candidate>>& slots) {
  out.reserve(out.size() + 8 * (1 + 4 * slots.size() + 1));
  put(out, slots.size());
  for (const auto& slot : slots) {
    put(out, slot ? 1 : 0);
    put_tuple(out, slot.value_or(treap::Candidate{}));
  }
}

std::optional<std::vector<std::optional<treap::Candidate>>> get_slots(
    util::ByteReader& in) {
  const auto n = get_count(in, 4);
  if (!n) return std::nullopt;
  std::vector<std::optional<treap::Candidate>> out;
  out.reserve(*n);
  for (std::size_t i = 0; i < *n; ++i) {
    const auto has = in.u64();
    const auto c = get_tuple(in);
    if (!has || !c || *has > 1) return std::nullopt;
    out.push_back(*has == 1 ? std::optional(*c) : std::nullopt);
  }
  return out;
}

}  // namespace ckpt

bool verify_checkpoint_image(const CheckpointImage& image) {
  return std::ranges::any_of(ckpt::kMagics, [&](std::uint64_t magic) {
    return ckpt::open(image, magic).has_value();
  });
}

CheckpointImage checkpoint(const InfiniteWindowCoordinator& coordinator) {
  const auto entries = coordinator.sample().entries();
  CheckpointImage out = ckpt::begin(ckpt::kInfiniteMagic);
  out.reserve(8 * (4 + 2 * entries.size() + 2));
  ckpt::put(out, coordinator.sample().capacity());
  ckpt::put(out, entries.size());
  for (const auto& entry : entries) {
    ckpt::put(out, entry.element);
    ckpt::put(out, entry.hash);
  }
  ckpt::put(out, coordinator.threshold());
  ckpt::seal(out);
  return out;
}

std::optional<CheckpointContents> parse_checkpoint(
    const CheckpointImage& image) {
  auto in = ckpt::open(image, ckpt::kInfiniteMagic);
  if (!in) return std::nullopt;
  const auto capacity = in->u64();
  if (!capacity || *capacity == 0) return std::nullopt;
  const auto count = ckpt::get_count(*in, 2);
  if (!count || *count > *capacity) return std::nullopt;
  CheckpointContents contents;
  contents.sample_size = static_cast<std::size_t>(*capacity);
  contents.entries.reserve(*count);
  for (std::size_t i = 0; i < *count; ++i) {
    const auto element = in->u64();
    const auto hash = in->u64();
    if (!element || !hash) return std::nullopt;
    contents.entries.push_back(BottomSSample::Entry{*element, *hash});
  }
  const auto threshold = in->u64();
  if (!threshold || in->remaining() != 0) return std::nullopt;
  contents.threshold = *threshold;
  return contents;
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
  std::vector<std::optional<treap::Candidate>> copies;
  copies.reserve(coordinator.num_copies());
  for (std::size_t j = 0; j < coordinator.num_copies(); ++j) {
    copies.push_back(coordinator.copy(j).raw_sample());
  }
  CheckpointImage out = ckpt::begin(ckpt::kSlidingMagic);
  ckpt::put_slots(out, copies);
  ckpt::seal(out);
  return out;
}

std::optional<std::vector<std::optional<treap::Candidate>>>
parse_sliding_checkpoint(const CheckpointImage& image) {
  auto in = ckpt::open(image, ckpt::kSlidingMagic);
  if (!in) return std::nullopt;
  auto copies = ckpt::get_slots(*in);
  if (!copies || copies->empty() || in->remaining() != 0) return std::nullopt;
  return copies;
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
  CheckpointImage out = ckpt::begin(ckpt::kCandidateMagic);
  ckpt::put_tuples(out, items);
  ckpt::seal(out);
  return out;
}

std::optional<std::vector<treap::Candidate>> parse_candidates(
    const CheckpointImage& image) {
  auto in = ckpt::open(image, ckpt::kCandidateMagic);
  if (!in) return std::nullopt;
  auto items = ckpt::get_tuples(*in);
  if (!items || in->remaining() != 0) return std::nullopt;
  return items;
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
