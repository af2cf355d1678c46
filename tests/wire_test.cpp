// Wire-format fuzz suite (ISSUE 9 satellite 1).
//
// The load-bearing invariants:
//   * encode/decode round-trip symmetry for every sim::MsgType protocol
//     message, batches of every size the Batcher can flush, and the
//     handshake/teardown frames.
//   * A malformed frame is rejected WITHOUT touching the target: the
//     decoder returns nullopt and leaves the cursor exactly where it
//     was, for every prefix truncation length, every single-bit flip,
//     wrong magic/version, nonzero reserved bits, unknown or retired
//     kinds, inflated lengths, and trailing junk — the
//     CheckpointHardening pattern, at the wire layer.
//   * Checksummed-but-semantically-bad payloads (a batch count the
//     payload cannot hold, an out-of-range message type, a zero batch
//     count) are rejected by the payload validators even when the
//     frame-level checksum is recomputed to match.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "net/wire.h"
#include "util/rng.h"

namespace dds {
namespace {

namespace wire = net::wire;

sim::Message make_message(sim::MsgType type, std::uint64_t salt) {
  util::Xoshiro256StarStar rng(util::derive_seed(777, salt));
  sim::Message msg;
  msg.from = static_cast<sim::NodeId>(rng.next_below(8));
  msg.to = static_cast<sim::NodeId>(8 + rng.next_below(4));
  msg.type = type;
  msg.instance = static_cast<std::uint32_t>(rng.next());
  msg.a = rng.next();
  msg.b = rng.next();
  msg.c = rng.next();
  return msg;
}

bool same_message(const sim::Message& a, const sim::Message& b) {
  return a.from == b.from && a.to == b.to && a.type == b.type &&
         a.instance == b.instance && a.a == b.a && a.b == b.b && a.c == b.c;
}

/// FNV-1a over [begin, end) — the test's independent implementation,
/// used to re-seal frames after deliberate payload tampering so the
/// payload validators (not the checksum) are what rejects them.
std::uint64_t fnv1a(const wire::Buffer& in, std::size_t begin,
                    std::size_t end) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t i = begin; i < end; ++i) {
    h ^= in[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

void reseal(wire::Buffer& frame) {
  const std::size_t body_end = frame.size() - wire::kChecksumBytes;
  const std::uint64_t sum = fnv1a(frame, 0, body_end);
  for (int i = 0; i < 8; ++i) {
    frame[body_end + i] = static_cast<std::uint8_t>(sum >> (8 * i));
  }
}

/// Decode must fail AND leave the cursor untouched.
void expect_rejected(const wire::Buffer& bytes) {
  std::size_t pos = 0;
  EXPECT_EQ(wire::decode_frame(bytes, pos), std::nullopt);
  EXPECT_EQ(pos, 0u);
}

// --------------------------- round trips ------------------------------

TEST(WireFormat, RoundTripEveryMessageType) {
  for (std::uint8_t t = 0; t < sim::kNumMsgTypes; ++t) {
    const sim::Message msg = make_message(static_cast<sim::MsgType>(t), t);
    wire::Buffer frame;
    wire::encode_message(msg, frame);
    EXPECT_EQ(frame.size(), wire::message_frame_bytes());
    std::size_t pos = 0;
    const auto decoded = wire::decode_frame(frame, pos);
    ASSERT_TRUE(decoded.has_value()) << "type " << int(t);
    EXPECT_EQ(pos, frame.size());
    EXPECT_EQ(decoded->kind, wire::FrameKind::kMessage);
    ASSERT_EQ(decoded->msgs.size(), 1u);
    EXPECT_TRUE(same_message(decoded->msgs.front(), msg));
  }
}

TEST(WireFormat, RoundTripBatchesOfEverySize) {
  for (const std::size_t n : {1u, 2u, 7u, 64u}) {
    std::vector<sim::Message> msgs;
    for (std::size_t i = 0; i < n; ++i) {
      sim::Message msg = make_message(sim::MsgType::kReportElement, i);
      msg.from = 3;  // one (from, to) per batch — the Batcher invariant
      msg.to = 9;
      msgs.push_back(msg);
    }
    wire::Buffer frame;
    wire::encode_batch(msgs, frame);
    EXPECT_EQ(frame.size(), wire::batch_frame_bytes(n));
    std::size_t pos = 0;
    const auto decoded = wire::decode_frame(frame, pos);
    ASSERT_TRUE(decoded.has_value()) << "batch of " << n;
    EXPECT_EQ(decoded->kind, wire::FrameKind::kBatch);
    ASSERT_EQ(decoded->msgs.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(same_message(decoded->msgs[i], msgs[i]));
    }
  }
}

TEST(WireFormat, BatchEncoderEnforcesRoutingInvariant) {
  wire::Buffer out;
  EXPECT_THROW(wire::encode_batch({}, out), std::invalid_argument);
  sim::Message a = make_message(sim::MsgType::kReportElement, 1);
  sim::Message b = a;
  b.to = a.to + 1;
  const std::vector<sim::Message> mixed{a, b};
  EXPECT_THROW(wire::encode_batch(mixed, out), std::invalid_argument);
  EXPECT_TRUE(out.empty());  // a refused encode appends nothing
}

TEST(WireFormat, RoundTripHandshakeAndFin) {
  const wire::Hello hello{4, 12, 3, 0xDEADBEEFCAFEF00DULL};
  wire::Buffer frame;
  wire::encode_hello(hello, frame);
  std::size_t pos = 0;
  auto decoded = wire::decode_frame(frame, pos);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->kind, wire::FrameKind::kHello);
  EXPECT_EQ(decoded->hello, hello);

  frame.clear();
  wire::encode_welcome(hello, frame);
  pos = 0;
  decoded = wire::decode_frame(frame, pos);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->kind, wire::FrameKind::kWelcome);
  EXPECT_EQ(decoded->hello, hello);

  const wire::Fin fin{7, 123456789ULL};
  frame.clear();
  wire::encode_fin(fin, frame);
  pos = 0;
  decoded = wire::decode_frame(frame, pos);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->kind, wire::FrameKind::kFin);
  EXPECT_EQ(decoded->fin, fin);
}

// ------------------------------ fuzzing -------------------------------

/// One representative good frame per kind.
std::vector<wire::Buffer> good_frames() {
  std::vector<wire::Buffer> frames;
  {
    wire::Buffer f;
    wire::encode_message(make_message(sim::MsgType::kThresholdReply, 11), f);
    frames.push_back(std::move(f));
  }
  {
    std::vector<sim::Message> msgs;
    for (std::size_t i = 0; i < 5; ++i) {
      sim::Message msg = make_message(sim::MsgType::kReportElement, 20 + i);
      msg.from = 1;
      msg.to = 8;
      msgs.push_back(msg);
    }
    wire::Buffer f;
    wire::encode_batch(msgs, f);
    frames.push_back(std::move(f));
  }
  {
    wire::Buffer f;
    wire::encode_hello(wire::Hello{0, 4, 1, 42}, f);
    frames.push_back(std::move(f));
  }
  {
    wire::Buffer f;
    wire::encode_welcome(wire::Hello{4, 4, 1, 42}, f);
    frames.push_back(std::move(f));
  }
  {
    wire::Buffer f;
    wire::encode_fin(wire::Fin{2, 999}, f);
    frames.push_back(std::move(f));
  }
  return frames;
}

TEST(WireFuzz, EveryTruncationRejected) {
  for (const auto& frame : good_frames()) {
    for (std::size_t len = 0; len < frame.size(); ++len) {
      const wire::Buffer prefix(frame.begin(),
                                frame.begin() + static_cast<long>(len));
      expect_rejected(prefix);
    }
  }
}

TEST(WireFuzz, EverySingleBitFlipRejected) {
  // The trailing checksum covers header and payload, so no single-bit
  // flip anywhere in the frame may survive decoding.
  for (const auto& frame : good_frames()) {
    for (std::size_t byte = 0; byte < frame.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        wire::Buffer mutated = frame;
        mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
        expect_rejected(mutated);
      }
    }
  }
}

TEST(WireFuzz, WrongMagicVersionReservedAndKindRejected) {
  for (const auto& frame : good_frames()) {
    wire::Buffer wrong_magic = frame;
    wrong_magic[0] ^= 0xFF;
    reseal(wrong_magic);  // even with a matching checksum
    expect_rejected(wrong_magic);

    wire::Buffer wrong_version = frame;
    wrong_version[4] = wire::kVersion + 1;
    reseal(wrong_version);
    expect_rejected(wrong_version);

    wire::Buffer reserved_set = frame;
    reserved_set[6] = 0x01;
    reseal(reserved_set);
    expect_rejected(reserved_set);

    wire::Buffer bad_kind = frame;
    bad_kind[5] = 0x7F;  // no such FrameKind
    reseal(bad_kind);
    expect_rejected(bad_kind);

    wire::Buffer zero_kind = frame;
    zero_kind[5] = 0;
    reseal(zero_kind);
    expect_rejected(zero_kind);

    // Kind 3 once framed checkpoint images; it is retired, not reused.
    wire::Buffer retired_kind = frame;
    retired_kind[5] = 3;
    reseal(retired_kind);
    expect_rejected(retired_kind);
    EXPECT_FALSE(wire::incomplete_prefix(
        wire::Buffer(retired_kind.begin(), retired_kind.begin() + 6), 0));
  }
}

TEST(WireFuzz, TrailingJunkIsNotPartOfTheFrame) {
  // Frames are self-delimiting: junk after a valid frame must neither
  // break the frame nor be consumed with it — and decoding the junk
  // itself must fail cleanly, cursor untouched.
  for (const auto& frame : good_frames()) {
    wire::Buffer with_junk = frame;
    with_junk.insert(with_junk.end(), {0xDE, 0xAD, 0xBE, 0xEF});
    std::size_t pos = 0;
    const auto decoded = wire::decode_frame(with_junk, pos);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(pos, frame.size());
    const std::size_t junk_start = pos;
    EXPECT_EQ(wire::decode_frame(with_junk, pos), std::nullopt);
    EXPECT_EQ(pos, junk_start);
  }
}

TEST(WireFuzz, ResealedSemanticDamageStillRejected) {
  // Damage the payload, fix the checksum: the payload validators must
  // reject on their own.
  {
    // Batch count inflated beyond what the payload can hold — the
    // decoder must refuse BEFORE trusting the count for a reserve.
    std::vector<sim::Message> msgs(3, make_message(sim::MsgType::kReportElement, 1));
    wire::Buffer frame;
    wire::encode_batch(msgs, frame);
    wire::Buffer inflated = frame;
    inflated[wire::kHeaderBytes + 8] = 0xFF;  // count field, low byte
    inflated[wire::kHeaderBytes + 9] = 0xFF;
    reseal(inflated);
    expect_rejected(inflated);
  }
  {
    // Message type byte outside the MsgType enum.
    wire::Buffer frame;
    wire::encode_message(make_message(sim::MsgType::kReportElement, 2), frame);
    wire::Buffer bad_type = frame;
    bad_type[wire::kHeaderBytes + 8] = sim::kNumMsgTypes;  // type byte
    reseal(bad_type);
    expect_rejected(bad_type);
  }
  {
    // Batch whose declared count is zero.
    std::vector<sim::Message> msgs(1, make_message(sim::MsgType::kReportElement, 3));
    wire::Buffer zero_count;
    wire::encode_batch(msgs, zero_count);
    ASSERT_EQ(zero_count.size(), wire::batch_frame_bytes(1));
    for (int i = 0; i < 4; ++i) zero_count[wire::kHeaderBytes + 8 + i] = 0;
    reseal(zero_count);
    expect_rejected(zero_count);
  }
}

TEST(WireFuzz, IncompletePrefixClassifiesWaitVsCorrupt) {
  const auto frames = good_frames();
  for (const auto& frame : frames) {
    // Every proper prefix of a good frame: "wait for more bytes".
    for (std::size_t len = 0; len < frame.size(); ++len) {
      const wire::Buffer prefix(frame.begin(),
                                frame.begin() + static_cast<long>(len));
      EXPECT_TRUE(wire::incomplete_prefix(prefix, 0)) << "len " << len;
    }
    // A complete frame is not "incomplete".
    EXPECT_FALSE(wire::incomplete_prefix(frame, 0));
    // Corrupt leading bytes: not a prefix of anything ours.
    wire::Buffer wrong = frame;
    wrong[0] ^= 0xFF;
    EXPECT_FALSE(wire::incomplete_prefix(wrong, 0));
    wire::Buffer bad_version(frame.begin(), frame.begin() + 5);
    bad_version[4] = wire::kVersion + 7;
    EXPECT_FALSE(wire::incomplete_prefix(bad_version, 0));
  }
}

TEST(WireFuzz, BackToBackFramesDecodeInSequence) {
  // The TCP stream shape: many frames glued together decode one by one
  // with the cursor landing exactly on each boundary.
  const auto frames = good_frames();
  wire::Buffer stream;
  for (const auto& frame : frames) {
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  std::size_t pos = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto decoded = wire::decode_frame(stream, pos);
    ASSERT_TRUE(decoded.has_value()) << "frame " << i;
  }
  EXPECT_EQ(pos, stream.size());
}

}  // namespace
}  // namespace dds
