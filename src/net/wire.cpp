#include "net/wire.h"

#include <stdexcept>

#include "util/le_bytes.h"

namespace dds::net::wire {

namespace {

using util::ByteReader;
using util::put_le;

/// Frame kinds a decoder accepts; 3 (the retired image frame) is not one.
bool known_kind(std::uint8_t kind) {
  return kind >= static_cast<std::uint8_t>(FrameKind::kMessage) &&
         kind <= static_cast<std::uint8_t>(FrameKind::kFin) &&
         kind != 3;
}

/// Appends header + payload + checksum. `payload` writers run between
/// the two fixed parts via the callback so the length is known.
template <typename PayloadWriter>
void encode_frame(FrameKind kind, Buffer& out, PayloadWriter&& write) {
  const std::size_t start = out.size();
  put_le<std::uint32_t>(out, kMagic);
  put_le<std::uint8_t>(out, kVersion);
  put_le(out, static_cast<std::uint8_t>(kind));
  put_le<std::uint16_t>(out, 0);  // reserved
  put_le<std::uint32_t>(out, 0);  // length patched below
  const std::size_t payload_start = out.size();
  write(out);
  const std::size_t payload = out.size() - payload_start;
  if (payload > kMaxPayload) {
    throw std::invalid_argument("wire: payload exceeds kMaxPayload");
  }
  for (int i = 0; i < 4; ++i) {
    out[start + 8 + i] = static_cast<std::uint8_t>(payload >> (8 * i));
  }
  put_le<std::uint64_t>(
      out, util::fnv1a({out.data() + start, out.size() - start}));
}

void put_message_body(Buffer& out, const sim::Message& msg) {
  put_le(out, static_cast<std::uint8_t>(msg.type));
  put_le<std::uint32_t>(out, msg.instance);
  put_le<std::uint64_t>(out, msg.a);
  put_le<std::uint64_t>(out, msg.b);
  put_le<std::uint64_t>(out, msg.c);
}

std::optional<sim::Message> get_message_body(ByteReader& c, sim::NodeId from,
                                             sim::NodeId to) {
  const auto type = c.u8();
  const auto instance = c.u32();
  const auto a = c.u64();
  const auto b = c.u64();
  const auto cc = c.u64();
  if (!type || !instance || !a || !b || !cc) return std::nullopt;
  if (*type >= sim::kNumMsgTypes) return std::nullopt;
  sim::Message msg;
  msg.from = from;
  msg.to = to;
  msg.type = static_cast<sim::MsgType>(*type);
  msg.instance = *instance;
  msg.a = *a;
  msg.b = *b;
  msg.c = *cc;
  return msg;
}

void put_hello_body(Buffer& out, const Hello& hello) {
  put_le<std::uint32_t>(out, hello.node_id);
  put_le<std::uint32_t>(out, hello.num_sites);
  put_le<std::uint32_t>(out, hello.num_coordinators);
  put_le<std::uint64_t>(out, hello.cookie);
}

std::optional<Hello> get_hello_body(ByteReader& c) {
  const auto node = c.u32();
  const auto sites = c.u32();
  const auto coords = c.u32();
  const auto cookie = c.u64();
  if (!node || !sites || !coords || !cookie) return std::nullopt;
  return Hello{*node, *sites, *coords, *cookie};
}

}  // namespace

void encode_message(const sim::Message& msg, Buffer& out) {
  encode_frame(FrameKind::kMessage, out, [&](Buffer& b) {
    put_le<std::uint32_t>(b, msg.from);
    put_le<std::uint32_t>(b, msg.to);
    put_message_body(b, msg);
  });
}

void encode_batch(std::span<const sim::Message> msgs, Buffer& out) {
  if (msgs.empty()) {
    throw std::invalid_argument("wire: empty batch");
  }
  for (const sim::Message& msg : msgs) {
    if (msg.from != msgs.front().from || msg.to != msgs.front().to) {
      throw std::invalid_argument("wire: batch with mixed routing");
    }
  }
  encode_frame(FrameKind::kBatch, out, [&](Buffer& b) {
    put_le<std::uint32_t>(b, msgs.front().from);
    put_le<std::uint32_t>(b, msgs.front().to);
    put_le<std::uint32_t>(b, static_cast<std::uint32_t>(msgs.size()));
    for (const sim::Message& msg : msgs) put_message_body(b, msg);
  });
}

void encode_hello(const Hello& hello, Buffer& out) {
  encode_frame(FrameKind::kHello, out,
               [&](Buffer& b) { put_hello_body(b, hello); });
}

void encode_welcome(const Hello& hello, Buffer& out) {
  encode_frame(FrameKind::kWelcome, out,
               [&](Buffer& b) { put_hello_body(b, hello); });
}

void encode_fin(const Fin& fin, Buffer& out) {
  encode_frame(FrameKind::kFin, out, [&](Buffer& b) {
    put_le<std::uint32_t>(b, fin.node_id);
    put_le<std::uint64_t>(b, fin.messages_sent);
  });
}

std::optional<Frame> decode_frame(std::span<const std::uint8_t> in,
                                  std::size_t& pos) {
  ByteReader c{in, pos, in.size()};
  const auto magic = c.u32();
  const auto version = c.u8();
  const auto kind_byte = c.u8();
  const auto reserved = c.u16();
  const auto length = c.u32();
  if (!magic || !version || !kind_byte || !reserved || !length) {
    return std::nullopt;
  }
  if (*magic != kMagic || *version != kVersion || !known_kind(*kind_byte) ||
      *reserved != 0 || *length > kMaxPayload) {
    return std::nullopt;
  }
  const std::size_t payload_start = c.pos;
  const std::size_t payload_end = payload_start + *length;
  if (payload_end + kChecksumBytes > in.size()) return std::nullopt;
  {
    ByteReader sum{in, payload_end, in.size()};
    const auto stored = sum.u64();
    if (!stored ||
        *stored != util::fnv1a({in.data() + pos, payload_end - pos})) {
      return std::nullopt;
    }
  }
  // Payload parse: every getter is bounded by the declared payload, and
  // the whole payload must be consumed — no trailing bytes hide inside
  // a checksummed frame.
  c.end = payload_end;
  Frame frame;
  frame.kind = static_cast<FrameKind>(*kind_byte);
  switch (frame.kind) {
    case FrameKind::kMessage: {
      const auto from = c.u32();
      const auto to = c.u32();
      if (!from || !to) return std::nullopt;
      auto msg = get_message_body(c, *from, *to);
      if (!msg) return std::nullopt;
      frame.msgs.push_back(*msg);
      break;
    }
    case FrameKind::kBatch: {
      const auto from = c.u32();
      const auto to = c.u32();
      const auto count = c.u32();
      if (!from || !to || !count || *count == 0) return std::nullopt;
      // 29 payload bytes per entry: a count the payload cannot hold is
      // rejected before any allocation.
      if (*count > (payload_end - c.pos) / 29) return std::nullopt;
      frame.msgs.reserve(*count);
      for (std::uint32_t i = 0; i < *count; ++i) {
        auto msg = get_message_body(c, *from, *to);
        if (!msg) return std::nullopt;
        frame.msgs.push_back(*msg);
      }
      break;
    }
    case FrameKind::kHello:
    case FrameKind::kWelcome: {
      auto hello = get_hello_body(c);
      if (!hello) return std::nullopt;
      frame.hello = *hello;
      break;
    }
    case FrameKind::kFin: {
      const auto node = c.u32();
      const auto sent = c.u64();
      if (!node || !sent) return std::nullopt;
      frame.fin = Fin{*node, *sent};
      break;
    }
  }
  if (c.pos != payload_end) return std::nullopt;
  pos = payload_end + kChecksumBytes;
  return frame;
}

bool incomplete_prefix(std::span<const std::uint8_t> in, std::size_t pos) {
  // Byte-wise: validate exactly the header bytes that are present (a
  // partially arrived field must be checked byte by byte, not skipped —
  // otherwise a wrong first byte would read as "keep waiting").
  const std::size_t have = in.size() - pos;
  for (std::size_t i = 0; i < 4 && i < have; ++i) {
    if (in[pos + i] != static_cast<std::uint8_t>(kMagic >> (8 * i))) {
      return false;
    }
  }
  if (have >= 5 && in[pos + 4] != kVersion) return false;
  if (have >= 6 && !known_kind(in[pos + 5])) return false;
  if (have >= 7 && in[pos + 6] != 0) return false;  // reserved
  if (have >= 8 && in[pos + 7] != 0) return false;
  if (have < kHeaderBytes) return true;  // plausible partial header
  std::uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<std::uint32_t>(in[pos + 8 + i]) << (8 * i);
  }
  if (length > kMaxPayload) return false;
  return have < kHeaderBytes + length + kChecksumBytes;
}

}  // namespace dds::net::wire
