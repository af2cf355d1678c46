// The binary wire format — what actually crosses a socket.
//
// Everything the simulated transports pass around as in-memory structs
// (protocol Messages, site->coordinator batches, and the connection
// handshake) serializes to one self-delimiting frame shape, written and
// read with the same little-endian primitives and FNV-1a seal as the
// checkpoint images (util/le_bytes.h):
//
//   [magic u32][version u8][kind u8][reserved u16]
//   [length u32 = payload bytes][payload ...][fnv1a u64 over all prior]
//
// All integers little-endian. The trailing FNV-1a checksum covers the
// header and payload, so truncation, bit-flips, and foreign traffic are
// rejected before any field is trusted. decode_frame() is the single
// entry point: it either returns a fully validated Frame and advances
// the cursor past it, or returns nullopt and leaves the cursor exactly
// where it was — a malformed frame can never partially apply (the fuzz
// suite pins this for every prefix length and every single-bit flip).
//
// Frame kinds:
//   kMessage   one protocol message (sim::Message, all MsgTypes)
//   kBatch     n same-(from,to) messages sharing one routing header —
//              the on-wire shape of a net::Batcher flush; its payload
//              cost model (12 + 29n) deliberately echoes
//              batch_wire_bytes (8 + 29n logical bytes) so abl16 can
//              compare real frame bytes to the paper-model prediction
//   (kind 3)   retired — it once framed checkpoint images, which no
//              transport sends; a frame carrying it is rejected
//   kHello     connection handshake: who I am, what topology I expect
//   kWelcome   handshake accept (echoes the coordinator's view)
//   kFin       end-of-stream marker a site sends when its arrivals are
//              exhausted and everything it sent has been acknowledged
//
// Versioning rules (docs/wire.md): kVersion bumps on any layout change;
// a decoder rejects versions it does not know (no silent best-effort
// parsing on the wire — unlike checkpoint images there is no on-disk
// archive to stay compatible with, both ends are always the same build
// after the handshake verifies the version).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sim/message.h"

namespace dds::net::wire {

using Buffer = std::vector<std::uint8_t>;

inline constexpr std::uint32_t kMagic = 0x57534444;  // "DDSW" little-endian
inline constexpr std::uint8_t kVersion = 1;

/// Frame header bytes before the payload (magic 4 + version 1 + kind 1 +
/// reserved 2 + length 4) and the trailing checksum.
inline constexpr std::size_t kHeaderBytes = 12;
inline constexpr std::size_t kChecksumBytes = 8;

/// Hard upper bound on a frame's payload, enforced by the decoder
/// before it trusts the length field: a corrupted length can never make
/// a reader attempt a multi-gigabyte allocation. Batches are the
/// largest payloads and stay far below this.
inline constexpr std::uint32_t kMaxPayload = 1u << 24;

enum class FrameKind : std::uint8_t {
  kMessage = 1,
  kBatch = 2,
  // 3 is retired (it framed checkpoint images) and stays unassigned.
  kHello = 4,
  kWelcome = 5,
  kFin = 6,
};

/// Handshake payload: the sender's identity and its view of the
/// topology. A receiver rejects a peer whose topology disagrees — a
/// mis-wired deployment fails at connect, not mid-protocol.
struct Hello {
  std::uint32_t node_id = 0;
  std::uint32_t num_sites = 0;
  std::uint32_t num_coordinators = 1;
  /// Random per-process value echoed in kWelcome, so a site talking to
  /// a stale coordinator incarnation notices.
  std::uint64_t cookie = 0;

  bool operator==(const Hello&) const = default;
};

/// End-of-stream marker: `messages_sent` is the sender's logical
/// site->coordinator send count, letting the receiver cross-check that
/// the reliability layer delivered everything.
struct Fin {
  std::uint32_t node_id = 0;
  std::uint64_t messages_sent = 0;

  bool operator==(const Fin&) const = default;
};

/// One decoded, fully validated frame. Exactly the fields for `kind`
/// are populated.
struct Frame {
  FrameKind kind = FrameKind::kMessage;
  /// kMessage (size 1) / kBatch (size >= 1, shared from/to).
  std::vector<sim::Message> msgs;
  Hello hello;  ///< kHello / kWelcome
  Fin fin;      ///< kFin
};

// ---- encoders (each appends one complete frame to `out`) -------------

void encode_message(const sim::Message& msg, Buffer& out);

/// `msgs` must be non-empty and share one (from, to) routing pair —
/// the Batcher's flush invariant; throws std::invalid_argument
/// otherwise.
void encode_batch(std::span<const sim::Message> msgs, Buffer& out);

void encode_hello(const Hello& hello, Buffer& out);
void encode_welcome(const Hello& hello, Buffer& out);
void encode_fin(const Fin& fin, Buffer& out);

/// Exact encoded size of a batch frame carrying n messages (used by the
/// byte-accounting tests and abl16's overhead table).
constexpr std::size_t batch_frame_bytes(std::size_t n) noexcept {
  return kHeaderBytes + 12 + 29 * n + kChecksumBytes;
}
/// Exact encoded size of a single-message frame.
constexpr std::size_t message_frame_bytes() noexcept {
  return kHeaderBytes + 37 + kChecksumBytes;
}

// ---- decoder ---------------------------------------------------------

/// Decodes the frame starting at `in[pos]`. On success advances `pos`
/// past the frame and returns it; on ANY malformation (short buffer,
/// wrong magic, unknown version or kind, oversized or inconsistent
/// length, checksum mismatch, invalid message type, batch with mixed
/// routing, payload bytes left over) returns nullopt and leaves `pos`
/// untouched.
std::optional<Frame> decode_frame(std::span<const std::uint8_t> in,
                                  std::size_t& pos);

/// True when `in[pos..]` cannot yet hold a complete frame but is a
/// plausible prefix of one (stream transports use this to distinguish
/// "wait for more bytes" from "corrupt stream"): the bytes present so
/// far match the header layout and the declared length is in range.
bool incomplete_prefix(std::span<const std::uint8_t> in, std::size_t pos);

}  // namespace dds::net::wire
