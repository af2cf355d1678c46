// Little-endian byte primitives shared by the repo's two binary formats:
// checkpoint images (core/checkpoint.h) and wire frames (net/wire.h).
//
// Writers append to a byte vector; the reader is bounded and returns
// nullopt instead of reading past its end, so a parser built on it can
// never overrun a truncated or lying input.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

namespace dds::util {

/// Appends `value` as sizeof(T) little-endian bytes.
template <typename T>
void put_le(std::vector<std::uint8_t>& out, T value) {
  static_assert(std::is_unsigned_v<T>, "put_le writes unsigned words");
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
}

/// Bounds-checked little-endian reads over in[pos, end). Every getter
/// returns nullopt instead of reading past `end`.
struct ByteReader {
  std::span<const std::uint8_t> in;
  std::size_t pos = 0;
  std::size_t end = 0;

  template <typename T>
  std::optional<T> le() {
    static_assert(std::is_unsigned_v<T>, "le reads unsigned words");
    if (pos + sizeof(T) > end) return std::nullopt;
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(in[pos + i]) << (8 * i));
    }
    pos += sizeof(T);
    return v;
  }
  std::optional<std::uint8_t> u8() { return le<std::uint8_t>(); }
  std::optional<std::uint16_t> u16() { return le<std::uint16_t>(); }
  std::optional<std::uint32_t> u32() { return le<std::uint32_t>(); }
  std::optional<std::uint64_t> u64() { return le<std::uint64_t>(); }

  /// Bytes left before `end`.
  std::size_t remaining() const { return pos < end ? end - pos : 0; }
};

/// 64-bit FNV-1a — the checksum that seals images and frames.
inline std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace dds::util
