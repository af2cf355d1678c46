// Deterministic pseudo-random number generation for the simulator.
//
// Every randomized component in this library takes an explicit seed so a
// full experiment is bit-reproducible. Two generators are provided:
//
//  * SplitMix64 — tiny, stateless-feeling stream generator; also used to
//    derive independent sub-seeds from a master seed.
//  * Xoshiro256StarStar — the general-purpose workhorse (period 2^256-1),
//    used by workload generators and samplers.
//
// Neither is cryptographic; both pass BigCrush-style batteries and are the
// standard choice for simulation workloads.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace dds::util {

/// SplitMix64 (Steele, Lea & Flood 2014). One 64-bit output per step.
/// Also usable as a seed-sequence: successive outputs are independent
/// enough to seed other generators.
class SplitMix64 {
 public:
  using result_type = std::uint64_t;

  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next 64-bit value.
  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  constexpr std::uint64_t operator()() noexcept { return next(); }

  static constexpr std::uint64_t min() noexcept { return 0; }
  static constexpr std::uint64_t max() noexcept {
    return std::numeric_limits<std::uint64_t>::max();
  }

 private:
  std::uint64_t state_;
};

/// The splitmix64 output function applied to a single value: a high-quality
/// 64-bit mixer / finalizer. Useful to decorrelate structured seeds.
constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// xoshiro256** 1.0 (Blackman & Vigna 2018).
class Xoshiro256StarStar {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words from a SplitMix64 stream, per the authors'
  /// recommendation (guarantees a non-zero state).
  explicit constexpr Xoshiro256StarStar(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& w : state_) w = sm.next();
  }

  constexpr std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  constexpr std::uint64_t operator()() noexcept { return next(); }

  static constexpr std::uint64_t min() noexcept { return 0; }
  static constexpr std::uint64_t max() noexcept {
    return std::numeric_limits<std::uint64_t>::max();
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  constexpr double next_double() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method
  /// with rejection).
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  constexpr bool next_bernoulli(double p) noexcept {
    return next_double() < p;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Derives the i-th independent sub-seed from a master seed. Used to give
/// each site / generator / run its own decorrelated stream.
constexpr std::uint64_t derive_seed(std::uint64_t master,
                                    std::uint64_t index) noexcept {
  return mix64(master ^ mix64(index + 0x517CC1B727220A95ULL));
}

}  // namespace dds::util
