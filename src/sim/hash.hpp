// The simulator's integer mixers, in one place: the splitmix64 finalizer,
// the seeded splitmix64 generator built on it, and FNV-1a over a string.
//
// Seeds, plan samples, failure patterns, detector noise, register content
// hashes, dedup probes, campaign plan seeds and corpus keys all go through
// these functions. Each caller packs its own input (which fields, which
// salts, which offset basis) and hands the packed word here, so the outputs
// that tapes, corpora and pinned counters persist stay bit-identical.
#pragma once

#include <cstdint>
#include <string_view>

namespace efd {

/// splitmix64's increment: 2^64 / φ, rounded to odd.
inline constexpr std::uint64_t kGoldenGamma = 0x9E3779B97F4A7C15ULL;

/// The splitmix64 output finalizer (Steele, Lea, Flood, OOPSLA 2014): a
/// bijective avalanche mix of one 64-bit word.
[[nodiscard]] constexpr std::uint64_t splitmix64_finalize(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// The seeded splitmix64 generator: each step adds kGoldenGamma to the
/// state and finalizes it. Seeded 0, the first output is 0xE220A8397B1DCDAF.
struct SplitMix64 {
  std::uint64_t state = 0;

  constexpr std::uint64_t next() noexcept { return splitmix64_finalize(state += kGoldenGamma); }
  /// Uniform-ish in [0, n) by modulo; 0 when n == 0.
  constexpr std::uint64_t below(std::uint64_t n) noexcept { return n == 0 ? 0 : next() % n; }
};

inline constexpr std::uint64_t kFnv1aOffsetBasis = 0xCBF29CE484222325ULL;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001B3ULL;
/// The standard offset basis 14695981039346656037 with its last decimal
/// digit dropped. Value::hash, register name hashes, the explorer's
/// per-process chains and the lasso searcher's signatures start from it, and
/// trace hashes (which tapes store) and register content hashes are built on
/// those, so it is part of the persisted format.
inline constexpr std::uint64_t kFnv1aTruncatedBasis = 1469598103934665603ULL;

/// 64-bit FNV-1a of `s`'s bytes, starting from `basis`. FNV-1a("a") is
/// 0xAF63DC4C8601EC8C.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view s,
                                            std::uint64_t basis = kFnv1aOffsetBasis) noexcept {
  std::uint64_t h = basis;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnv1aPrime;
  }
  return h;
}

}  // namespace efd
