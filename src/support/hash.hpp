// rc11lib/support/hash.hpp
//
// The library's one word hash: mix64 (the splitmix64 finaliser) and
// hash_words, a chained mix64 digest of a word sequence.  The visited sets
// and the refinement graphs' lookup tables use it to pick a bucket and
// confirm every match against the full words, so exactness never depends on
// hash quality.  Witness digests (witness/witness.hpp) use it too.

#pragma once

#include <cstdint>
#include <span>

namespace rc11::support {

/// splitmix64 finaliser: a fast, full-avalanche 64-bit mixer (two
/// multiplications per word).
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Digest of a word sequence via chained mix64 (Merkle–Damgård over the
/// splitmix64 finaliser, length-seeded so prefixes do not collide trivially).
/// All 64 output bits are well distributed: the sharded visited set routes
/// shards by the top bits and indexes open-addressing tables by the bottom
/// bits of the same digest.
[[nodiscard]] constexpr std::uint64_t hash_words(
    std::span<const std::uint64_t> words) noexcept {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ mix64(words.size());
  for (const auto w : words) h = mix64(h ^ w);
  return h;
}

}  // namespace rc11::support
