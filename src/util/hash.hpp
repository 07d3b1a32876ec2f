#pragma once
// The one 64-bit mixer behind every signature, fingerprint, cache key and
// derived seed in the library, and the fold that chains keys and
// fingerprints from it. Signatures, checkpoint fingerprints and derived
// seeds must stay bit-identical (tests/util/test_hash.cpp pins golden
// values).

#include <cstdint>
#include <string_view>

namespace emorphic {

/// splitmix64 (Vigna): one golden-ratio step of the generator's state,
/// then its full-avalanche finalizer. splitmix64(0) == 0xe220a8397b1dcdaf,
/// the generator's first output from seed 0.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Fold `value` into the running hash `h`. Order-sensitive: folding the
/// same values in another order gives another hash.
inline std::uint64_t hash_fold(std::uint64_t h, std::uint64_t value) {
  return splitmix64(h ^ splitmix64(value));
}

/// Fold a string: its length, then each byte, so that no two sequences of
/// folded strings collide by concatenation.
inline std::uint64_t hash_fold(std::uint64_t h, std::string_view text) {
  h = hash_fold(h, text.size());
  for (unsigned char c : text) h = hash_fold(h, c);
  return h;
}

}  // namespace emorphic
