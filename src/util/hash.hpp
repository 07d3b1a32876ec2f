#pragma once
// The one 64-bit mixer behind every signature, fingerprint, cache key and
// derived seed in the library. Callers keep their own fold over it: the
// folds differ, and signatures, checkpoint fingerprints and derived seeds
// must stay bit-identical (tests/util/test_hash.cpp pins golden values).

#include <cstdint>

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

}  // namespace emorphic
