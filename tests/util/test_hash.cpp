// Golden values for the shared splitmix64 mixer and the hashes built on it.
// Signatures, checkpoint fingerprints and derived seeds are persisted or
// compared across runs, so every value here must stay bit-identical.

#include "util/hash.hpp"

#include <gtest/gtest.h>

#include "aig/signature.hpp"
#include "benchgen/arith.hpp"
#include "util/rng.hpp"

namespace emorphic {
namespace {

TEST(Hash, Splitmix64MatchesReferenceValue) {
  // The first output of Vigna's splitmix64 generator from seed 0.
  EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafull);
}

TEST(Hash, RngStreamIsUnchanged) {
  Rng rng(1);
  EXPECT_EQ(rng.next(), 0xb3f2af6d0fc710c5ull);
  EXPECT_EQ(rng.next(), 0x853b559647364ceaull);
  EXPECT_EQ(rng.next(), 0x92f89756082a4514ull);
  EXPECT_EQ(rng.next(), 0x642e1c7bc266a3a7ull);
}

TEST(Hash, StructuralSignatureIsUnchanged) {
  EXPECT_EQ(structural_signature(make_adder(8)), 0x4471f6360d4bea31ull);
}

}  // namespace
}  // namespace emorphic
