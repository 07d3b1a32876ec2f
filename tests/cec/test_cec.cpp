#include "cec/cec.hpp"

#include <gtest/gtest.h>

#include "../test_helpers.hpp"
#include "aig/sim.hpp"
#include "benchgen/arith.hpp"
#include "benchgen/doubling.hpp"
#include "opt/balance.hpp"
#include "opt/fraig.hpp"
#include "opt/resyn.hpp"

namespace emorphic {
namespace {

/// `aig` rebuilt with the output of AND node `target` XORed with `flip`: a
/// constant 1 flips the gate on every input, the AND of the first `rare`
/// PIs only where all of them are 1.
Aig flip_gate(const Aig& aig, Var target, unsigned rare) {
  Aig out = Aig::like(aig);
  std::vector<Lit> map(aig.num_nodes(), kLitFalse);
  std::vector<Lit> rare_pis;
  for (std::uint32_t i = 0; i < aig.num_pis(); ++i) {
    map[aig.pis()[i]] = make_lit(out.pis()[i]);
    if (i < rare) rare_pis.push_back(make_lit(out.pis()[i]));
  }
  const Lit flip = out.make_and_n(rare_pis);  // kLitTrue when rare == 0
  auto translate = [&map](Lit l) {
    return lit_notcond(map[lit_var(l)], lit_is_compl(l));
  };
  for (Var v = 1; v < aig.num_nodes(); ++v) {
    if (!aig.is_and(v)) continue;
    map[v] = out.make_and(translate(aig.fanin0(v)), translate(aig.fanin1(v)));
    if (v == target) map[v] = out.make_xor(map[v], flip);
  }
  for (std::uint32_t i = 0; i < aig.num_pos(); ++i) {
    out.set_po(i, translate(aig.po(i)));
  }
  return out;
}

/// True when simulating `a` and `b` on `pattern` sets some PO apart.
bool pattern_distinguishes(const Aig& a, const Aig& b,
                           const std::vector<bool>& pattern) {
  std::vector<std::uint64_t> words(pattern.size());
  for (std::size_t k = 0; k < pattern.size(); ++k) {
    words[k] = pattern[k] ? ~0ull : 0ull;
  }
  const std::vector<std::uint64_t> va = simulate_words(a, words);
  const std::vector<std::uint64_t> vb = simulate_words(b, words);
  for (std::uint32_t i = 0; i < a.num_pos(); ++i) {
    const bool oa = ((va[lit_var(a.po(i))] & 1) != 0) != lit_is_compl(a.po(i));
    const bool ob = ((vb[lit_var(b.po(i))] & 1) != 0) != lit_is_compl(b.po(i));
    if (oa != ob) return true;
  }
  return false;
}

TEST(Cec, IdenticalCircuits) {
  Rng rng(171);
  Aig aig = testing::random_aig(6, 3, 40, rng);
  CecResult result = cec(aig, aig);
  EXPECT_EQ(result.status, CecStatus::kEquivalent);
}

TEST(Cec, OptimizedCircuitsAreEquivalent) {
  Rng rng(172);
  for (int round = 0; round < 4; ++round) {
    Aig aig = testing::random_aig(6, 3, 50, rng);
    EXPECT_EQ(cec(aig, balance(aig)).status, CecStatus::kEquivalent);
    EXPECT_EQ(cec(aig, resyn(aig)).status, CecStatus::kEquivalent);
  }
}

TEST(Cec, SimulationCatchesEasyDifference) {
  Aig x;
  Lit a = make_lit(x.add_pi());
  Lit b = make_lit(x.add_pi());
  x.add_po(x.make_and(a, b));
  Aig y;
  Lit c = make_lit(y.add_pi());
  Lit d = make_lit(y.add_pi());
  y.add_po(y.make_or(c, d));
  CecResult result = cec(x, y);
  ASSERT_EQ(result.status, CecStatus::kNotEquivalent);
  ASSERT_EQ(result.counterexample.size(), 2u);
  bool va = result.counterexample[0], vb = result.counterexample[1];
  EXPECT_NE(va && vb, va || vb);
  EXPECT_EQ(result.sat_conflicts, 0u);  // refuted by simulation alone
}

TEST(Cec, SatCatchesRareDifference) {
  // Two circuits differing on exactly one input pattern: random simulation
  // (16 words = 1024 patterns over 16 inputs) is unlikely to catch it, but
  // SAT must.
  const unsigned n = 16;
  Aig x;
  std::vector<Lit> xin;
  for (unsigned i = 0; i < n; ++i) xin.push_back(make_lit(x.add_pi()));
  x.add_po(x.make_and_n(xin));  // 1 only on the all-ones pattern
  Aig y;
  for (unsigned i = 0; i < n; ++i) y.add_pi();
  y.add_po(kLitFalse);  // constant 0
  CecParams params;
  params.sim_words = 2;
  CecResult result = cec(x, y, params);
  ASSERT_EQ(result.status, CecStatus::kNotEquivalent);
  for (bool bit : result.counterexample) EXPECT_TRUE(bit);
}

TEST(Cec, InterfaceMismatch) {
  Aig x;
  x.add_pi();
  x.add_po(kLitTrue);
  Aig y;
  y.add_pi();
  y.add_pi();
  y.add_po(kLitTrue);
  EXPECT_EQ(cec(x, y).status, CecStatus::kNotEquivalent);
}

TEST(Cec, AdderCommutes) {
  // a+b == b+a: a nontrivial arithmetic equivalence proved by SAT.
  Aig ab = make_adder(8);
  Aig ba;
  {
    Word b = add_input_word(ba, "x", 8);
    Word a = add_input_word(ba, "y", 8);
    // swap roles: feed (y,x) into the adder structure built as (x+y)... To
    // change structure, add via reversed argument order:
    Lit carry = kLitFalse;
    Word sum = ripple_add(ba, a, b, kLitFalse, &carry);
    add_output_word(ba, "s", sum);
    ba.add_po(carry, "cout");
  }
  // Same function bit-for-bit (addition commutes; PIs line up positionally).
  EXPECT_EQ(cec(ab, ba).status, CecStatus::kEquivalent);
}

TEST(Cec, ConflictLimitGivesUndecided) {
  // A hard miter with an absurdly low conflict budget: multiplier output
  // bit against a structurally different implementation.
  Aig m1 = make_multiplier(6);
  Aig m2 = resyn(make_multiplier(6));
  CecParams params;
  params.sim_words = 0;       // skip simulation entirely
  params.conflict_limit = 1;  // give up almost immediately
  CecResult result = cec(m1, m2, params);
  EXPECT_NE(result.status, CecStatus::kNotEquivalent);
}

TEST(Cec, FlippedGateInALargeCircuitIsRefutedWithAConfirmedCounterexample) {
  const Aig golden = make_divisor(14);
  ASSERT_GE(golden.num_ands(), 2000u);
  const Var mid = golden.num_nodes() / 2;
  ASSERT_TRUE(golden.is_and(mid));
  // rare = 0: the gate flips on every input, which simulation catches.
  // rare = 16: it flips on one input in 2^16, and the flip shows at a PO
  // on a few dozen of all 2^28 inputs (counted exhaustively), which only
  // SAT finds.
  for (unsigned rare : {0u, 16u}) {
    SCOPED_TRACE(rare);
    const Aig mutant = flip_gate(golden, mid, rare);
    const CecResult result = cec(golden, mutant);
    ASSERT_EQ(result.status, CecStatus::kNotEquivalent);
    ASSERT_EQ(result.counterexample.size(), golden.num_pis());
    EXPECT_TRUE(pattern_distinguishes(golden, mutant, result.counterexample));
    if (rare > 0) EXPECT_GT(result.sat_conflicts, 0u);
  }
}

TEST(Cec, ProvesAMultiplierMiterThatOneSatCallLeavesUndecided) {
  // One SAT call on the whole miter stops undecided at 30k conflicts;
  // sweeping the miter first merges the two multipliers' shared partial
  // products and proves it in a few thousand.
  const Aig m = make_multiplier(8);
  CecParams params;
  params.conflict_limit = 30000;
  params.time_limit_s = 0.0;
  const CecResult result = cec(m, resyn(m), params);
  EXPECT_EQ(result.status, CecStatus::kEquivalent);
  EXPECT_LE(result.sat_conflicts, params.conflict_limit);
}

TEST(Cec, VerdictAndConflictCountAreDeterministicAndCoverTheSweep) {
  // A doubled multiplier against its SAT sweep: too hard for the short
  // monolithic attempt, so the sweep proves the outputs.
  const Aig aig = doubled(make_multiplier(6));
  const Aig swept = fraig(aig);
  CecParams params;
  params.time_limit_s = 0.0;  // conflict-bounded only: deterministic
  const CecResult first = cec(aig, swept, params);
  const CecResult second = cec(aig, swept, params);
  EXPECT_EQ(first.status, CecStatus::kEquivalent);
  EXPECT_EQ(second.status, first.status);
  EXPECT_EQ(second.sat_conflicts, first.sat_conflicts);
  // More than the short attempt may spend: the sweep's conflicts count.
  EXPECT_GT(first.sat_conflicts, kCecQuickConflicts);
}

TEST(Cec, StatusNames) {
  EXPECT_STREQ(cec_status_name(CecStatus::kEquivalent), "equivalent");
  EXPECT_STREQ(cec_status_name(CecStatus::kNotEquivalent), "NOT-equivalent");
  EXPECT_STREQ(cec_status_name(CecStatus::kUndecided), "undecided");
}

}  // namespace
}  // namespace emorphic
