// Uncapped cross-check of the current e-graph core against the seed core it
// replaced (legacy_egraph.hpp). With no match or node cap in play, the final
// congruence closure is independent of match order, so every configuration
// — the seed core, whose unordered_map iteration order scrambles its match
// order, full-scan and indexed matching, and parallel matching — must land
// on the identical saturation state. (A capped run is not comparable that
// way: truncating to a match prefix picks different matches per core.)

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "egraph/rules.hpp"
#include "egraph/runner.hpp"
#include "flow/conversion.hpp"
#include "legacy_egraph.hpp"
#include "util/rng.hpp"

namespace emorphic {
namespace {

Aig random_aig(unsigned pis, unsigned ands, std::uint64_t seed) {
  Rng rng(seed);
  Aig aig;
  std::vector<Lit> pool;
  for (unsigned i = 0; i < pis; ++i) pool.push_back(make_lit(aig.add_pi()));
  for (unsigned k = 0; k < ands; ++k) {
    Lit a = pool[rng.next_below(pool.size())];
    Lit b = pool[rng.next_below(pool.size())];
    if (rng.chance(0.5)) a = lit_not(a);
    if (rng.chance(0.5)) b = lit_not(b);
    pool.push_back(aig.make_and(a, b));
  }
  for (unsigned i = 0; i < 8; ++i) aig.add_po(pool[pool.size() - 1 - i]);
  return aig;
}

constexpr std::size_t kUncapped = 100000000;

struct SaturationState {
  std::size_t matches = 0;
  std::size_t enodes = 0;
  std::size_t classes = 0;
  std::vector<std::size_t> rule_matches;
};

SaturationState run_current(const Aig& aig, std::size_t iterations,
                            bool use_index, unsigned threads) {
  RunnerParams params;
  params.max_iterations = iterations;
  params.max_enodes = kUncapped;
  params.max_matches_per_rule = kUncapped;
  params.use_rule_index = use_index;
  params.match_threads = threads;
  CircuitEGraph ce = aig_to_egraph(aig);
  RunnerReport report = run_rewriting(ce.egraph, make_logic_rules(), params);
  SaturationState state;
  for (const IterationStats& it : report.iterations) {
    state.matches += it.matches;
  }
  state.enodes = ce.egraph.num_enodes();
  state.classes = ce.egraph.num_classes();
  state.rule_matches = report.rule_matches;
  return state;
}

void expect_same_state(const SaturationState& a, const SaturationState& b) {
  EXPECT_EQ(a.matches, b.matches);
  EXPECT_EQ(a.enodes, b.enodes);
  EXPECT_EQ(a.classes, b.classes);
  EXPECT_EQ(a.rule_matches, b.rule_matches);
}

TEST(EGraphCore, UncappedSaturationMatchesTheSeedCore) {
  struct Shape {
    unsigned pis;
    unsigned ands;
    std::size_t iterations;
  };
  for (Shape shape : {Shape{8, 30, 3}, Shape{10, 40, 2}}) {
    SCOPED_TRACE(std::to_string(shape.pis) + "x" + std::to_string(shape.ands) +
                 "/" + std::to_string(shape.iterations));
    Aig aig = random_aig(shape.pis, shape.ands, 7);

    legacy::EGraph seed_core = legacy::egraph_from_aig(aig);
    legacy::RunStats seed = legacy::run_rewriting(
        seed_core, make_logic_rules(), shape.iterations, kUncapped, kUncapped);
    SaturationState fullscan = run_current(aig, shape.iterations, false, 1);
    SaturationState indexed = run_current(aig, shape.iterations, true, 1);
    SaturationState parallel = run_current(aig, shape.iterations, true, 4);

    EXPECT_EQ(seed.matches, indexed.matches);
    EXPECT_EQ(seed.enodes, indexed.enodes);
    EXPECT_EQ(seed.classes, indexed.classes);
    expect_same_state(fullscan, indexed);
    expect_same_state(indexed, parallel);
  }
}

}  // namespace
}  // namespace emorphic
