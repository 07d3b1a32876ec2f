#pragma once
// Shared helpers for the test suite: random AIG generation, a named
// fixture circuit, pattern evaluation over truth tables, functional
// fingerprints.

#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "aig/sim.hpp"
#include "aig/truth.hpp"
#include "egraph/pattern.hpp"
#include "util/rng.hpp"

namespace emorphic::testing {

/// Random structurally-hashed AIG with `num_pis` inputs, `num_pos` outputs
/// and roughly `num_ands` AND nodes (combining random earlier literals).
inline Aig random_aig(unsigned num_pis, unsigned num_pos, unsigned num_ands,
                      Rng& rng) {
  Aig aig;
  std::vector<Lit> pool;
  for (unsigned i = 0; i < num_pis; ++i) pool.push_back(make_lit(aig.add_pi()));
  for (unsigned k = 0; k < num_ands; ++k) {
    Lit a = pool[rng.next_below(pool.size())];
    Lit b = pool[rng.next_below(pool.size())];
    if (rng.chance(0.5)) a = lit_not(a);
    if (rng.chance(0.5)) b = lit_not(b);
    Lit f = aig.make_and(a, b);
    pool.push_back(f);
  }
  for (unsigned i = 0; i < num_pos; ++i) {
    Lit po = pool[pool.size() - 1 - rng.next_below(std::min<std::size_t>(
                                        pool.size(), num_ands ? num_ands : 1))];
    if (rng.chance(0.3)) po = lit_not(po);
    aig.add_po(po);
  }
  return aig;
}

/// A full adder with PIs <prefix>a, <prefix>b, <prefix>cin and POs
/// <prefix>sum, <prefix>out: two calls with different prefixes give the
/// same structure under different names.
inline Aig named_full_adder(const std::string& prefix) {
  Aig aig;
  Lit a = make_lit(aig.add_pi(prefix + "a"));
  Lit b = make_lit(aig.add_pi(prefix + "b"));
  Lit cin = make_lit(aig.add_pi(prefix + "cin"));
  aig.add_po(aig.make_xor(aig.make_xor(a, b), cin), prefix + "sum");
  aig.add_po(aig.make_maj(a, b, cin), prefix + "out");
  return aig;
}

/// Evaluate a Pattern as a truth table over `n`-variable assignments where
/// pattern variable i is input variable i (requires num_vars <= n <= 6).
inline Tt eval_pattern(const Pattern& pattern, unsigned n) {
  std::vector<Tt> value(pattern.nodes().size(), 0);
  for (std::size_t i = 0; i < pattern.nodes().size(); ++i) {
    const Pattern::Node& node = pattern.nodes()[i];
    if (node.is_var) {
      value[i] = tt_var(node.var, n);
      continue;
    }
    switch (node.op) {
      case Op::kConst0:
        value[i] = 0;
        break;
      case Op::kConst1:
        value[i] = tt_mask(n);
        break;
      case Op::kNot:
        value[i] = tt_not(value[node.children[0]], n);
        break;
      case Op::kAnd:
        value[i] = value[node.children[0]] & value[node.children[1]];
        break;
      case Op::kOr:
        value[i] = value[node.children[0]] | value[node.children[1]];
        break;
      case Op::kXor:
        value[i] = value[node.children[0]] ^ value[node.children[1]];
        break;
      case Op::kVar:
        break;  // unreachable: pattern leaves are pattern vars
    }
  }
  return value[pattern.root()] & tt_mask(n);
}

/// Strong probabilistic equivalence fingerprint.
inline bool functionally_equal(const Aig& a, const Aig& b,
                               std::uint64_t seed = 42,
                               unsigned words = 32) {
  Rng rng(seed);
  return sim_probably_equal(a, b, rng, words);
}

}  // namespace emorphic::testing
