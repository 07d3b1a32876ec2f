#include "cec/cec.hpp"

#include <algorithm>

#include "opt/fraig.hpp"
#include "sat/cnf.hpp"
#include "util/timer.hpp"

namespace emorphic {

namespace {

/// The miter over shared PIs: PO i is a_i XOR b_i. Structural hashing
/// already merges the logic the two circuits share.
Aig make_miter(const Aig& a, const Aig& b) {
  Aig miter;
  for (std::uint32_t i = 0; i < a.num_pis(); ++i) miter.add_pi(a.pi_name(i));
  auto copy = [&miter](const Aig& src) {
    std::vector<Lit> map(src.num_nodes(), kLitFalse);
    for (std::uint32_t i = 0; i < src.num_pis(); ++i) {
      map[src.pis()[i]] = make_lit(miter.pis()[i]);
    }
    auto translate = [&map](Lit l) {
      return lit_notcond(map[lit_var(l)], lit_is_compl(l));
    };
    for (Var v = 1; v < src.num_nodes(); ++v) {
      if (src.is_and(v)) {
        map[v] = miter.make_and(translate(src.fanin0(v)),
                                translate(src.fanin1(v)));
      }
    }
    std::vector<Lit> pos;
    for (Lit po : src.pos()) pos.push_back(translate(po));
    return pos;
  };
  const std::vector<Lit> pa = copy(a);
  const std::vector<Lit> pb = copy(b);
  for (std::uint32_t i = 0; i < a.num_pos(); ++i) {
    miter.add_po(miter.make_xor(pa[i], pb[i]));
  }
  return miter;
}

bool all_pos_zero(const Aig& miter) {
  return std::all_of(miter.pos().begin(), miter.pos().end(),
                     [](Lit po) { return po == kLitFalse; });
}

/// One SAT call: can some PO of `miter` be 1? On kSat, `cex` receives the
/// PI assignment.
sat::SatResult solve_miter(const Aig& miter, std::uint64_t conflict_limit,
                           double time_limit_s, std::uint64_t& conflicts,
                           std::vector<bool>& cex) {
  sat::Solver solver;
  const std::vector<sat::SatVar> smap = sat::encode_aig(solver, miter);
  std::vector<sat::SatLit> any_po;
  for (Lit po : miter.pos()) {
    if (po != kLitFalse) any_po.push_back(sat::lit_to_sat(smap, po));
  }
  solver.add_clause(any_po);
  const sat::SatResult r = solver.solve({}, conflict_limit, time_limit_s);
  conflicts += solver.stats().conflicts;
  if (r == sat::SatResult::kSat) {
    cex.resize(miter.num_pis());
    for (std::uint32_t k = 0; k < miter.num_pis(); ++k) {
      cex[k] = solver.model_value(smap[miter.pis()[k]]);
    }
  }
  return r;
}

}  // namespace

const char* cec_status_name(CecStatus status) {
  switch (status) {
    case CecStatus::kEquivalent:
      return "equivalent";
    case CecStatus::kNotEquivalent:
      return "NOT-equivalent";
    case CecStatus::kUndecided:
      return "undecided";
  }
  return "?";
}

CecResult cec(const Aig& a, const Aig& b, const CecParams& params) {
  CecResult result;
  Timer timer;
  auto finish = [&](CecStatus status) {
    result.status = status;
    result.seconds = timer.seconds();
    return result;
  };
  if (a.num_pis() != b.num_pis() || a.num_pos() != b.num_pos()) {
    return finish(CecStatus::kNotEquivalent);
  }
  const Aig miter = make_miter(a, b);
  if (all_pos_zero(miter)) return finish(CecStatus::kEquivalent);

  // One conflict and time budget over the whole ladder; the limits of the
  // next step are whatever is left (0 = unbounded).
  std::uint64_t step_conflicts = 0;
  double step_seconds = 0.0;
  auto budget_left = [&] {
    if (params.conflict_limit > 0) {
      if (result.sat_conflicts >= params.conflict_limit) return false;
      step_conflicts = params.conflict_limit - result.sat_conflicts;
    }
    if (params.time_limit_s > 0.0) {
      step_seconds = params.time_limit_s - timer.seconds();
      if (step_seconds <= 0.0) return false;
    }
    return true;
  };
  auto decide = [&](sat::SatResult r) {
    return finish(r == sat::SatResult::kUnsat ? CecStatus::kEquivalent
                  : r == sat::SatResult::kSat ? CecStatus::kNotEquivalent
                                              : CecStatus::kUndecided);
  };

  // 1. Random simulation refutes an easy difference without SAT.
  FraigParams sweep_params;
  sweep_params.sim_words = params.sim_words;
  sweep_params.conflict_limit = kCecPairConflicts;
  sweep_params.seed = params.seed;
  FraigStats sweep_stats;
  SatSweep sweep(miter, sweep_params, sweep_stats);
  auto refuted = [&] {
    result.counterexample = sweep.po_witness();
    return !result.counterexample.empty();
  };
  if (refuted()) return finish(CecStatus::kNotEquivalent);

  // 2. A short monolithic attempt proves an easy miter at one call's cost.
  if (!budget_left()) return finish(CecStatus::kUndecided);
  const std::uint64_t quick =
      step_conflicts == 0 ? kCecQuickConflicts
                          : std::min(kCecQuickConflicts, step_conflicts);
  sat::SatResult r = solve_miter(miter, quick, step_seconds,
                                 result.sat_conflicts, result.counterexample);
  if (r != sat::SatResult::kUndecided) return decide(r);

  // 3. Sweep the miter: merging the circuits' equivalent internal nodes
  // turns every output whose two cones merge into constant 0. A refuted
  // pair's counterexample may already set an output.
  if (!budget_left()) return finish(CecStatus::kUndecided);
  const Aig reduced =
      miter.substitute(sweep.sweep(step_conflicts, step_seconds, true));
  result.sat_conflicts += sweep_stats.sat_conflicts;
  if (refuted()) return finish(CecStatus::kNotEquivalent);
  if (all_pos_zero(reduced)) return finish(CecStatus::kEquivalent);

  // 4. The outputs left get one call on the reduced miter.
  if (!budget_left()) return finish(CecStatus::kUndecided);
  r = solve_miter(reduced, step_conflicts, step_seconds, result.sat_conflicts,
                  result.counterexample);
  return decide(r);
}

}  // namespace emorphic
