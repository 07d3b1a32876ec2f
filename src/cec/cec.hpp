#pragma once
// Combinational equivalence checking, the role ABC's `cec` plays in the
// paper (every E-morphic output is verified, Sec. IV-A). Like ABC's `cec`
// (iprove), it proves by fraiging the miter of the two circuits (shared
// PIs, PO i = a_i XOR b_i), one ladder under one conflict and time budget:
//  1. bit-parallel random simulation hunts for a quick counterexample;
//  2. a short monolithic SAT call proves or refutes an easy miter at once;
//  3. the miter is SAT-swept (opt/fraig.hpp): internal nodes the two
//     circuits compute alike merge, and every output whose two cones merge
//     becomes constant 0;
//  4. the outputs left get one SAT call on the reduced miter, with whatever
//     budget is left.
// A step that runs out of budget ends the ladder with kUndecided.

#include <cstdint>
#include <string>
#include <vector>

#include "aig/aig.hpp"

namespace emorphic {

/// The ladder's fixed split of the budget: conflicts of the short
/// monolithic attempt (step 2), and per candidate pair in the sweep (step
/// 3). The miters of small rewrites take one call and a few hundred
/// conflicts; a harder miter is cheaper to sweep first. A pair that needs
/// more than its share stays unmerged, and its outputs go to step 4.
inline constexpr std::uint64_t kCecQuickConflicts = 200;
inline constexpr std::uint64_t kCecPairConflicts = 30;

enum class CecStatus { kEquivalent, kNotEquivalent, kUndecided };

struct CecResult {
  CecStatus status = CecStatus::kUndecided;
  /// On kNotEquivalent: one distinguishing input assignment (per PI);
  /// empty when the interfaces differ.
  std::vector<bool> counterexample;
  /// Conflicts over every SAT call of the ladder, sweep included.
  std::uint64_t sat_conflicts = 0;
  double seconds = 0.0;
};

struct CecParams {
  unsigned sim_words = 16;  // 16*64 random patterns first (and per sweep round)
  /// Conflicts over the whole ladder; 0 = prove unboundedly.
  std::uint64_t conflict_limit = 200000;
  std::uint64_t seed = 0xc0ffee;  // simulation patterns
  /// Wall-clock budget over the whole ladder; 0 = unbounded. Arithmetic
  /// miters (multipliers!) can be genuinely hard, so large-design flows
  /// should bound the effort and accept kUndecided. Without a time limit
  /// the verdict and conflict count are deterministic.
  double time_limit_s = 20.0;
};

/// Check functional equivalence of two AIGs with identical interfaces.
CecResult cec(const Aig& a, const Aig& b, const CecParams& params = {});

const char* cec_status_name(CecStatus status);

}  // namespace emorphic
