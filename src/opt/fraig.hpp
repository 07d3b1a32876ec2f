#pragma once
// SAT sweeping ("fraiging", after ABC's fraig): merge functionally
// equivalent AIG nodes that structural hashing — and the e-graph rule set —
// never identify as equal.
//
// The classic recipe (Mishchenko et al., "FRAIGs: A unifying representation
// for logic synthesis and verification"):
//  1. bit-parallel random simulation partitions all nodes into candidate
//     equivalence classes by simulation signature (complement-normalized, so
//     a node and its negation land in the same class);
//  2. candidate pairs are proven or refuted with incremental SAT queries
//     over one shared CNF of the network (two assumption-only calls per
//     pair, no clause churn between queries);
//  3. a refuting SAT assignment is replayed as a simulation pattern — plus
//     random neighbors — splitting every candidate class the counterexample
//     distinguishes, so one refutation prunes many future SAT calls;
//  4. proven nodes merge into their earliest equivalent representative with
//     phase handling, and the network is rebuilt without the dangling cones
//     (Aig::substitute).
//
// This is both an optimization (AND-node count drops wherever redundancy
// exists) and the machinery behind trustworthy equivalence testing: the
// same simulate/refute/prove engine (SatSweep below) backs `cec`, which
// sweeps the miter of the two circuits before its final proof.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "aig/aig.hpp"
#include "util/rng.hpp"

namespace emorphic {

struct FraigParams {
  /// Random 64-pattern words in the initial simulation (and per refinement
  /// round). More words mean fewer false candidate pairs but slower setup.
  unsigned sim_words = 8;
  /// Extra random-refinement rounds before SAT sweeping starts. A round
  /// that splits nothing ends refinement early.
  unsigned sim_rounds = 4;
  /// Conflict budget per SAT query; 0 = prove unboundedly. Pairs whose
  /// queries exceed it stay unmerged (counted in FraigStats::undecided).
  std::uint64_t conflict_limit = 10000;
  /// Candidate classes larger than this are skipped outright — oversized
  /// classes are usually simulation artifacts on degenerate inputs and
  /// would cost a quadratic number of queries.
  std::size_t max_class_size = 64;
  /// Worker threads for the random-simulation phases; 1 = serial. The SAT
  /// sweep itself is sequential (one incremental solver).
  unsigned num_threads = 1;
  /// Seed for simulation patterns and counterexample neighbors. With
  /// unbounded proofs (conflict_limit = 0) and no skipped classes the merge
  /// set is proof-derived and seed-independent; a finite conflict budget or
  /// class-size cap can make which pairs prove within budget vary with the
  /// patterns (the result is always functionally equivalent either way).
  std::uint64_t seed = 0x5eedf4a1;
  /// When false, skip simulation entirely and SAT-query all node pairs —
  /// the naive sweeping baseline the guided sweep is tested against.
  bool use_simulation = true;
};

struct FraigStats {
  std::size_t classes = 0;          // candidate classes entering the sweep
  std::size_t candidate_nodes = 0;  // nodes inside those classes
  std::size_t skipped_class_nodes = 0;  // nodes in over-large classes
  std::size_t sat_calls = 0;        // individual solver queries
  std::size_t proved = 0;           // merged pairs (both phases UNSAT)
  std::size_t refuted = 0;          // distinguished pairs (a query was SAT)
  std::size_t undecided = 0;        // pairs abandoned at the conflict limit
  std::size_t cex_replays = 0;      // counterexample words simulated back
  std::size_t sim_words = 0;        // total 64-pattern words simulated
  std::uint64_t sat_conflicts = 0;  // solver conflicts over all queries
  std::uint32_t ands_before = 0;
  std::uint32_t ands_after = 0;
};

class ThreadPool;

/// The guided sweep behind both fraig() and cec(). Construction runs the
/// initial random simulation of step 1; sweep() runs the refinement rounds
/// and steps 2-3 and returns the merge map that step 4 hands to
/// Aig::substitute. Per-query limits come from FraigParams::conflict_limit;
/// cec() adds a total budget, so a sweep that meets hard pairs moves on and
/// leaves them unmerged. Single-use: construct, then sweep() once.
class SatSweep {
 public:
  SatSweep(const Aig& aig, const FraigParams& params, FraigStats& stats);
  ~SatSweep();

  /// An input assignment under which some PO is 1, or empty: from the
  /// initial simulation, or from a counterexample sweep() replayed on a
  /// miter. On a miter this is a counterexample to its equivalence.
  const std::vector<bool>& po_witness() const { return witness_; }

  /// Sweep once and return, per variable, its replacement literal.
  /// Queries stop once `conflict_budget` conflicts (0 = unbounded) or
  /// `time_limit_s` seconds (0 = unbounded) are spent; pairs left unproven
  /// stay unmerged. With `miter`, the network is a miter: PO drivers are
  /// never merged, because the caller proves them last on the reduced
  /// network, and the sweep stops at the first replayed counterexample
  /// that sets a PO to 1 (po_witness()).
  std::vector<Lit> sweep(std::uint64_t conflict_budget = 0,
                         double time_limit_s = 0.0, bool miter = false);

 private:
  const Aig& aig_;
  FraigParams params_;
  FraigStats& stats_;
  Rng rng_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::uint64_t> initial_;  // node-major, words() per node
  std::vector<bool> witness_;

  unsigned words() const;
  std::vector<std::uint64_t> random_values();
};

/// SAT-sweep `aig`: returns a functionally equivalent network in which every
/// proven-equivalent AND node is merged into its earliest representative
/// (complement handled via the literal phase) and dangling logic is removed.
/// PI/PO interface and names are preserved.
Aig fraig(const Aig& aig, const FraigParams& params = {},
          FraigStats* stats = nullptr);

}  // namespace emorphic
