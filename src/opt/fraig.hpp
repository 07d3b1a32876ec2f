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
// same simulate/refute/prove loop backs `cec` and the stage-equivalence
// test harness.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "aig/aig.hpp"

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
  std::uint32_t ands_before = 0;
  std::uint32_t ands_after = 0;
};

/// SAT-sweep `aig`: returns a functionally equivalent network in which every
/// proven-equivalent AND node is merged into its earliest representative
/// (complement handled via the literal phase) and dangling logic is removed.
/// PI/PO interface and names are preserved.
Aig fraig(const Aig& aig, const FraigParams& params = {},
          FraigStats* stats = nullptr);

}  // namespace emorphic
