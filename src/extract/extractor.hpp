#pragma once
// E-graph extraction: choosing one e-node per e-class so that the term DAG
// rooted at the circuit outputs is optimized under a cost function.
// Exact extraction is NP-hard [18]; this module provides
//  * the classic greedy bottom-up extractor (sum cost / depth cost),
//  * random extraction (used to seed SA chains and to sample structural
//    variants for the ML dataset),
//  * the paper's Algorithm 1 ("Generate Neighboring Solution"): a bottom-up
//    pass from the leaves with per-class cost caching (`Costs_map`) and
//    solution-space pruning (Fig. 6), optionally randomized so SA can
//    explore.

#include <cstdint>
#include <limits>
#include <vector>

#include "aig/aig.hpp"
#include "egraph/egraph.hpp"
#include "egraph/serialize.hpp"
#include "util/rng.hpp"

namespace emorphic {

/// Cost kinds of Algorithm 1: "sum cost" approximates size, "depth cost"
/// approximates logic depth (the delay proxy).
enum class CostKind { kSize, kDepth };

struct CostModel {
  CostKind kind = CostKind::kSize;

  /// Per-operator cost, in AIG-node units: AND/OR lower to one AIG node,
  /// XOR to three; NOT is a complemented edge and therefore free.
  double op_cost(Op op) const {
    switch (op) {
      case Op::kAnd:
      case Op::kOr:
        return 1.0;
      case Op::kXor:
        return kind == CostKind::kDepth ? 2.0 : 3.0;
      default:
        return 0.0;
    }
  }
};

/// A solution: for every canonical e-class, the index of the chosen e-node
/// within `eclass(id).nodes` (kNoChoice if the class is not selected).
class Extraction {
 public:
  /// Sentinel choice index: the class is not part of the solution.
  static constexpr std::uint32_t kNoChoice = 0xffffffffu;

  /// An empty solution (no class slots).
  Extraction() = default;
  /// A solution over `num_class_slots` classes, all initially unchosen.
  explicit Extraction(std::size_t num_class_slots)
      : choice_(num_class_slots, kNoChoice) {}

  /// Has a node been chosen for class `cls`?
  bool has(EClassId cls) const {
    return cls < choice_.size() && choice_[cls] != kNoChoice;
  }
  /// Index of the chosen e-node within `eclass(cls).nodes` (unchecked;
  /// call has() first).
  std::uint32_t choice(EClassId cls) const { return choice_[cls]; }
  /// Select node `node_index` for class `cls` (growing the slot table as
  /// needed).
  void choose(EClassId cls, std::uint32_t node_index) {
    if (cls >= choice_.size()) choice_.resize(cls + 1, kNoChoice);
    choice_[cls] = node_index;
  }
  /// Number of class slots (>= every chosen class id + 1).
  std::size_t size() const { return choice_.size(); }
  /// The raw per-class choice table (kNoChoice for unchosen slots).
  const std::vector<std::uint32_t>& raw() const { return choice_; }

 private:
  std::vector<std::uint32_t> choice_;
};

/// Instrumentation for the Fig. 6 pruning experiment.
struct ExtractStats {
  /// Cost evaluations performed.
  std::size_t enodes_visited = 0;
  /// Evaluations avoided by pruning.
  std::size_t enodes_skipped = 0;
  /// Worklist pops / full passes.
  std::size_t passes = 0;
};

/// "Not yet reachable" cost sentinel of the bottom-up relaxation.
inline constexpr double kInfCost = std::numeric_limits<double>::infinity();

/// Configuration of one bottom_up_extract run (Algorithm 1).
struct BottomUpOptions {
  /// Cost model to minimize (required).
  const CostModel* cost = nullptr;
  /// Algorithm 1's random skip chance (exploration for SA neighbors).
  double p_random = 0.0;
  /// RNG for the random skips; required when p_random > 0.
  Rng* rng = nullptr;
  /// Solution-space pruning (Fig. 6) on/off.
  bool prune = true;
  /// O_current in Algorithm 1: seed the pass with an existing solution.
  const Extraction* warm_start = nullptr;
  /// Optional instrumentation counters.
  ExtractStats* stats = nullptr;
  /// Classes whose cost contribution is discounted to zero (they are
  /// already paid for elsewhere) — the marginal-cost trick behind
  /// dag_refine(). May make selections cyclic; callers must validate.
  const std::vector<bool>* free_classes = nullptr;
};

/// The bottom-up extraction kernel (Algorithm 1). Returns a complete
/// solution together with the per-class cost map.
Extraction bottom_up_extract(const EGraph& egraph, const BottomUpOptions& options,
                             std::vector<double>* out_costs = nullptr);

/// Greedy bottom-up extraction (no randomness), the paper's baseline
/// extractor and SA initial solution.
Extraction greedy_extract(const EGraph& egraph, const CostModel& cost,
                          ExtractStats* stats = nullptr, bool prune = true);

/// Random extraction: a uniformly random *well-founded* choice per class
/// (children always selected before parents, so the result is acyclic).
Extraction random_extract(const EGraph& egraph, Rng& rng);

/// DAG-aware refinement: tree-cost extraction double-counts shared logic,
/// so greedy solutions duplicate structure. Each refinement pass
/// re-extracts with *marginal* costs — classes the incumbent already uses
/// contribute zero — then keeps the result only if it is well-founded and
/// its true DAG cost improved. Converges in a couple of passes and
/// typically removes much of the duplication (the area half of Table II).
Extraction dag_refine(const EGraph& egraph, const Extraction& base,
                      const CostModel& cost,
                      const std::vector<SerializedRoot>& roots,
                      unsigned passes = 2);

/// DAG-aware cost of a solution restricted to the cone of `roots`:
/// size sums each selected class once; depth takes the longest path.
double solution_cost(const EGraph& egraph, const Extraction& solution,
                     const CostModel& cost,
                     const std::vector<SerializedRoot>& roots);

/// Rebuild an AIG from a solution. `pi_names[symbol]` names each kVar leaf;
/// the roots become POs (with their complement flags and names).
Aig extraction_to_aig(const EGraph& egraph, const Extraction& solution,
                      const std::vector<SerializedRoot>& roots,
                      const std::vector<std::string>& pi_names);

}  // namespace emorphic
