#pragma once
// The pre-overhaul e-graph core, preserved verbatim as the reference for
// the uncapped saturation cross-check in test_legacy_crosscheck.cpp.
//
// This is the seed implementation that src/egraph/ replaced: a
// std::unordered_map<ENode, EClassId> hashcons, std::vector-backed class
// member lists, a const_cast path-halving union-find, a full-graph stale
// sweep on every rebuild, and a runner that scans every rule against every
// e-class with no head-operator index and no threading. Nothing in src/
// uses it: it exists so the current core can be checked against the seed
// algorithm it replaced.

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "aig/aig.hpp"
#include "egraph/language.hpp"
#include "egraph/pattern.hpp"

namespace emorphic::legacy {

struct EClass {
  std::vector<ENode> nodes;
  std::vector<std::pair<ENode, EClassId>> parents;
};

/// The seed EGraph, byte-for-byte the algorithm that shipped before the
/// performance overhaul (method comments trimmed).
class EGraph {
 public:
  EGraph() = default;

  EClassId find(EClassId id) const {
    while (parent_[id] != id) {
      const_cast<EGraph*>(this)->parent_[id] = parent_[parent_[id]];
      id = parent_[id];
    }
    return id;
  }

  ENode canonicalize(ENode node) const {
    for (unsigned i = 0; i < node.arity(); ++i) {
      node.children[i] = find(node.children[i]);
    }
    if ((node.op == Op::kAnd || node.op == Op::kOr || node.op == Op::kXor) &&
        node.children[0] > node.children[1]) {
      std::swap(node.children[0], node.children[1]);
    }
    return node;
  }

  EClassId add(ENode node) {
    node = canonicalize(node);
    auto it = hashcons_.find(node);
    if (it != hashcons_.end()) return find(it->second);
    EClassId id = make_class(node);
    hashcons_.emplace(node, id);
    for (unsigned i = 0; i < node.arity(); ++i) {
      classes_[node.children[i]].parents.emplace_back(node, id);
    }
    return id;
  }

  EClassId add_const0() { return add(ENode::const0()); }
  EClassId add_var(std::uint32_t symbol) { return add(ENode::var(symbol)); }
  EClassId add_not(EClassId a) { return add(ENode::not_of(a)); }
  EClassId add_and(EClassId a, EClassId b) { return add(ENode::and_of(a, b)); }

  EClassId merge(EClassId a, EClassId b) {
    a = find(a);
    b = find(b);
    if (a == b) return a;
    if (rank_[a] < rank_[b]) std::swap(a, b);
    if (rank_[a] == rank_[b]) ++rank_[a];
    parent_[b] = a;

    auto& wa = classes_[a];
    auto& wb = classes_[b];
    wa.nodes.insert(wa.nodes.end(), wb.nodes.begin(), wb.nodes.end());
    wa.parents.insert(wa.parents.end(), wb.parents.begin(), wb.parents.end());
    wb.nodes.clear();
    wb.nodes.shrink_to_fit();
    wb.parents.clear();
    wb.parents.shrink_to_fit();

    worklist_.push_back(a);
    return a;
  }

  std::size_t rebuild() {
    std::size_t merges = 0;
    bool repaired_any = !worklist_.empty();
    while (!worklist_.empty()) {
      std::vector<EClassId> todo;
      todo.swap(worklist_);
      std::unordered_set<EClassId> deduped;
      for (EClassId id : todo) deduped.insert(find(id));
      for (EClassId id : deduped) {
        std::size_t before = worklist_.size();
        repair(id);
        merges += worklist_.size() - before;
      }
    }
    if (repaired_any) {
      // The seed's full-graph sweep: every class is checked for stale nodes.
      for (EClassId id = 0; id < classes_.size(); ++id) {
        if (find(id) != id) continue;
        EClass& cls = classes_[id];
        bool stale = false;
        for (const ENode& n : cls.nodes) {
          if (!(canonicalize(n) == n)) {
            stale = true;
            break;
          }
        }
        if (!stale) continue;
        std::unordered_set<ENode, ENodeHash> uniq;
        uniq.reserve(cls.nodes.size());
        std::vector<ENode> deduped_nodes;
        deduped_nodes.reserve(cls.nodes.size());
        for (const ENode& n : cls.nodes) {
          ENode canon = canonicalize(n);
          if (uniq.insert(canon).second) deduped_nodes.push_back(canon);
        }
        cls.nodes = std::move(deduped_nodes);
      }
    }
    return merges;
  }

  const EClass& eclass(EClassId id) const { return classes_[find(id)]; }
  std::size_t num_classes_created() const { return classes_.size(); }

  std::size_t num_classes() const {
    std::size_t count = 0;
    for (EClassId id = 0; id < classes_.size(); ++id) {
      if (find(id) == id) ++count;
    }
    return count;
  }

  std::size_t num_enodes() const {
    std::size_t count = 0;
    for (EClassId id = 0; id < classes_.size(); ++id) {
      if (find(id) == id) count += classes_[id].nodes.size();
    }
    return count;
  }

  std::vector<EClassId> class_ids() const {
    std::vector<EClassId> ids;
    ids.reserve(classes_.size());
    for (EClassId id = 0; id < classes_.size(); ++id) {
      if (find(id) == id) ids.push_back(id);
    }
    return ids;
  }

 private:
  EClassId make_class(ENode node) {
    EClassId id = static_cast<EClassId>(classes_.size());
    parent_.push_back(id);
    rank_.push_back(0);
    classes_.emplace_back();
    classes_[id].nodes.push_back(node);
    return id;
  }

  void repair(EClassId id) {
    id = find(id);
    EClass& cls = classes_[id];

    std::vector<std::pair<ENode, EClassId>> old_parents;
    old_parents.swap(cls.parents);

    std::unordered_map<ENode, EClassId, ENodeHash> seen;
    seen.reserve(old_parents.size());
    for (auto& [pnode, pclass] : old_parents) {
      hashcons_.erase(pnode);
      ENode canon = canonicalize(pnode);
      EClassId pcanon = find(pclass);
      auto it = seen.find(canon);
      if (it != seen.end()) {
        EClassId merged = merge(it->second, pcanon);
        it->second = find(merged);
      } else {
        seen.emplace(canon, pcanon);
      }
    }
    EClass& cls2 = classes_[find(id)];
    for (auto& [canon, pclass] : seen) {
      hashcons_[canon] = find(pclass);
      cls2.parents.emplace_back(canon, find(pclass));
    }

    EClass& cls3 = classes_[find(id)];
    std::unordered_set<ENode, ENodeHash> uniq;
    uniq.reserve(cls3.nodes.size());
    std::vector<ENode> deduped;
    deduped.reserve(cls3.nodes.size());
    for (ENode& n : cls3.nodes) {
      ENode canon = canonicalize(n);
      if (uniq.insert(canon).second) deduped.push_back(canon);
    }
    cls3.nodes = std::move(deduped);
  }

  std::vector<EClassId> parent_;
  std::vector<std::uint32_t> rank_;
  std::vector<EClass> classes_;
  std::unordered_map<ENode, EClassId, ENodeHash> hashcons_;
  std::vector<EClassId> worklist_;
};

// --- the seed e-matcher, retargeted at legacy::EGraph -----------------------

class Matcher {
 public:
  Matcher(const EGraph& egraph, const Pattern& pattern, std::vector<Subst>& out,
          std::size_t limit)
      : egraph_(egraph), pattern_(pattern), out_(out), limit_(limit) {}

  void run(EClassId root) {
    Subst subst(pattern_.num_vars(), kNoEClass);
    match(pattern_.root(), root, subst);
  }

 private:
  bool full() const { return out_.size() >= limit_; }

  void match(std::int32_t pi, EClassId cls, Subst& subst) {
    if (full()) return;
    cls = egraph_.find(cls);
    const Pattern::Node& pn = pattern_.nodes()[pi];
    if (pn.is_var) {
      if (subst[pn.var] == kNoEClass) {
        subst[pn.var] = cls;
        descend(subst);
        subst[pn.var] = kNoEClass;
      } else if (subst[pn.var] == cls) {
        descend(subst);
      }
      return;
    }
    for (const ENode& enode : egraph_.eclass(cls).nodes) {
      if (full()) return;
      if (enode.op != pn.op) continue;
      switch (op_arity(pn.op)) {
        case 0:
          descend(subst);
          break;
        case 1:
          frames_.push_back({pn.children[0], egraph_.find(enode.children[0])});
          descend(subst);
          frames_.pop_back();
          break;
        case 2: {
          bool commutative = pn.op == Op::kAnd || pn.op == Op::kOr ||
                             pn.op == Op::kXor;
          EClassId c0 = egraph_.find(enode.children[0]);
          EClassId c1 = egraph_.find(enode.children[1]);
          frames_.push_back({pn.children[0], c0});
          frames_.push_back({pn.children[1], c1});
          descend(subst);
          frames_.pop_back();
          frames_.pop_back();
          if (commutative && c0 != c1) {
            frames_.push_back({pn.children[0], c1});
            frames_.push_back({pn.children[1], c0});
            descend(subst);
            frames_.pop_back();
            frames_.pop_back();
          }
          break;
        }
      }
    }
  }

  struct Frame {
    std::int32_t pattern_node;
    EClassId cls;
  };

  void descend(Subst& subst) {
    if (frames_.empty()) {
      out_.push_back(subst);
      return;
    }
    Frame f = frames_.back();
    frames_.pop_back();
    match(f.pattern_node, f.cls, subst);
    frames_.push_back(f);
  }

  const EGraph& egraph_;
  const Pattern& pattern_;
  std::vector<Subst>& out_;
  std::size_t limit_;
  std::vector<Frame> frames_;
};

inline void match_in_class(const EGraph& egraph, const Pattern& pattern,
                           EClassId root, std::vector<Subst>& out,
                           std::size_t limit) {
  Matcher(egraph, pattern, out, limit).run(root);
}

inline EClassId instantiate(EGraph& egraph, const Pattern& pattern,
                            const Subst& subst) {
  std::vector<EClassId> result(pattern.nodes().size(), kNoEClass);
  for (std::size_t i = 0; i < pattern.nodes().size(); ++i) {
    const Pattern::Node& n = pattern.nodes()[i];
    if (n.is_var) {
      result[i] = subst[n.var];
      continue;
    }
    ENode enode;
    enode.op = n.op;
    for (unsigned c = 0; c < op_arity(n.op); ++c) {
      enode.children[c] = result[n.children[c]];
    }
    result[i] = egraph.add(enode);
  }
  return result[pattern.root()];
}

// --- the seed runner loop ---------------------------------------------------

struct RunStats {
  std::size_t iterations = 0;
  std::size_t matches = 0;
  std::size_t applied = 0;
  std::size_t enodes = 0;
  std::size_t classes = 0;
};

/// The pre-overhaul saturation loop: full-scan serial matching, per-iteration
/// apply, one rebuild per iteration. Mirrors the seed run_rewriting but
/// without hooks/timing plumbing (those cost nothing measurable).
inline RunStats run_rewriting(EGraph& egraph, const std::vector<Rewrite>& rules,
                              std::size_t max_iterations,
                              std::size_t max_enodes,
                              std::size_t max_matches_per_rule) {
  RunStats stats;
  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    std::size_t enodes_before = egraph.num_enodes();
    std::size_t classes_before = egraph.num_classes();

    std::vector<EClassId> ids = egraph.class_ids();
    std::vector<std::vector<std::pair<EClassId, Subst>>> all_matches(
        rules.size());
    for (std::size_t r = 0; r < rules.size(); ++r) {
      std::vector<Subst> substs;
      for (EClassId id : ids) {
        substs.clear();
        match_in_class(egraph, rules[r].lhs, id, substs,
                       max_matches_per_rule -
                           std::min(max_matches_per_rule,
                                    all_matches[r].size()));
        for (auto& s : substs) all_matches[r].emplace_back(id, std::move(s));
        if (all_matches[r].size() >= max_matches_per_rule) break;
      }
      stats.matches += all_matches[r].size();
    }

    for (std::size_t r = 0; r < rules.size(); ++r) {
      for (auto& [cls, subst] : all_matches[r]) {
        EClassId rhs = instantiate(egraph, rules[r].rhs, subst);
        if (egraph.find(cls) != egraph.find(rhs)) {
          egraph.merge(cls, rhs);
          ++stats.applied;
        }
        if (egraph.num_classes_created() > max_enodes) break;
      }
      if (egraph.num_classes_created() > max_enodes) break;
    }

    egraph.rebuild();
    ++stats.iterations;

    std::size_t enodes_after = egraph.num_enodes();
    std::size_t classes_after = egraph.num_classes();
    if (enodes_after >= max_enodes) break;
    if (enodes_after == enodes_before && classes_after == classes_before) {
      break;
    }
  }
  stats.enodes = egraph.num_enodes();
  stats.classes = egraph.num_classes();
  return stats;
}

/// AIG -> legacy e-graph, mirroring flow/conversion's aig_to_egraph (minus
/// root bookkeeping, which the cross-check does not need).
inline EGraph egraph_from_aig(const Aig& aig) {
  EGraph eg;
  std::vector<EClassId> class_of(aig.num_nodes(), kNoEClass);
  class_of[0] = eg.add_const0();
  auto lit_class = [&](Lit lit) {
    EClassId base = class_of[lit_var(lit)];
    return lit_is_compl(lit) ? eg.add_not(base) : base;
  };
  for (Var v = 1; v < aig.num_nodes(); ++v) {
    if (aig.is_pi(v)) {
      class_of[v] = eg.add_var(aig.pi_index(v));
    } else {
      class_of[v] = eg.add_and(lit_class(aig.fanin0(v)),
                               lit_class(aig.fanin1(v)));
    }
  }
  return eg;
}

}  // namespace emorphic::legacy
