#include "egraph/pattern.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>

namespace emorphic {

Pat Pat::v(const std::string& name) {
  auto node = std::make_shared<Node>();
  node->is_pattern_var = true;
  node->var_name = name;
  return Pat(std::move(node));
}

namespace {
Pat make_op(Op op, std::vector<Pat> children) {
  auto node = std::make_shared<Pat::Node>();
  node->op = op;
  node->children = std::move(children);
  return Pat(std::move(node));
}
}  // namespace

Pat Pat::c0() { return make_op(Op::kConst0, {}); }
Pat Pat::c1() { return make_op(Op::kConst1, {}); }
Pat Pat::not_(Pat a) { return make_op(Op::kNot, {std::move(a)}); }
Pat Pat::and_(Pat a, Pat b) { return make_op(Op::kAnd, {std::move(a), std::move(b)}); }
Pat Pat::or_(Pat a, Pat b) { return make_op(Op::kOr, {std::move(a), std::move(b)}); }
Pat Pat::xor_(Pat a, Pat b) { return make_op(Op::kXor, {std::move(a), std::move(b)}); }

Pattern Pattern::compile(const Pat& pat, std::vector<std::string>& var_names) {
  Pattern out;
  // Depth-first flattening; children are emitted before their parent.
  struct Rec {
    Pattern& out;
    std::vector<std::string>& var_names;
    std::int32_t operator()(const Pat& p) {
      const Pat::Node& n = p.node();
      Node flat;
      if (n.is_pattern_var) {
        flat.is_var = true;
        auto it = std::find(var_names.begin(), var_names.end(), n.var_name);
        if (it == var_names.end()) {
          flat.var = static_cast<std::uint32_t>(var_names.size());
          var_names.push_back(n.var_name);
        } else {
          flat.var = static_cast<std::uint32_t>(it - var_names.begin());
        }
      } else {
        flat.op = n.op;
        flat.structure = 1;
        for (std::size_t i = 0; i < n.children.size(); ++i) {
          flat.children[i] = (*this)(n.children[i]);
          flat.structure = static_cast<std::uint16_t>(
              flat.structure + out.nodes_[flat.children[i]].structure);
        }
      }
      out.nodes_.push_back(flat);
      return static_cast<std::int32_t>(out.nodes_.size() - 1);
    }
  };
  out.root_ = Rec{out, var_names}(pat);
  out.num_vars_ = static_cast<std::uint32_t>(var_names.size());
  return out;
}

std::string Pattern::to_string(const std::vector<std::string>& var_names) const {
  struct Rec {
    const Pattern& p;
    const std::vector<std::string>& names;
    std::string operator()(std::int32_t i) const {
      const Node& n = p.nodes()[i];
      if (n.is_var) return names[n.var];
      switch (op_arity(n.op)) {
        case 0:
          return op_name(n.op);
        case 1:
          return std::string(op_name(n.op)) + (*this)(n.children[0]);
        default: {
          std::string s = "(";
          s += (*this)(n.children[0]);
          s += ' ';
          s += op_name(n.op);
          s += ' ';
          s += (*this)(n.children[1]);
          s += ')';
          return s;
        }
      }
    }
  };
  return Rec{*this, var_names}(root_);
}

void OpPresence::build(const EGraph& egraph, const std::vector<EClassId>& ids) {
  counts_.assign(egraph.num_classes_created(), {});
  for (EClassId id : ids) {
    std::array<std::uint16_t, kNumOps>& counts = counts_[id];
    for (const ENode& n : egraph.eclass(id).nodes) {
      std::uint16_t& slot = counts[op_index(n.op)];
      if (slot != 0xffff) ++slot;
    }
  }
}

namespace {

class Matcher {
 public:
  Matcher(const EGraph& egraph, const Pattern& pattern, std::vector<Subst>& out,
          std::size_t limit, const OpPresence* presence)
      : egraph_(egraph),
        pattern_(pattern),
        out_(out),
        limit_(limit),
        presence_(presence) {}

  void run(EClassId root) {
    Subst subst(pattern_.num_vars(), kNoEClass);
    match(pattern_.root(), root, subst);
  }

 private:
  bool full() const { return out_.size() >= limit_; }

  /// Try to match pattern node `pi` against class `cls` under `subst`;
  /// emits every consistent completed substitution into out_ (via cont_
  /// stack). Uses explicit recursion with copy-on-branch substitutions:
  /// match counts are capped, so the copies stay cheap.
  void match(std::int32_t pi, EClassId cls, Subst& subst) {
    if (full()) return;
    cls = egraph_.find(cls);
    const Pattern::Node& pn = pattern_.nodes()[pi];
    // Feasibility pruning: bail before touching the class's node list when
    // it provably holds no e-node with the required operator. Applies at
    // every recursion depth, which is what tames deep patterns.
    if (!pn.is_var && presence_ != nullptr &&
        !presence_->may_contain(cls, pn.op)) {
      return;
    }
    if (pn.is_var) {
      if (subst[pn.var] == kNoEClass) {
        subst[pn.var] = cls;
        emit_or_continue(subst);
        subst[pn.var] = kNoEClass;
      } else if (subst[pn.var] == cls) {
        emit_or_continue(subst);
      }
      return;
    }
    // Push-time feasibility: a (pattern child, class) obligation is doomed
    // when the class lacks the child's operator, or the child is a variable
    // already bound to a different class. (Bindings made by an ancestor stay
    // fixed for the whole subtree, so checking at push time is sound.)
    auto feasible = [&](std::int32_t p, EClassId m) {
      const Pattern::Node& child = pattern_.nodes()[p];
      if (child.is_var) {
        return subst[child.var] == kNoEClass || subst[child.var] == m;
      }
      return presence_ == nullptr || presence_->may_contain(m, child.op);
    };
    // Estimated branching factor of matching pattern child `p` against class
    // `m`: variables bind or filter without branching; operator children
    // branch once per matching e-node.
    auto fanout = [&](std::int32_t p, EClassId m) -> std::size_t {
      const Pattern::Node& child = pattern_.nodes()[p];
      if (child.is_var) return 0;
      if (presence_ != nullptr) return presence_->count(m, child.op);
      return egraph_.eclass(m).nodes.size();
    };

    for (const ENode& enode : egraph_.eclass(cls).nodes) {
      if (full()) return;
      if (enode.op != pn.op) continue;
      switch (op_arity(pn.op)) {
        case 0:
          emit_or_continue(subst);
          break;
        case 1: {
          EClassId c0 = egraph_.find(enode.children[0]);
          if (!feasible(pn.children[0], c0)) break;
          frames_.push_back({pn.children[0], c0});
          descend(subst);
          frames_.pop_back();
          break;
        }
        case 2: {
          bool commutative = op_is_commutative(pn.op);
          EClassId c0 = egraph_.find(enode.children[0]);
          EClassId c1 = egraph_.find(enode.children[1]);
          std::int32_t p0 = pn.children[0];
          std::int32_t p1 = pn.children[1];
          auto explore = [&](EClassId m0, EClassId m1) {
            if (!feasible(p0, m0) || !feasible(p1, m1)) return;
            // Join ordering: explore the child with the smaller branching
            // factor first, so its bindings filter the expensive sibling.
            // Ties go to the more structured pattern child, which binds its
            // variables through structural constraints. The order depends
            // only on the pattern and the frozen e-graph state, so match
            // emission order stays deterministic.
            std::size_t w0 = fanout(p0, m0);
            std::size_t w1 = fanout(p1, m1);
            bool first0 = w0 != w1 ? w0 < w1
                                   : pattern_.nodes()[p0].structure >=
                                         pattern_.nodes()[p1].structure;
            // Frames pop LIFO: push the second obligation first.
            if (first0) {
              frames_.push_back({p1, m1});
              frames_.push_back({p0, m0});
            } else {
              frames_.push_back({p0, m0});
              frames_.push_back({p1, m1});
            }
            descend(subst);
            frames_.pop_back();
            frames_.pop_back();
          };
          explore(c0, c1);
          if (commutative && c0 != c1) explore(c1, c0);
          break;
        }
      }
    }
  }

  // Pending (pattern node, class) obligations; matching proceeds when all
  // obligations are discharged.
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

  void emit_or_continue(Subst& subst) { descend(subst); }

  const EGraph& egraph_;
  const Pattern& pattern_;
  std::vector<Subst>& out_;
  std::size_t limit_;
  const OpPresence* presence_;
  std::vector<Frame> frames_;
};

}  // namespace

void match_in_class(const EGraph& egraph, const Pattern& pattern, EClassId root,
                    std::vector<Subst>& out, std::size_t limit,
                    const OpPresence* presence) {
  Matcher(egraph, pattern, out, limit, presence).run(root);
}

EClassId instantiate(EGraph& egraph, const Pattern& pattern, const Subst& subst) {
  std::vector<EClassId> result(pattern.nodes().size(), kNoEClass);
  for (std::size_t i = 0; i < pattern.nodes().size(); ++i) {
    const Pattern::Node& n = pattern.nodes()[i];
    if (n.is_var) {
      assert(subst[n.var] != kNoEClass);
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

Rewrite Rewrite::make(const std::string& name, const Pat& lhs, const Pat& rhs) {
  Rewrite rw;
  rw.name = name;
  rw.lhs = Pattern::compile(lhs, rw.var_names);
  rw.rhs = Pattern::compile(rhs, rw.var_names);
  return rw;
}

}  // namespace emorphic
