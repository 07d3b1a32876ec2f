#include "egraph/runner.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <exception>
#include <future>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <utility>

#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace emorphic {

const char* stop_reason_name(StopReason reason) {
  switch (reason) {
    case StopReason::kSaturated:
      return "saturated";
    case StopReason::kIterLimit:
      return "iteration-limit";
    case StopReason::kNodeLimit:
      return "node-limit";
    case StopReason::kTimeLimit:
      return "time-limit";
    case StopReason::kCancelled:
      return "cancelled";
  }
  return "?";
}

RunnerReport run_rewriting(EGraph& egraph, const std::vector<Rewrite>& rules,
                           const RunnerParams& params) {
  return run_rewriting(egraph, rules, params, RunnerHooks{});
}

namespace {

/// One rule's matches for one iteration: (matched class, substitution).
using MatchList = std::vector<std::pair<EClassId, Subst>>;

/// Head-operator index: for each operator, the canonical classes containing
/// at least one e-node with that operator, plus the per-class presence masks
/// the matcher prunes with. Built once per iteration in one O(total e-nodes)
/// pass; rules whose LHS root is an operator then only visit their candidate
/// bucket instead of every class.
struct RuleIndex {
  std::array<std::vector<EClassId>, kNumOps> by_op;

  void build(const OpPresence& presence, const std::vector<EClassId>& ids) {
    for (auto& bucket : by_op) bucket.clear();
    for (EClassId id : ids) {
      for (std::size_t op = 0; op < kNumOps; ++op) {
        if (presence.count(id, static_cast<Op>(op)) != 0) {
          by_op[op].push_back(id);
        }
      }
    }
  }
};

/// Candidate classes per match chunk: small enough that the workers balance
/// well and a rule whose cap binds early skips most of its list, large enough
/// that claiming a chunk (one atomic increment) costs next to nothing.
constexpr std::size_t kChunkClasses = 64;

/// Up to kChunkClasses consecutive candidates of one rule and the matches
/// found in them.
struct Chunk {
  std::size_t rule = 0;
  std::span<const EClassId> classes;
  MatchList matches;
  bool done = false;  // guarded by ChunkedMatch::mutex_
};

/// The match phase of one iteration. Every rule's candidate list is cut into
/// chunks of kChunkClasses classes, in rule-major order; threads claim chunks
/// from one atomic counter. A rule's finished leading chunks form its prefix.
/// A chunk gathers at most `cap` minus the prefix's matches at claim time (a
/// bound on what the serial loop could still take from it), and once the
/// prefix holds `cap` matches the rule's later chunks are skipped.
/// Concatenating the chunks in order and truncating each rule to `cap` gives
/// exactly the serial prefix, whatever the thread count and claim
/// interleaving; on one thread the chunks do exactly the serial work.
class ChunkedMatch {
 public:
  ChunkedMatch(const EGraph& egraph, const std::vector<Rewrite>& rules,
               std::size_t cap)
      : egraph_(egraph),
        rules_(rules),
        cap_(cap),
        prefix_end_(rules.size()),
        prefix_matches_(rules.size()) {}

  /// Chunk every rule's candidate list for a new iteration; `candidates(r)`
  /// is rule r's list, which must outlive the match phase.
  template <typename Candidates>
  void plan(const OpPresence* presence, Candidates&& candidates) {
    presence_ = presence;
    chunks_.clear();
    next_ = 0;
    for (std::size_t r = 0; r < rules_.size(); ++r) {
      const std::vector<EClassId>& list = candidates(r);
      prefix_end_[r] = chunks_.size();
      prefix_matches_[r] = 0;
      for (std::size_t begin = 0; begin < list.size(); begin += kChunkClasses) {
        std::size_t size = std::min(kChunkClasses, list.size() - begin);
        chunks_.push_back({r, {list.data() + begin, size}, {}, false});
      }
    }
  }

  /// Match every planned chunk on the calling thread and one helper per
  /// `pool` worker (none without a pool), then cut each rule's matches down
  /// to its first `cap` in chunk order. Returns the chunks, which now hold
  /// exactly the serial match lists in rule order.
  std::vector<Chunk>& run(ThreadPool* pool) {
    std::vector<std::future<void>> helpers;
    if (pool != nullptr) {
      for (std::size_t t = 0; t < pool->size(); ++t) {
        helpers.push_back(pool->submit([this] { work(); }));
      }
    }
    // Every helper reads this object: wait for all of them before leaving,
    // also when matching threw.
    std::exception_ptr failure;
    try {
      work();
    } catch (...) {
      failure = std::current_exception();
    }
    for (std::future<void>& helper : helpers) helper.wait();
    if (failure) std::rethrow_exception(failure);
    for (std::future<void>& helper : helpers) helper.get();
    truncate();
    return chunks_;
  }

 private:
  /// Claim and match chunks until none are left. Runs on several threads
  /// at once; the e-graph must be clean and is only read.
  void work() {
    std::vector<Subst> substs;
    for (;;) {
      std::size_t i = next_++;
      if (i >= chunks_.size()) return;
      Chunk& chunk = chunks_[i];
      std::size_t found = prefix_matches_[chunk.rule];
      if (found >= cap_) continue;
      std::size_t limit = cap_ - found;
      const Pattern& lhs = rules_[chunk.rule].lhs;
      for (EClassId id : chunk.classes) {
        substs.clear();
        match_in_class(egraph_, lhs, id, substs, limit - chunk.matches.size(),
                       presence_);
        for (Subst& s : substs) chunk.matches.emplace_back(id, std::move(s));
        if (chunk.matches.size() >= limit) break;
      }
      finish(i);
    }
  }

  /// Cut each rule's matches down to its first `cap` in chunk order.
  void truncate() {
    std::size_t r = rules_.size();
    std::size_t kept = 0;
    for (Chunk& chunk : chunks_) {
      if (chunk.rule != r) {
        r = chunk.rule;
        kept = 0;
      }
      std::size_t room = cap_ - kept;
      if (chunk.matches.size() > room) {
        chunk.matches.erase(chunk.matches.begin() + room, chunk.matches.end());
      }
      kept += chunk.matches.size();
    }
  }

  /// Mark chunk `i` finished and grow its rule's prefix over every finished
  /// chunk it now reaches.
  void finish(std::size_t i) {
    std::lock_guard<std::mutex> lock(mutex_);
    chunks_[i].done = true;
    std::size_t rule = chunks_[i].rule;
    std::size_t& end = prefix_end_[rule];
    std::size_t found = prefix_matches_[rule];
    while (end < chunks_.size() && chunks_[end].rule == rule &&
           chunks_[end].done) {
      found += chunks_[end].matches.size();
      ++end;
    }
    prefix_matches_[rule] = found;
  }

  const EGraph& egraph_;
  const std::vector<Rewrite>& rules_;
  std::size_t cap_;
  const OpPresence* presence_ = nullptr;
  std::vector<Chunk> chunks_;
  std::atomic<std::size_t> next_{0};  // next chunk to claim
  // Per rule: the index of the first chunk outside its finished prefix, and
  // the matches that prefix holds. Written under mutex_ only; the counts are
  // atomic so that claims can read them without it.
  std::mutex mutex_;  // also guards every Chunk::done
  std::vector<std::size_t> prefix_end_;
  std::vector<std::atomic<std::size_t>> prefix_matches_;
};

}  // namespace

RunnerReport run_rewriting(EGraph& egraph, const std::vector<Rewrite>& rules,
                           const RunnerParams& params,
                           const RunnerHooks& hooks) {
  RunnerReport report;
  report.rule_matches.assign(rules.size(), 0);
  report.rule_applications.assign(rules.size(), 0);
  Timer total;

  // The match phase requires a clean e-graph (read-only concurrent finds);
  // a no-op when the caller already rebuilt.
  egraph.rebuild();

  unsigned threads = params.match_threads != 0
                         ? params.match_threads
                         : std::max(1u, std::thread::hardware_concurrency());
  // The calling thread matches too, so the pool holds the other threads.
  std::optional<ThreadPool> pool;
  if (threads > 1) pool.emplace(threads - 1);

  RuleIndex index;
  ChunkedMatch match(egraph, rules, params.max_matches_per_rule);

  for (std::size_t iter = 0; iter < params.max_iterations; ++iter) {
    // The apply phase stops once this many classes exist, so an iteration
    // that starts over the budget could only search and throw the matches
    // away.
    if (egraph.num_classes_created() > params.max_enodes) {
      report.stop_reason = StopReason::kNodeLimit;
      break;
    }

    Timer iter_timer;
    IterationStats stats;
    std::size_t enodes_before = egraph.num_enodes();
    std::size_t classes_before = egraph.num_classes();

    // Phase 1: search. Matches are gathered against a frozen e-graph so the
    // rule application order cannot influence what is found (the
    // phase-ordering freedom equality saturation is prized for). The match
    // list per rule is the first `max_matches_per_rule` substitutions in
    // class order, whatever the thread count.
    // The per-class operator statistics serve the matcher's pruning and join
    // ordering in *both* modes (so emission order — and thereby the capped
    // match prefix — is identical); use_rule_index only controls whether
    // rules restrict their root candidates to the per-operator buckets.
    std::vector<EClassId> ids = egraph.class_ids();
    OpPresence op_stats;
    op_stats.build(egraph, ids);
    if (params.use_rule_index) index.build(op_stats, ids);

    // The time limit is polled between iterations only (never mid-search),
    // so every iteration gathers the full capped match set.
    match.plan(&op_stats, [&](std::size_t r) -> const std::vector<EClassId>& {
      if (params.use_rule_index) {
        if (std::optional<Op> op = rules[r].lhs.root_op()) {
          return index.by_op[op_index(*op)];
        }
      }
      return ids;
    });
    const std::vector<Chunk>& chunks =
        match.run(pool.has_value() ? &*pool : nullptr);
    for (const Chunk& chunk : chunks) {
      stats.matches += chunk.matches.size();
      report.rule_matches[chunk.rule] += chunk.matches.size();
    }

    // Phase 2: apply. Instantiating the RHS only ever adds information.
    for (const Chunk& chunk : chunks) {
      for (const auto& [cls, subst] : chunk.matches) {
        EClassId rhs = instantiate(egraph, rules[chunk.rule].rhs, subst);
        if (egraph.find(cls) != egraph.find(rhs)) {
          egraph.merge(cls, rhs);
          ++stats.applied;
          ++report.rule_applications[chunk.rule];
        }
        if (egraph.num_classes_created() > params.max_enodes) break;
      }
      if (egraph.num_classes_created() > params.max_enodes) break;
    }

    // Phase 3: rebuild (one deferred congruence restoration per iteration).
    egraph.rebuild();

    stats.enodes_after = egraph.num_enodes();
    stats.classes_after = egraph.num_classes();
    stats.seconds = iter_timer.seconds();
    report.iterations.push_back(stats);

    if (hooks.on_iteration && !hooks.on_iteration(stats)) {
      report.stop_reason = StopReason::kCancelled;
      break;
    }
    if (stats.enodes_after >= params.max_enodes) {
      report.stop_reason = StopReason::kNodeLimit;
      break;
    }
    if (total.seconds() > params.time_limit_s) {
      report.stop_reason = StopReason::kTimeLimit;
      break;
    }
    if (stats.enodes_after == enodes_before &&
        stats.classes_after == classes_before) {
      report.stop_reason = StopReason::kSaturated;
      break;
    }
    report.stop_reason = StopReason::kIterLimit;
  }

  report.total_seconds = total.seconds();
  return report;
}

}  // namespace emorphic
