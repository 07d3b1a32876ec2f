#include "extract/sa_extractor.hpp"

#include <cmath>
#include <mutex>
#include <string>
#include <thread>

#include "aig/aig_io.hpp"
#include "util/timer.hpp"

namespace emorphic {
namespace {

struct ChainResult {
  Extraction solution;
  Qor qor;
  double cost = kInfCost;
  std::size_t evaluations = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  ExtractStats stats;
  std::vector<SaTracePoint> trace;
};

/// The paper's cooling schedule (Sec. IV-A). `n` is 1-based; `delta` is the
/// |new_cost - old_cost| observed in the last move of the iteration: the
/// divisor splits into n * 10000 for n = 2, 3 and plain n for the final
/// iteration.
double next_temperature(double t, unsigned n, double delta) {
  if (n <= 1) return t;
  // Degenerate-schedule guard: with no observed move delta — e.g.
  // moves_per_iteration == 0, or the last move left the cost unchanged —
  // there is no cooling signal; keep the temperature instead of collapsing
  // it to the 1e-6 floor.
  if (delta <= 0.0) return t;
  double scaled = delta / (n < 4 ? (static_cast<double>(n) * 10000.0)
                                 : static_cast<double>(n));
  double next = t * scaled;
  // Keep the temperature sane when |delta| is enormous or denormal.
  if (!(next > 0.0)) next = 1e-6;
  return std::min(next, t);
}

ChainResult run_chain(unsigned thread_index, const EGraph& egraph,
                      const std::vector<SerializedRoot>& roots,
                      const std::vector<std::string>& pi_names,
                      const QorEvaluator& evaluator, const SaParams& params,
                      const SaHooks& hooks, std::mutex& hook_mutex) {
  ChainResult result;
  Rng rng(params.seed * 0x9e3779b97f4a7c15ull + thread_index + 1);

  // Initial solution (Fig. 4): greedy depth / greedy size / random,
  // round-robin across threads so chains start from diverse corners. Each
  // chain also explores with the matching proxy cost: depth-seeded chains
  // chase delay structures, size-seeded chains chase sharing-friendly ones
  // — the blended QoR cost arbitrates between them.
  Extraction current(egraph.num_classes_created());
  CostModel proxy = params.proxy_cost;
  switch (thread_index % 3) {
    case 0:
      current = greedy_extract(egraph, CostModel{CostKind::kDepth},
                               &result.stats, params.prune);
      break;
    case 1:
      proxy = CostModel{CostKind::kSize};
      current = dag_refine(egraph,
                           greedy_extract(egraph, CostModel{CostKind::kSize},
                                          &result.stats, params.prune),
                           proxy, roots);
      break;
    default:
      current = random_extract(egraph, rng);
      break;
  }

  QorMemo* memo = hooks.qor_memo;
  bool last_was_hit = false;
  auto evaluate = [&](const Extraction& sol) {
    Aig aig = extraction_to_aig(egraph, sol, roots, pi_names).cleanup();
    std::string key;
    Qor qor;
    last_was_hit = false;
    if (memo != nullptr) {
      key = write_aiger_binary(aig);
      last_was_hit = memo->lookup(key, &qor);
      ++(last_was_hit ? result.cache_hits : result.cache_misses);
      if (last_was_hit) return qor;
    }
    ++result.evaluations;
    qor = evaluator.evaluate(aig);
    if (memo != nullptr) memo->insert(std::move(key), qor);
    return qor;
  };

  Qor current_qor = evaluate(current);
  double current_cost = evaluator.cost(current_qor);
  result.solution = current;
  result.qor = current_qor;
  result.cost = current_cost;

  double temperature = params.initial_temperature;
  double last_delta = 0.0;

  for (unsigned iter = 1; iter <= params.iterations; ++iter) {
    if (iter > 1) temperature = next_temperature(temperature, iter, last_delta);
    for (unsigned move = 0; move < params.moves_per_iteration; ++move) {
      if (hooks.stop && hooks.stop()) return result;
      BottomUpOptions options;
      options.cost = &proxy;
      options.p_random = params.p_random;
      options.rng = &rng;
      options.prune = params.prune;
      options.warm_start = &current;
      options.stats = &result.stats;
      Extraction candidate = bottom_up_extract(egraph, options);
      if (proxy.kind == CostKind::kSize) {
        // Size-oriented chains fight duplication with marginal-cost
        // refinement (tree costs overcount shared logic).
        candidate = dag_refine(egraph, candidate, proxy, roots, 1);
      }

      Qor qor = evaluate(candidate);
      double cost = evaluator.cost(qor);
      double delta = cost - current_cost;
      last_delta = std::abs(delta);

      bool accept = delta < 0.0;
      if (!accept && temperature > 0.0) {
        // Metropolis rule: occasional uphill moves escape local optima.
        accept = rng.next_double() < std::exp(-delta / temperature);
      }

      SaTracePoint point{thread_index, iter,         move,   temperature,
                         cost,         current_cost, accept, last_was_hit};
      result.trace.push_back(point);
      if (hooks.on_move) {
        std::lock_guard<std::mutex> lock(hook_mutex);
        hooks.on_move(point);
      }
      if (accept) {
        current = std::move(candidate);
        current_qor = qor;
        current_cost = cost;
        if (cost < result.cost ||
            (cost == result.cost && qor.area < result.qor.area)) {
          result.solution = current;
          result.qor = qor;
          result.cost = cost;
        }
      }
    }
  }
  return result;
}

}  // namespace

SaResult sa_extract(const EGraph& egraph,
                    const std::vector<SerializedRoot>& roots,
                    const std::vector<std::string>& pi_names,
                    const QorEvaluator& evaluator, const SaParams& params) {
  return sa_extract(egraph, roots, pi_names, evaluator, params, SaHooks{});
}

SaResult sa_extract(const EGraph& egraph,
                    const std::vector<SerializedRoot>& roots,
                    const std::vector<std::string>& pi_names,
                    const QorEvaluator& evaluator, const SaParams& params,
                    const SaHooks& hooks) {
  Timer timer;
  unsigned num_threads = std::max(1u, params.num_threads);

  std::vector<ChainResult> chains(num_threads);
  {
    std::mutex hook_mutex;
    std::vector<std::thread> threads;
    threads.reserve(num_threads);
    for (unsigned t = 0; t < num_threads; ++t) {
      threads.emplace_back([&, t] {
        chains[t] = run_chain(t, egraph, roots, pi_names, evaluator, params,
                              hooks, hook_mutex);
      });
    }
    for (auto& th : threads) th.join();
  }

  SaResult result;
  result.best_cost = kInfCost;
  for (auto& chain : chains) {
    result.evaluations += chain.evaluations;
    result.qor_cache_hits += chain.cache_hits;
    result.qor_cache_misses += chain.cache_misses;
    result.extract_stats.enodes_visited += chain.stats.enodes_visited;
    result.extract_stats.enodes_skipped += chain.stats.enodes_skipped;
    result.extract_stats.passes += chain.stats.passes;
    for (auto& point : chain.trace) result.trace.push_back(point);
    if (chain.cost < result.best_cost ||
        (chain.cost == result.best_cost &&
         chain.qor.area < result.best_qor.area)) {
      result.best = chain.solution;
      result.best_qor = chain.qor;
      result.best_cost = chain.cost;
    }
  }
  // Final DAG-aware polish of the winner: strictly-validated, adopted only
  // when the evaluator agrees it is no worse.
  Extraction polished =
      dag_refine(egraph, result.best, CostModel{CostKind::kSize}, roots);
  Aig polished_aig =
      extraction_to_aig(egraph, polished, roots, pi_names).cleanup();
  QorMemo* memo = hooks.qor_memo;
  Qor polished_qor;
  if (memo != nullptr &&
      memo->lookup(write_aiger_binary(polished_aig), &polished_qor)) {
    ++result.qor_cache_hits;
  } else {
    polished_qor = evaluator.evaluate(polished_aig);
    ++result.evaluations;
    if (memo != nullptr) ++result.qor_cache_misses;
  }
  double polished_cost = evaluator.cost(polished_qor);
  if (polished_cost < result.best_cost) {
    result.best = std::move(polished);
    result.best_qor = polished_qor;
    result.best_cost = polished_cost;
  }
  result.seconds = timer.seconds();
  return result;
}

}  // namespace emorphic
