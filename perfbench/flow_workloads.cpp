// The in-process flow workloads: explore, verify_arith and partition_tiles.
//
// A pass regenerates the workload's circuits and a fresh NPN matcher
// (set-up, timed apart), then runs every circuit through
// Pipeline::emorphic(params) sequentially (timed). Passes repeat until the
// run's seconds are spent. Every pass must reproduce the first pass's
// exact results (the determinism guard).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "aig/aig_io.hpp"
#include "aig/signature.hpp"
#include "aig/sim.hpp"
#include "benchgen/arith.hpp"
#include "benchgen/control.hpp"
#include "benchgen/doubling.hpp"
#include "egraph/rules.hpp"
#include "opt/partition.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace emorphic;

void Outcome::fail_operation(const std::string& why, std::uint64_t count) {
  failed += count;
  correct = false;
  std::fprintf(stderr, "FAILED: %s\n", why.c_str());
}

void Outcome::mismatch(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "DETERMINISM: %s\n", why.c_str());
}

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

FlowParams paper_params() {
  FlowParams params;
  params.rounds = 4;
  params.rewrite.max_iterations = 5;
  params.rewrite.max_enodes = 30000;
  params.rewrite.max_matches_per_rule = 4000;
  params.rewrite.time_limit_s = 1e9;  // unreachable: node/iteration caps only
  params.sa.iterations = 4;
  params.sa.initial_temperature = 2000.0;
  params.sa.moves_per_iteration = 3;
  params.sa.num_threads = 4;
  params.verify = true;
  params.cec_params.time_limit_s = 0.0;  // conflict-bounded only
  params.cec_params.conflict_limit = 30000;
  params.paranoia = false;
  return params;
}

bool is_flow_workload(const std::string& name) {
  return name == "explore" || name == "verify_arith" ||
         name == "partition_tiles";
}

namespace {

/// True when `result` stopped for a reason other than its own work limits
/// (a deadline, a cancel flag, a saturation time limit); sets `why`.
bool stopped_on_clock(const FlowResult& result, std::string* why) {
  if (result.stop_reason != FlowStopReason::kNone || result.cancelled) {
    *why = std::string("flow stop reason ") + to_string(result.stop_reason);
    return true;
  }
  if (result.rewrite_report.stop_reason == StopReason::kTimeLimit ||
      result.rewrite_report.stop_reason == StopReason::kCancelled) {
    *why = std::string("saturation stopped: ") +
           stop_reason_name(result.rewrite_report.stop_reason);
    return true;
  }
  return false;
}

constexpr std::size_t kPartitionTargetAnds = 60000;
constexpr std::size_t kReplayMovesPerCircuit = 6;
constexpr std::size_t kReplayWindows = 6;
constexpr std::uint64_t kFlowSeed = 1;

struct Circuit {
  std::string name;
  Aig aig;
  std::uint64_t seed = 0;  // FlowContext::seed
};

/// One tile of partition_tiles: its PI and PO index ranges in the tiled
/// circuit (the partitioned flow keeps the interface order).
struct Tile {
  std::uint32_t pi_begin = 0, pi_end = 0, po_begin = 0, po_end = 0;
};

/// Append a disjoint copy of `base` to `dst` (fresh PIs/POs, names
/// suffixed), returning its interface ranges.
Tile append_copy(Aig& dst, const Aig& base, const std::string& suffix) {
  Tile tile;
  tile.pi_begin = dst.num_pis();
  tile.po_begin = dst.num_pos();
  std::vector<Lit> map(base.num_nodes(), kLitFalse);
  for (std::uint32_t i = 0; i < base.num_pis(); ++i) {
    map[base.pis()[i]] = make_lit(dst.add_pi(base.pi_name(i) + suffix));
  }
  auto translate = [&](Lit l) {
    return lit_notcond(map[lit_var(l)], lit_is_compl(l));
  };
  for (Var v = 0; v < base.num_nodes(); ++v) {
    if (base.is_and(v)) {
      map[v] = dst.make_and(translate(base.fanin0(v)), translate(base.fanin1(v)));
    }
  }
  for (std::uint32_t i = 0; i < base.num_pos(); ++i) {
    dst.add_po(translate(base.po(i)), base.po_name(i) + suffix);
  }
  tile.pi_end = dst.num_pis();
  tile.po_end = dst.num_pos();
  return tile;
}

/// The sub-circuit of `aig` driving POs [po_begin, po_end), over PIs
/// [pi_begin, pi_end). Throws when that cone reads any other PI: tiles are
/// disjoint, so such a dependency means the flow crossed tiles.
Aig tile_cone(const Aig& aig, const Tile& tile) {
  std::vector<std::uint8_t> mark(aig.num_nodes(), 0);
  for (std::uint32_t i = tile.po_begin; i < tile.po_end; ++i) {
    aig.mark_cone(lit_var(aig.po(i)), mark);
  }
  Aig out;
  std::vector<Lit> map(aig.num_nodes(), kLitFalse);
  for (std::uint32_t i = tile.pi_begin; i < tile.pi_end; ++i) {
    map[aig.pis()[i]] = make_lit(out.add_pi(aig.pi_name(i)));
  }
  for (std::uint32_t i = 0; i < aig.num_pis(); ++i) {
    const bool inside = i >= tile.pi_begin && i < tile.pi_end;
    if (!inside && mark[aig.pis()[i]] != 0) {
      throw std::runtime_error("tile cone reads PI '" + aig.pi_name(i) +
                               "' of another tile");
    }
  }
  auto translate = [&](Lit l) {
    return lit_notcond(map[lit_var(l)], lit_is_compl(l));
  };
  for (Var v = 0; v < aig.num_nodes(); ++v) {
    if (mark[v] != 0 && aig.is_and(v)) {
      map[v] = out.make_and(translate(aig.fanin0(v)), translate(aig.fanin1(v)));
    }
  }
  for (std::uint32_t i = tile.po_begin; i < tile.po_end; ++i) {
    out.add_po(translate(aig.po(i)), aig.po_name(i));
  }
  return out;
}

/// The workload's circuits for one pass. explore and verify_arith run fixed
/// benchgen circuits in a seeded order; partition_tiles tiles a seeded
/// mixture of doubled adders up to kPartitionTargetAnds. Each circuit's SA
/// seed is fixed, not drawn from the workload seed: SA results vary by
/// several percent between SA seeds, which would swamp the QoR bounds.
std::vector<Circuit> make_circuits(const std::string& workload,
                                   std::uint64_t seed,
                                   std::vector<Tile>* tiles) {
  std::vector<Circuit> circuits;
  if (workload == "explore") {
    circuits = {{"adder8", make_adder(8)},
                {"sin6", make_sin(6)},
                {"arbiter8", make_arbiter(8)},
                {"sqrt10", make_sqrt(10)}};
  } else if (workload == "verify_arith") {
    circuits = {{"multiplier6", make_multiplier(6)}, {"div12", make_divisor(12)}};
  } else {
    const Aig bases[] = {doubled(make_adder(5)), doubled(make_adder(6)),
                         doubled(make_adder(7))};
    Rng rng(mix_seed(seed, 0x7117));
    Aig tiled;
    tiles->clear();
    while (tiled.num_ands() < kPartitionTargetAnds) {
      const Aig& base = bases[rng.next_below(3)];
      tiles->push_back(
          append_copy(tiled, base, "_t" + std::to_string(tiles->size())));
    }
    circuits = {{"tiles", std::move(tiled)}};
  }
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    circuits[i].seed = mix_seed(kFlowSeed, i) | 1;  // nonzero: overrides sa.seed
  }
  Rng order(mix_seed(seed, 0x0d3));
  shuffle(circuits, order);
  return circuits;
}

FlowParams workload_params(const std::string& workload) {
  FlowParams params = paper_params();
  if (workload == "partition_tiles") {
    // The micro_scale settings: many small windows, each saturated once,
    // greedily extracted, SAT-swept and SAT-gated. The whole-circuit miter
    // is out of reach, so the benchmark checks tiles (verify off).
    params.partition = true;
    params.fraig_post = true;
    params.verify = false;
    params.window_size = 1000;
    params.rewrite.max_iterations = 1;
    params.rewrite.max_enodes = 12000;
    params.rewrite.max_matches_per_rule = 500;
  }
  return params;
}

/// Everything a pass must reproduce exactly.
struct Fingerprint {
  double area = 0, delay = 0;
  std::uint32_t lev = 0, ands = 0;
  std::uint64_t signature = 0;
  std::size_t enodes = 0, classes = 0, iterations = 0, matches = 0,
              applied = 0, moves = 0, accepted = 0, evals_plus_hits = 0;
  CecStatus verify = CecStatus::kUndecided;
  std::size_t windows = 0, adopted = 0;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint(const FlowResult& r) {
  Fingerprint f;
  f.area = r.qor.area;
  f.delay = r.qor.delay;
  f.lev = r.qor.lev;
  f.ands = r.final_aig.num_ands();
  f.signature = structural_signature(r.final_aig);
  f.enodes = r.egraph_enodes;
  f.classes = r.egraph_classes;
  f.iterations = r.rewrite_report.iterations.size();
  for (const IterationStats& it : r.rewrite_report.iterations) {
    f.matches += it.matches;
    f.applied += it.applied;
  }
  f.moves = r.sa.trace.size();
  for (const SaTracePoint& p : r.sa.trace) f.accepted += p.accepted ? 1 : 0;
  // The evaluation/memo-hit split is not exact (chains share the per-run
  // memo concurrently); their sum is.
  f.evals_plus_hits = r.sa.evaluations + r.sa.qor_cache_hits;
  f.verify = r.verify_status;
  f.windows = r.partition_stats.num_windows;
  f.adopted = r.partition_stats.windows_adopted;
  return f;
}

// --- tracing hooks -------------------------------------------------------------

/// Records flow, stage and saturation-iteration spans, and SA move counters,
/// from the pipeline's own observer hooks. One flow at a time.
class TracingObserver : public FlowObserver {
 public:
  explicit TracingObserver(SpanRecorder& recorder) : recorder_(recorder) {}

  void start_group(std::uint64_t group) { group_ = group; }
  std::uint64_t group() const { return group_; }
  std::int64_t stage_span() const { return stage_span_.load(); }

  void on_flow_begin(const FlowContext&) override {
    flow_span_ = recorder_.begin("flow", SpanRecorder::kNoParent, group_);
  }
  void on_stage_begin(const Stage& stage, const FlowContext&) override {
    moves_ = accepted_ = hits_ = 0;
    stage_span_ = recorder_.begin(std::string("stage.") + stage.name(),
                                  flow_span_, group_);
  }
  void on_stage_end(const Stage& stage, const StageTelemetry&,
                    const FlowContext&) override {
    const std::int64_t span = stage_span_.load();
    recorder_.end(span);
    if (std::string_view(stage.name()) == "SaExtract") {
      recorder_.counter(span, "moves", static_cast<double>(moves_));
      recorder_.counter(span, "accepted", static_cast<double>(accepted_));
      recorder_.counter(span, "memo_hits", static_cast<double>(hits_));
    }
  }
  void on_rewrite_iteration(const IterationStats& stats,
                            const FlowContext&) override {
    const double t = recorder_.now();
    const std::int64_t span = recorder_.add(
        "egraph.iteration", stage_span_.load(), group_, t - stats.seconds, t);
    recorder_.counter(span, "matches", static_cast<double>(stats.matches));
    recorder_.counter(span, "applied", static_cast<double>(stats.applied));
    recorder_.counter(span, "enodes", static_cast<double>(stats.enodes_after));
    recorder_.counter(span, "classes",
                      static_cast<double>(stats.classes_after));
  }
  void on_sa_move(const SaTracePoint& point, const FlowContext&) override {
    ++moves_;  // serialized by the extractor
    accepted_ += point.accepted ? 1 : 0;
    hits_ += point.cache_hit ? 1 : 0;
  }
  void on_flow_end(const FlowContext&) override { recorder_.end(flow_span_); }

 private:
  SpanRecorder& recorder_;
  std::uint64_t group_ = 0;
  std::int64_t flow_span_ = SpanRecorder::kNoParent;
  std::atomic<std::int64_t> stage_span_{SpanRecorder::kNoParent};
  std::size_t moves_ = 0, accepted_ = 0, hits_ = 0;
};

/// The flow's default SA cost model (MapQorEvaluator over the context's
/// matcher and area weight), with each evaluation recorded as a span.
class TimingEvaluator : public QorEvaluator {
 public:
  TimingEvaluator(std::shared_ptr<const Matcher> matcher, double area_weight,
                  SpanRecorder& recorder, const TracingObserver& observer)
      : QorEvaluator(area_weight),
        inner_(std::move(matcher), area_weight),
        recorder_(recorder),
        observer_(observer) {}

  Qor evaluate(const Aig& candidate) const override {
    const double t0 = recorder_.now();
    Qor q = inner_.evaluate(candidate);
    const double t1 = recorder_.now();
    recorder_.add("mapper.eval", observer_.stage_span(), observer_.group(), t0,
                  t1);
    return q;
  }

 private:
  MapQorEvaluator inner_;
  SpanRecorder& recorder_;
  const TracingObserver& observer_;
};

/// Per-phase milliseconds of single SA moves replayed on a flow's
/// rewritten e-graph: Algorithm 1 neighbor generation, lowering, cleanup,
/// structural signature, evaluation mapping.
struct MoveReplay {
  double extract_ms = 0, lower_ms = 0, cleanup_ms = 0, signature_ms = 0,
         map_ms = 0;
  std::size_t moves = 0;
};

void replay_moves(const CircuitEGraph& ce, const FlowParams& params,
                  const Matcher& matcher, std::uint64_t seed,
                  SpanRecorder& recorder, std::uint64_t group,
                  MoveReplay* out) {
  const CostModel proxy = params.sa.proxy_cost;
  const Extraction start = greedy_extract(ce.egraph, proxy);
  MapperParams eval_params;  // MapQorEvaluator's reduced effort
  eval_params.num_cuts = 4;
  eval_params.area_recovery = false;
  MapperWorkspace workspace;
  Rng rng(seed);
  for (std::size_t m = 0; m < kReplayMovesPerCircuit; ++m) {
    const std::int64_t move =
        recorder.begin("extract.move", SpanRecorder::kNoParent, group);
    auto phase = [&](const char* name, auto&& fn) {
      const double t0 = recorder.now();
      fn();
      const double t1 = recorder.now();
      recorder.add(name, move, group, t0, t1);
      return (t1 - t0) * 1e3;
    };
    Extraction candidate;
    Aig lowered, cleaned;
    BottomUpOptions options;
    options.cost = &proxy;
    options.p_random = params.sa.p_random;
    options.rng = &rng;
    options.prune = params.sa.prune;
    options.warm_start = &start;
    out->extract_ms += phase("extract.move.extract",
                             [&] { candidate = bottom_up_extract(ce.egraph, options); });
    out->lower_ms += phase("extract.move.lower", [&] {
      lowered = extraction_to_aig(ce.egraph, candidate, ce.roots, ce.pi_names);
    });
    out->cleanup_ms +=
        phase("extract.move.cleanup", [&] { cleaned = lowered.cleanup(); });
    std::uint64_t sig = 0;
    out->signature_ms += phase("extract.move.signature",
                               [&] { sig = structural_signature(cleaned); });
    MappedQor q;
    out->map_ms += phase("extract.move.map", [&] {
      q = map_qor(cleaned, matcher, eval_params, &workspace);
    });
    recorder.counter(move, "signature", static_cast<double>(sig % 1000003));
    recorder.counter(move, "delay", q.delay);
    recorder.end(move);
    ++out->moves;
  }
}

/// Per-phase milliseconds of partition windows replayed through the
/// per-window flow: conversion, saturation, greedy extraction, SAT sweep,
/// and the equivalence gate.
struct WindowReplay {
  double convert_ms = 0, rewrite_ms = 0, extract_ms = 0, fraig_ms = 0,
         gate_ms = 0;
  std::uint64_t gate_conflicts = 0;
  std::size_t windows = 0, iterations = 0, matches = 0, applied = 0,
              enodes = 0, classes = 0, node_limit_stops = 0;
};

void replay_windows(const Aig& input, const FlowParams& params,
                    std::uint64_t seed, SpanRecorder& recorder,
                    WindowReplay* out) {
  const WindowAssignment assignment =
      assign_windows(input, params.window_size);
  const std::vector<Window> windows = build_windows(input, assignment);
  if (windows.empty()) return;
  RunnerParams rewrite = params.rewrite;
  rewrite.match_threads = 1;  // as the partition stage runs windows
  const std::vector<Rewrite> rules = make_logic_rules();
  CecParams gate = params.cec_params;
  gate.time_limit_s = 0.0;
  Rng rng(mix_seed(seed, 0x3107));
  for (std::size_t k = 0; k < kReplayWindows; ++k) {
    const std::size_t w = rng.next_below(windows.size());
    const std::uint64_t group = 1000000 + w;
    const std::int64_t span =
        recorder.begin("opt.window", SpanRecorder::kNoParent, group);
    auto phase = [&](const char* name, auto&& fn) {
      const double t0 = recorder.now();
      fn();
      const double t1 = recorder.now();
      recorder.add(name, span, group, t0, t1);
      return (t1 - t0) * 1e3;
    };
    const Aig sub = extract_window(input, windows[w]);
    CircuitEGraph ce;
    RunnerReport report;
    Aig extracted, swept;
    out->convert_ms += phase("opt.window.convert", [&] { ce = aig_to_egraph(sub); });
    out->rewrite_ms += phase("opt.window.rewrite", [&] {
      report = run_rewriting(ce.egraph, rules, rewrite);
    });
    out->extract_ms += phase("opt.window.extract", [&] {
      extracted = egraph_to_aig_greedy(ce, CostKind::kDepth);
    });
    out->fraig_ms +=
        phase("opt.window.fraig", [&] { swept = fraig(extracted, params.fraig); });
    CecResult verdict;
    out->gate_ms += phase("opt.window.gate", [&] {
      verdict = cec(sub, read_aiger_binary(write_aiger_binary(swept)), gate);
    });
    recorder.counter(span, "gate_conflicts",
                     static_cast<double>(verdict.sat_conflicts));
    recorder.end(span);
    out->gate_conflicts += verdict.sat_conflicts;
    ++out->windows;
    out->iterations += report.iterations.size();
    for (const IterationStats& it : report.iterations) {
      out->matches += it.matches;
      out->applied += it.applied;
    }
    out->enodes += ce.egraph.num_enodes();
    out->classes += ce.egraph.num_classes();
    out->node_limit_stops +=
        report.stop_reason == StopReason::kNodeLimit ? 1 : 0;
  }
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

Outcome run_flow_workload(const RunConfig& config) {
  Outcome outcome;
  outcome.metrics = config.trace ? zeroed(per_layer_specs())
                                 : zeroed(end_to_end_specs());
  const FlowParams params = workload_params(config.workload);
  const Pipeline pipeline = Pipeline::emorphic(params);
  const bool partition = params.partition;

  SpanRecorder recorder;
  TracingObserver observer(recorder);

  std::vector<double> setup_samples;
  std::vector<std::vector<double>> untraced_s, traced_s;  // [circuit][pass]
  std::vector<Fingerprint> reference;
  std::vector<FlowResult> first;  // pass-0 results, for QoR and checks
  std::vector<Circuit> circuits;
  std::vector<Tile> tiles;
  std::shared_ptr<const Matcher> matcher;
  // The last traced pass's contexts keep their rewritten e-graphs for the
  // move replay.
  std::vector<std::unique_ptr<FlowContext>> traced_contexts;
  std::vector<double> traced_eval_busy;  // per traced pass

  for (int rep = 0; rep < kSetupReps; ++rep) {
    Timer setup;
    circuits = make_circuits(config.workload, config.seed, &tiles);
    matcher = std::make_shared<const Matcher>(*params.library);
    setup_samples.push_back(setup.seconds());
  }

  Timer run_clock;
  std::size_t pass = 0;
  // Traced runs follow the warm-up pass with alternating untraced and
  // traced passes: the difference of their medians is the tracing overhead.
  const std::size_t min_passes = config.trace ? 2 * kMinPasses - 1 : kMinPasses;
  while (pass < min_passes || run_clock.seconds() < config.seconds) {
    const bool warmup = pass == 0;
    const bool traced = config.trace && !warmup && pass % 2 == 0;
    Timer setup;
    circuits = make_circuits(config.workload, config.seed, &tiles);
    matcher = std::make_shared<const Matcher>(*params.library);
    setup_samples.push_back(setup.seconds());
    if (untraced_s.empty()) {
      untraced_s.resize(circuits.size());
      traced_s.resize(circuits.size());
    }
    std::vector<std::unique_ptr<FlowContext>> contexts;
    const double busy_before = recorder.total("mapper.eval");
    for (std::size_t i = 0; i < circuits.size(); ++i) {
      auto ctx = std::make_unique<FlowContext>();
      ctx->params = params;
      ctx->input = circuits[i].aig;
      ctx->seed = circuits[i].seed;
      ctx->matcher = matcher;
      std::optional<TimingEvaluator> evaluator;
      if (traced) {
        observer.start_group(pass * 1000 + i);
        ctx->observer = &observer;
        if (!partition) {
          evaluator.emplace(matcher, params.area_weight, recorder, observer);
          ctx->evaluator = &*evaluator;
        }
      }
      ++outcome.attempted;
      FlowResult result;
      Timer flow_clock;
      try {
        result = pipeline.run(*ctx);
      } catch (const std::exception& e) {
        outcome.fail_operation(circuits[i].name + ": " + e.what());
        continue;
      }
      const double seconds = flow_clock.seconds();
      ctx->evaluator = nullptr;
      if (!warmup) (traced ? traced_s : untraced_s)[i].push_back(seconds);
      std::string why;
      if (stopped_on_clock(result, &why)) {
        outcome.fail_operation(circuits[i].name + ": " + why);
      }
      if (result.verify_status == CecStatus::kNotEquivalent) {
        outcome.fail_operation(circuits[i].name + ": refuted by Cec");
      }
      const Fingerprint f = fingerprint(result);
      if (pass == 0) {
        reference.push_back(f);
        first.push_back(std::move(result));
      } else if (i < reference.size() && !(f == reference[i])) {
        outcome.mismatch(circuits[i].name + ": pass " + std::to_string(pass) +
                         " differs from pass 0");
      }
      if (traced) contexts.push_back(std::move(ctx));
    }
    if (traced) {
      traced_contexts = std::move(contexts);
      traced_eval_busy.push_back(recorder.total("mapper.eval") - busy_before);
    }
    ++pass;
    if (pass == kMinPasses) outcome.peak_rss_mib = peak_rss_mib();
  }
  if (first.size() != circuits.size()) {
    outcome.fail_operation("the first pass did not complete every circuit");
    return outcome;
  }

  // --- output checks (untimed) ---------------------------------------------
  std::size_t proven = 0, checked = 0;
  std::vector<double> areas, delays, ands_ratios;
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    const FlowResult& r = first[i];
    ands_ratios.push_back(ratio(r.final_aig.num_ands(), circuits[i].aig.num_ands()));
    if (!partition) {
      areas.push_back(r.qor.area);
      delays.push_back(r.qor.delay);
      ++checked;
      proven += r.verify_status == CecStatus::kEquivalent ? 1 : 0;
      continue;
    }
    // The stitched circuit: QoR of its final mapping, a simulation check of
    // the whole, and a SAT proof per tile.
    const MappedQor q = map_qor(r.final_aig, *matcher, params.mapping);
    areas.push_back(q.area);
    delays.push_back(q.delay);
    Rng rng(mix_seed(config.seed, 0x51d));
    if (!sim_probably_equal(circuits[i].aig, r.final_aig, rng, 64)) {
      outcome.fail_operation("partition output differs under simulation");
    }
    for (const Tile& tile : tiles) {
      ++checked;
      try {
        CecResult c = cec(tile_cone(circuits[i].aig, tile),
                          tile_cone(r.final_aig, tile), params.cec_params);
        if (c.status == CecStatus::kNotEquivalent) {
          outcome.fail_operation("tile refuted by cec");
        }
        proven += c.status == CecStatus::kEquivalent ? 1 : 0;
      } catch (const std::exception& e) {
        outcome.fail_operation(std::string("tile check: ") + e.what());
      }
    }
  }

  auto flow_seconds = [](const std::vector<std::vector<double>>& per_circuit) {
    double sum = 0.0;  // one pass: the sum of per-circuit medians
    for (const auto& samples : per_circuit) sum += median(samples);
    return sum;
  };

  std::fprintf(stderr,
               "[%s] %zu passes, %zu circuits, %zu/%zu outputs proven\n",
               config.workload.c_str(), pass, circuits.size(), proven, checked);
  std::fprintf(stderr, "[%s] set-up ms", config.workload.c_str());
  for (double t : setup_samples) std::fprintf(stderr, " %.2f", t * 1e3);
  std::fprintf(stderr, "\n");
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    std::fprintf(stderr, "[%s] %-12s", config.workload.c_str(),
                 circuits[i].name.c_str());
    for (double t : untraced_s[i]) std::fprintf(stderr, " %.3f", t);
    std::fprintf(stderr, " s\n");
  }

  if (!config.trace) {
    // A circuit's latency is its median over the passes; the percentiles
    // run over the workload's circuits (too few for p90 to have ten
    // samples beyond it: the stderr line says how many it has).
    std::vector<double> per_circuit;
    for (const auto& samples : untraced_s) per_circuit.push_back(median(samples));
    const double flow_s = flow_seconds(untraced_s);
    const Percentile p50 = percentile(per_circuit, 50);
    const Percentile p90 = percentile(per_circuit, 90);
    std::fprintf(stderr, "[%s] latency samples %zu, beyond p90: %zu\n",
                 config.workload.c_str(), p90.samples, p90.beyond);
    MetricSet& m = outcome.metrics;
    m.set("setup_s", median(setup_samples), "s");
    m.set("flow_s", flow_s, "s");
    m.set("area_um2", geomean(areas), "um2");
    m.set("delay_ps", geomean(delays), "ps");
    m.set("ands_ratio", geomean(ands_ratios), "ratio");
    m.set("verified_share", ratio(proven, checked), "ratio");
    m.set("req_per_s", ratio(circuits.size(), flow_s), "1/s");
    m.set("req_p50_ms", p50.value * 1e3, "ms");
    m.set("req_p90_ms", p90.value * 1e3, "ms");
    return outcome;
  }

  // --- traced run: per-layer metrics --------------------------------------
  MetricSet& m = outcome.metrics;
  m.set("trace.overhead_s", flow_seconds(traced_s) - flow_seconds(untraced_s),
        "s");
  // Stage seconds: per traced pass, the sum over circuits; then the median.
  {
    std::vector<SpanRecorder::Span> spans = recorder.snapshot();
    auto stage_median = [&](std::initializer_list<const char*> names) {
      std::vector<double> per_pass;
      std::map<std::uint64_t, double> by_pass;
      for (const auto& s : spans) {
        for (const char* n : names) {
          if (s.name == std::string("stage.") + n) {
            by_pass[s.group / 1000] += s.end_s - s.start_s;
          }
        }
      }
      for (const auto& [p, v] : by_pass) per_pass.push_back(v);
      return median(per_pass);
    };
    m.set("flow.resyn_s", stage_median({"ResynRounds"}), "s");
    m.set("flow.conversion_s", stage_median({"EgraphConversion"}), "s");
    m.set("flow.rewrite_s", stage_median({"Rewrite"}), "s");
    m.set("flow.sa_s", stage_median({"SaExtract"}), "s");
    m.set("flow.techmap_s", stage_median({"TechMap"}), "s");
    m.set("flow.cec_s", stage_median({"Cec"}), "s");
    m.set("flow.partition_s", stage_median({"partition"}), "s");
  }

  // Exact counters come from the pass-0 results (every pass reproduces them).
  std::size_t iterations = 0, matches = 0, applied = 0, enodes = 0,
              classes = 0, node_stops = 0, moves = 0, accepted = 0, hits = 0,
              misses = 0, evaluations = 0, visited = 0, skipped = 0;
  for (const FlowResult& r : first) {
    iterations += r.rewrite_report.iterations.size();
    for (const IterationStats& it : r.rewrite_report.iterations) {
      matches += it.matches;
      applied += it.applied;
    }
    enodes += r.egraph_enodes;
    classes += r.egraph_classes;
    node_stops += r.rewrite_report.stop_reason == StopReason::kNodeLimit &&
                          !partition
                      ? 1
                      : 0;
    moves += r.sa.trace.size();
    for (const SaTracePoint& p : r.sa.trace) accepted += p.accepted ? 1 : 0;
    hits += r.sa.qor_cache_hits;
    misses += r.sa.qor_cache_misses;
    evaluations += r.sa.evaluations;
    visited += r.sa.extract_stats.enodes_visited;
    skipped += r.sa.extract_stats.enodes_skipped;
  }

  if (partition) {
    const PartitionStats& ps = first[0].partition_stats;
    m.set("opt.windows", ps.num_windows, "count");
    m.set("opt.adopt_ratio", ratio(ps.windows_adopted, ps.num_windows), "ratio");
    m.set("opt.rejected_qor", ps.windows_rejected_qor, "count");
    m.set("opt.rejected_cec", ps.windows_rejected_cec, "count");
    WindowReplay wr;
    replay_windows(circuits[0].aig, params, config.seed, recorder, &wr);
    const double n = static_cast<double>(std::max<std::size_t>(wr.windows, 1));
    m.set("opt.window.convert_ms", wr.convert_ms / n, "ms");
    m.set("opt.window.rewrite_ms", wr.rewrite_ms / n, "ms");
    m.set("opt.window.extract_ms", wr.extract_ms / n, "ms");
    m.set("opt.window.fraig_ms", wr.fraig_ms / n, "ms");
    m.set("opt.window.gate_ms", wr.gate_ms / n, "ms");
    m.set("opt.window.gate_conflicts", static_cast<double>(wr.gate_conflicts),
          "count");
    // The partition stage does not expose its windows' saturation reports:
    // the e-graph counters describe the replayed windows.
    iterations = wr.iterations;
    matches = wr.matches;
    applied = wr.applied;
    enodes = wr.enodes;
    classes = wr.classes;
    node_stops = wr.node_limit_stops;
  } else {
    m.set("extract.moves", moves, "count");
    m.set("extract.accept_ratio", ratio(accepted, moves), "ratio");
    m.set("extract.prune_ratio", ratio(skipped, visited + skipped), "ratio");
    m.set("extract.memo_hit_ratio", ratio(hits, hits + misses), "ratio");
    m.set("extract.eval_busy_s", median(traced_eval_busy), "s");
    m.set("mapper.eval_calls", evaluations, "count");
    std::size_t eval_spans = 0;
    for (const auto& s : recorder.snapshot()) {
      eval_spans += s.name == "mapper.eval" ? 1 : 0;
    }
    m.set("mapper.eval_ms",
          ratio(recorder.total("mapper.eval") * 1e3, eval_spans), "ms");

    MoveReplay mr;
    std::uint64_t conflicts = 0;
    double cec_seconds = 0.0;
    std::size_t undecided = 0;
    for (std::size_t i = 0; i < traced_contexts.size(); ++i) {
      const FlowContext& ctx = *traced_contexts[i];
      if (ctx.egraph.has_value()) {
        replay_moves(*ctx.egraph, params, *matcher,
                     mix_seed(config.seed, 0x30e + i), recorder, 2000000 + i,
                     &mr);
      }
      const std::int64_t span =
          recorder.begin("cec.replay", SpanRecorder::kNoParent, 3000000 + i);
      CecResult c = cec(circuits[i].aig, first[i].final_aig, params.cec_params);
      recorder.end(span);
      recorder.counter(span, "conflicts", static_cast<double>(c.sat_conflicts));
      if (c.status != first[i].verify_status) {
        outcome.mismatch(circuits[i].name +
                         ": cec replay verdict differs from the flow's");
      }
      // Every pass produced this same network (signature guard), so one
      // more proof stands in for the other passes' conflict counts.
      const CecResult again =
          cec(circuits[i].aig, first[i].final_aig, params.cec_params);
      if (again.sat_conflicts != c.sat_conflicts || again.status != c.status) {
        outcome.mismatch(circuits[i].name + ": cec conflicts not repeatable");
      }
      conflicts += c.sat_conflicts;
      cec_seconds += c.seconds;
      undecided += c.status == CecStatus::kUndecided ? 1 : 0;
    }
    const double n = static_cast<double>(std::max<std::size_t>(mr.moves, 1));
    m.set("extract.move.extract_ms", mr.extract_ms / n, "ms");
    m.set("extract.move.lower_ms", mr.lower_ms / n, "ms");
    m.set("extract.move.cleanup_ms", mr.cleanup_ms / n, "ms");
    m.set("extract.move.signature_ms", mr.signature_ms / n, "ms");
    m.set("extract.move.map_ms", mr.map_ms / n, "ms");
    m.set("cec.sat_conflicts", static_cast<double>(conflicts), "count");
    m.set("cec.conflicts_per_s", ratio(conflicts, cec_seconds), "1/s");
    m.set("cec.undecided", undecided, "count");
  }
  m.set("egraph.iterations", iterations, "count");
  m.set("egraph.matches", matches, "count");
  m.set("egraph.applied", applied, "count");
  m.set("egraph.apply_ratio", ratio(applied, matches), "ratio");
  m.set("egraph.enodes", enodes, "count");
  m.set("egraph.classes", classes, "count");
  m.set("egraph.node_limit_stops", node_stops, "count");

  if (!config.trace_path.empty()) {
    std::ofstream file(config.trace_path);
    file << recorder.to_json();
  }
  return outcome;
}

}  // namespace perfbench
