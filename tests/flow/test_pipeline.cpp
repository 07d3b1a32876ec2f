// Tests for the composable Pipeline API: stage registry, stage ordering and
// context threading, observer event counts, cancellation (between stages and
// mid-SA), time budgets, run_batch determinism, and the QoR/equivalence
// contract of the prebuilt baseline and E-morphic flows.

#include "flow/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <string_view>
#include <thread>

#include "../test_helpers.hpp"
#include "aig/signature.hpp"
#include "benchgen/arith.hpp"
#include "benchgen/control.hpp"
#include "flow/batch.hpp"
#include "ml/cost_model.hpp"

namespace emorphic {
namespace {

FlowParams quick_params() {
  FlowParams params;
  params.rounds = 2;
  params.rewrite.max_iterations = 2;
  params.rewrite.max_enodes = 8000;
  // Generous time limits: the determinism tests need limit-free runs.
  params.rewrite.time_limit_s = 1e9;
  params.sa.num_threads = 2;
  params.sa.iterations = 2;
  params.sa.moves_per_iteration = 2;
  params.verify = false;
  params.cec_params.conflict_limit = 50000;
  return params;
}

/// Counts every observer event and records the stage sequence.
class CountingObserver : public FlowObserver {
 public:
  void on_flow_begin(const FlowContext&) override { ++flow_begin; }
  void on_flow_end(const FlowContext&) override { ++flow_end; }
  void on_stage_begin(const Stage& stage, const FlowContext&) override {
    ++stage_begin;
    order.emplace_back(stage.name());
  }
  void on_stage_end(const Stage&, const StageTelemetry& telemetry,
                    const FlowContext&) override {
    ++stage_end;
    telemetry_seconds += telemetry.seconds;
  }
  void on_rewrite_iteration(const IterationStats&,
                            const FlowContext&) override {
    ++rewrite_iterations;
  }
  void on_sa_move(const SaTracePoint&, const FlowContext&) override {
    ++sa_moves;
  }

  int flow_begin = 0, flow_end = 0, stage_begin = 0, stage_end = 0;
  int rewrite_iterations = 0, sa_moves = 0;
  double telemetry_seconds = 0.0;
  std::vector<std::string> order;
};

TEST(Pipeline, RegistryKnowsBuiltinStages) {
  std::vector<std::string> names = registered_stage_names();
  for (const char* expected : {"ResynRounds", "EgraphConversion", "Rewrite",
                               "SaExtract", "TechMap", "Cec", "fraig"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing built-in stage " << expected;
  }
  StagePtr stage = make_stage("Rewrite");
  ASSERT_NE(stage, nullptr);
  EXPECT_STREQ(stage->name(), "Rewrite");
  EXPECT_THROW(make_stage("NoSuchStage"), std::invalid_argument);
}

TEST(Pipeline, RegistryAcceptsCustomStages) {
  class NopStage : public Stage {
   public:
    const char* name() const override { return "Nop"; }
    void run(FlowContext&) const override {}
  };
  register_stage("TestNop", [] { return StagePtr(new NopStage()); });
  Pipeline pipeline;
  pipeline.add("TestNop").add("TechMap");
  FlowResult result = pipeline.run(make_adder(4), quick_params());
  EXPECT_GT(result.qor.area, 0.0);
}

TEST(Pipeline, StageOrderingAndContextThreading) {
  // A hand-assembled pipeline without ResynRounds or SaExtract: conversion
  // forward, rewriting, conversion backward (greedy fallback), mapping.
  Pipeline pipeline;
  pipeline.add("EgraphConversion")
      .add("Rewrite")
      .add("EgraphConversion")
      .add("TechMap");
  EXPECT_EQ(pipeline.size(), 4u);

  Aig adder = make_adder(6);
  CountingObserver observer;
  FlowResult result = pipeline.run(adder, quick_params(), &observer);

  std::vector<std::string> expected{"EgraphConversion", "Rewrite",
                                    "EgraphConversion", "TechMap"};
  EXPECT_EQ(observer.order, expected);
  ASSERT_EQ(result.telemetry.stages.size(), 4u);
  EXPECT_EQ(result.telemetry.stages[1].name, "Rewrite");
  EXPECT_EQ(result.telemetry.stages[1].index, 1u);

  // Context threading: the forward conversion fed the rewriter, the
  // backward conversion fed the mapper, and the function was preserved.
  EXPECT_GT(result.initial_enodes, 0u);
  EXPECT_GE(result.egraph_enodes, result.initial_enodes);
  EXPECT_GT(result.qor.area, 0.0);
  ASSERT_TRUE(result.netlist.has_value());
  EXPECT_TRUE(testing::functionally_equal(adder, result.final_aig));
  EXPECT_FALSE(result.cancelled);
}

TEST(Pipeline, StagesValidateTheirInputs) {
  // Rewrite and SaExtract need an e-graph in the context.
  FlowParams params = quick_params();
  Aig adder = make_adder(4);
  EXPECT_THROW(Pipeline().add("Rewrite").run(adder, params),
               std::runtime_error);
  EXPECT_THROW(Pipeline().add("SaExtract").run(adder, params),
               std::runtime_error);
}

TEST(Pipeline, ObserverEventCounts) {
  CountingObserver observer;
  const FlowParams params = quick_params();
  FlowResult result =
      Pipeline::emorphic(params).run(make_arbiter(6), params, &observer);

  EXPECT_EQ(observer.flow_begin, 1);
  EXPECT_EQ(observer.flow_end, 1);
  // The emorphic pipeline has 7 stages (EgraphConversion appears twice).
  EXPECT_EQ(observer.stage_begin, 7);
  EXPECT_EQ(observer.stage_end, 7);
  EXPECT_EQ(observer.rewrite_iterations,
            static_cast<int>(result.rewrite_report.iterations.size()));
  EXPECT_EQ(observer.sa_moves, static_cast<int>(result.sa.trace.size()));
  EXPECT_GT(observer.sa_moves, 0);
  // Observer-visible stage telemetry covers the optimization time.
  EXPECT_GE(observer.telemetry_seconds, result.qor.seconds);
}

/// Fig. 9's four runtime buckets, folded from per-stage telemetry:
/// conventional flow (ResynRounds + TechMap), conversion (both
/// EgraphConversion runs), rewriting, SA extraction. Cec is excluded.
struct Fig9Buckets {
  double flow, conversion, rewrite, sa;
  explicit Fig9Buckets(const FlowTelemetry& t)
      : flow(t.seconds_for("ResynRounds") + t.seconds_for("TechMap")),
        conversion(t.seconds_for("EgraphConversion")),
        rewrite(t.seconds_for("Rewrite")),
        sa(t.seconds_for("SaExtract")) {}
  double sum() const { return flow + conversion + rewrite + sa; }
};

TEST(Pipeline, TelemetryMatchesBreakdownBuckets) {
  const FlowParams params = quick_params();
  FlowResult result = Pipeline::emorphic(params).run(make_adder(6), params);
  Fig9Buckets buckets(result.telemetry);
  EXPECT_GT(buckets.flow, 0.0);
  EXPECT_GT(buckets.conversion, 0.0);
  EXPECT_GT(buckets.rewrite, 0.0);
  EXPECT_GT(buckets.sa, 0.0);
  EXPECT_DOUBLE_EQ(buckets.sum(), result.qor.seconds);
}

TEST(Pipeline, CancellationBetweenStages) {
  // Cancel as soon as the Rewrite stage finishes: SA, mapping, and CEC must
  // never run.
  class CancelAfterRewrite : public CountingObserver {
   public:
    explicit CancelAfterRewrite(std::atomic<bool>* flag) : flag_(flag) {}
    void on_stage_end(const Stage& stage, const StageTelemetry& telemetry,
                      const FlowContext& ctx) override {
      CountingObserver::on_stage_end(stage, telemetry, ctx);
      if (std::string_view(stage.name()) == "Rewrite") flag_->store(true);
    }

   private:
    std::atomic<bool>* flag_;
  };

  std::atomic<bool> cancel{false};
  CancelAfterRewrite observer(&cancel);
  FlowContext ctx;
  ctx.params = quick_params();
  ctx.input = make_adder(6);
  ctx.observer = &observer;
  ctx.cancel = &cancel;
  FlowResult result = Pipeline::emorphic(ctx.params).run(ctx);

  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(result.stop_reason, FlowStopReason::kCancelled);
  EXPECT_EQ(observer.stage_begin, 3);  // ResynRounds, EgraphConversion, Rewrite
  EXPECT_TRUE(result.sa.trace.empty());
  EXPECT_EQ(result.qor.area, 0.0);  // TechMap never ran
  EXPECT_EQ(observer.flow_end, 1);  // the flow still ends cleanly
}

TEST(Pipeline, CancellationMidSaExtract) {
  // Cancel from inside the SA stage: every chain stops at its next move.
  class CancelOnFirstMove : public FlowObserver {
   public:
    explicit CancelOnFirstMove(std::atomic<bool>* flag) : flag_(flag) {}
    void on_sa_move(const SaTracePoint&, const FlowContext&) override {
      flag_->store(true);
    }

   private:
    std::atomic<bool>* flag_;
  };

  FlowParams params = quick_params();
  params.sa.num_threads = 2;
  params.sa.iterations = 4;
  params.sa.moves_per_iteration = 4;
  const int full_moves = 2 * 4 * 4;

  std::atomic<bool> cancel{false};
  CancelOnFirstMove observer(&cancel);
  FlowContext ctx;
  ctx.params = params;
  ctx.input = make_arbiter(6);
  ctx.observer = &observer;
  ctx.cancel = &cancel;
  FlowResult result = Pipeline::emorphic(ctx.params).run(ctx);

  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(result.stop_reason, FlowStopReason::kCancelled);
  EXPECT_LT(static_cast<int>(result.sa.trace.size()), full_moves);
  // A cancelled SA still reports its best-so-far solution.
  EXPECT_GT(result.sa.evaluations, 0u);
}

TEST(Pipeline, TimeBudgetStopsImmediately) {
  FlowContext ctx;
  ctx.params = quick_params();
  ctx.input = make_adder(6);
  ctx.time_budget_s = 1e-9;
  FlowResult result = Pipeline::emorphic(ctx.params).run(ctx);
  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(result.stop_reason, FlowStopReason::kDeadline);
  EXPECT_TRUE(result.telemetry.stages.empty());
}

TEST(Pipeline, BudgetExpiryDuringFinalStageReportsDeadline) {
  // Regression: a budget that fires *inside the last stage* used to be
  // indistinguishable from a clean completion — no stage is skipped, so
  // `cancelled` stays false. stop_reason must still say kDeadline.
  class PollUntilStopped : public Stage {
   public:
    const char* name() const override { return "PollUntilStopped"; }
    void run(FlowContext& ctx) const override {
      for (int i = 0; i < 5000; ++i) {
        if (ctx.should_stop()) return;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  };

  Pipeline pipeline;
  pipeline.add(std::make_unique<PollUntilStopped>());
  FlowContext ctx;
  ctx.params = quick_params();
  ctx.input = make_adder(4);
  ctx.time_budget_s = 0.05;  // fires while the single (= final) stage runs
  FlowResult result = pipeline.run(ctx);

  EXPECT_FALSE(result.cancelled);  // every stage executed
  EXPECT_EQ(result.stop_reason, FlowStopReason::kDeadline);
  EXPECT_EQ(result.telemetry.stages.size(), 1u);
}

TEST(Pipeline, StopReasonResetsBetweenRuns) {
  // A context that was cancelled once must not leak the stale reason into
  // its next, untroubled run.
  std::atomic<bool> cancel{true};
  FlowContext ctx;
  ctx.params = quick_params();
  ctx.input = make_adder(4);
  ctx.cancel = &cancel;
  FlowResult stopped = Pipeline::emorphic(ctx.params).run(ctx);
  EXPECT_TRUE(stopped.cancelled);
  EXPECT_EQ(stopped.stop_reason, FlowStopReason::kCancelled);

  cancel.store(false);
  FlowResult clean = Pipeline::emorphic(ctx.params).run(ctx);
  EXPECT_FALSE(clean.cancelled);
  EXPECT_EQ(clean.stop_reason, FlowStopReason::kNone);
  EXPECT_STREQ(to_string(clean.stop_reason), "none");
}

TEST(Pipeline, ContextIsReusableAcrossRuns) {
  // take_result moves the results out, but run() re-initializes all working
  // state, so one configured context can drive several runs.
  FlowContext ctx;
  ctx.params = quick_params();
  ctx.input = make_adder(5);
  Pipeline pipeline = Pipeline::emorphic(ctx.params);
  FlowResult first = pipeline.run(ctx);
  FlowResult second = pipeline.run(ctx);
  EXPECT_GT(second.qor.area, 0.0);
  EXPECT_DOUBLE_EQ(first.qor.area, second.qor.area);
  EXPECT_DOUBLE_EQ(first.qor.delay, second.qor.delay);
  EXPECT_TRUE(testing::functionally_equal(ctx.input, second.final_aig));
  EXPECT_FALSE(second.cancelled);
}

TEST(Pipeline, BaselineProducesValidEquivalentMapping) {
  Aig mult = make_multiplier(6);
  const FlowParams params = quick_params();
  FlowResult result = Pipeline::baseline(params).run(mult, params);
  EXPECT_GT(result.qor.area, 0.0);
  EXPECT_GT(result.qor.delay, 0.0);
  EXPECT_GT(result.qor.lev, 0u);
  ASSERT_TRUE(result.netlist.has_value());
  EXPECT_TRUE(testing::functionally_equal(mult, result.netlist->to_aig()));
  EXPECT_EQ(cec(mult, result.final_aig).status, CecStatus::kEquivalent);
  // The baseline pipeline never touches the e-graph machinery.
  EXPECT_EQ(result.initial_enodes, 0u);
  EXPECT_TRUE(result.sa.trace.empty());
}

TEST(Pipeline, BaselineImprovesDelayOverDirectMap) {
  Aig mult = make_multiplier(8);
  const FlowParams params = quick_params();
  MappedQor direct = map_qor(mult, *params.library, params.mapping);
  FlowResult optimized = Pipeline::baseline(params).run(mult, params);
  EXPECT_LT(optimized.qor.delay, direct.delay);
}

TEST(Pipeline, EmorphicIsEquivalentAndComplete) {
  Aig arbiter = make_arbiter(8);
  FlowParams params = quick_params();
  params.verify = true;
  FlowResult result = Pipeline::emorphic(params).run(arbiter, params);
  EXPECT_EQ(result.verify_status, CecStatus::kEquivalent);
  EXPECT_GT(result.qor.area, 0.0);
  EXPECT_GT(result.qor.delay, 0.0);
  // Telemetry covers every Fig. 9 bucket.
  Fig9Buckets buckets(result.telemetry);
  EXPECT_GT(buckets.flow, 0.0);
  EXPECT_GT(buckets.conversion, 0.0);
  EXPECT_GT(buckets.rewrite, 0.0);
  EXPECT_GT(buckets.sa, 0.0);
  // Rewriting must have multiplied the e-graph.
  EXPECT_GT(result.egraph_enodes, result.initial_enodes);
}

TEST(Pipeline, EmorphicResultDoesNotDependOnMatchThreads) {
  // Paper rewrite settings under a 30k e-node budget that adder8 reaches,
  // at the default match_threads and at one match thread.
  Aig adder = make_adder(8);
  FlowParams threaded;
  threaded.rounds = 4;
  threaded.rewrite.max_iterations = 5;
  threaded.rewrite.max_enodes = 30000;
  threaded.rewrite.max_matches_per_rule = 4000;
  threaded.rewrite.time_limit_s = 1e9;  // determinism needs limit-free runs
  threaded.sa.iterations = 2;
  threaded.sa.moves_per_iteration = 2;
  threaded.verify = false;
  FlowParams serial = threaded;
  serial.rewrite.match_threads = 1;
  ASSERT_NE(threaded.rewrite.match_threads, serial.rewrite.match_threads);
  FlowResult a = Pipeline::emorphic(threaded).run(adder, threaded);
  FlowResult b = Pipeline::emorphic(serial).run(adder, serial);
  EXPECT_EQ(a.qor.area, b.qor.area);
  EXPECT_EQ(a.qor.delay, b.qor.delay);
  EXPECT_EQ(a.qor.lev, b.qor.lev);
  EXPECT_EQ(structural_signature(a.final_aig),
            structural_signature(b.final_aig));
  EXPECT_EQ(a.rewrite_report.stop_reason, StopReason::kNodeLimit);
  EXPECT_EQ(a.rewrite_report.rule_matches, b.rewrite_report.rule_matches);
  EXPECT_EQ(a.egraph_enodes, b.egraph_enodes);
}

/// Pipeline::emorphic over default params with the given flags set.
Pipeline emorphic_with(bool fraig_post, bool use_choicemap, bool use_lutmap,
                       bool partition) {
  FlowParams params;
  params.fraig_post = fraig_post;
  params.use_choicemap = use_choicemap;
  params.use_lutmap = use_lutmap;
  params.partition = partition;
  return Pipeline::emorphic(params);
}

TEST(Pipeline, EmorphicRefusesUseChoicemapWithFraigPost) {
  EXPECT_THROW(emorphic_with(true, true, false, false), std::invalid_argument);
}

TEST(Pipeline, EmorphicRefusesPartitionWithUseChoicemap) {
  EXPECT_THROW(emorphic_with(false, true, false, true), std::invalid_argument);
}

TEST(Pipeline, EmorphicRefusesPartitionWithUseLutmap) {
  EXPECT_THROW(emorphic_with(false, false, true, true), std::invalid_argument);
}

TEST(Pipeline, EmorphicKeepsTheCombinationsItHonours) {
  // partition + fraig_post is the per-window sweep; use_choicemap +
  // use_lutmap is the choice-aware LUT tail.
  EXPECT_EQ(emorphic_with(true, false, false, true).stage_names(),
            (std::vector<std::string>{"partition", "Cec"}));
  EXPECT_EQ(emorphic_with(false, true, true, false).stage_names(),
            (std::vector<std::string>{"ResynRounds", "EgraphConversion",
                                      "Rewrite", "SaExtract", "lutmap",
                                      "Cec"}));
  EXPECT_NO_THROW(emorphic_with(true, false, true, false));
}

TEST(Pipeline, EmorphicNeverMuchWorseThanBaselineOnDelay) {
  // SA is stochastic, but the e-graph contains (at least) the baseline
  // structure, so with the exact cost model the final mapped delay should
  // stay in the baseline's neighborhood.
  Aig sqrt_c = make_sqrt(8);
  const FlowParams params = quick_params();
  FlowResult base = Pipeline::baseline(params).run(sqrt_c, params);
  FlowResult em = Pipeline::emorphic(params).run(sqrt_c, params);
  EXPECT_LT(em.qor.delay, base.qor.delay * 1.25);
}

TEST(Pipeline, MapEvaluatorCostIsDelayPlusWeightedArea) {
  MapQorEvaluator eval(CellLibrary::asap7_like(), 0.25);
  Aig adder = make_adder(6);
  Qor qor = eval.evaluate(adder);
  EXPECT_GT(qor.area, 0.0);
  EXPECT_DOUBLE_EQ(eval.cost(qor), qor.delay + 0.25 * qor.area);
  // Zero weight degenerates to the pure-delay objective.
  MapQorEvaluator delay_only(CellLibrary::asap7_like(), 0.0);
  EXPECT_DOUBLE_EQ(delay_only.cost(qor), qor.delay);
}

TEST(RunBatch, DeterministicAcrossRunsAndWorkerCounts) {
  std::vector<Aig> circuits;
  circuits.push_back(make_adder(4));
  circuits.push_back(make_arbiter(4));
  circuits.push_back(make_adder(6));

  FlowParams params = quick_params();
  params.sa.num_threads = 1;
  Pipeline pipeline = Pipeline::emorphic(params);

  BatchParams two_workers;
  two_workers.base_seed = 7;
  two_workers.num_threads = 2;
  BatchResult first = run_batch(circuits, pipeline, params, two_workers);
  BatchResult second = run_batch(circuits, pipeline, params, two_workers);
  BatchParams one_worker = two_workers;
  one_worker.num_threads = 1;
  BatchResult serial = run_batch(circuits, pipeline, params, one_worker);

  ASSERT_EQ(first.results.size(), circuits.size());
  ASSERT_EQ(second.results.size(), circuits.size());
  ASSERT_EQ(serial.results.size(), circuits.size());
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    EXPECT_GT(first.results[i].qor.area, 0.0);
    EXPECT_DOUBLE_EQ(first.results[i].qor.area, second.results[i].qor.area);
    EXPECT_DOUBLE_EQ(first.results[i].qor.delay, second.results[i].qor.delay);
    // Same seeds win regardless of how many workers fan the batch out.
    EXPECT_DOUBLE_EQ(first.results[i].qor.area, serial.results[i].qor.area);
    EXPECT_DOUBLE_EQ(first.results[i].qor.delay, serial.results[i].qor.delay);
    EXPECT_TRUE(testing::functionally_equal(circuits[i],
                                            first.results[i].final_aig));
  }
}

TEST(RunBatch, SeedsDifferPerCircuit) {
  // Two copies of the same circuit get different seeds — the batch driver
  // must not run every circuit with an identical RNG stream.
  std::vector<Aig> circuits;
  circuits.push_back(make_adder(6));
  circuits.push_back(make_adder(6));

  FlowParams params = quick_params();
  params.sa.num_threads = 1;
  BatchParams batch;
  batch.base_seed = 3;
  BatchResult result =
      run_batch(circuits, Pipeline::emorphic(params), params, batch);
  ASSERT_EQ(result.results.size(), 2u);
  // The SA traces of the two runs should diverge (same circuit, different
  // seed). Cost sequences are a robust fingerprint of the RNG stream.
  const auto& a = result.results[0].sa.trace;
  const auto& b = result.results[1].sa.trace;
  ASSERT_FALSE(a.empty());
  bool diverged = a.size() != b.size();
  for (std::size_t i = 0; !diverged && i < a.size(); ++i) {
    diverged = a[i].candidate_cost != b[i].candidate_cost;
  }
  EXPECT_TRUE(diverged);
}

TEST(RunBatch, ObserverSeesAllCircuits) {
  class BatchObserver : public FlowObserver {
   public:
    void on_flow_end(const FlowContext& ctx) override {
      std::lock_guard<std::mutex> lock(mutex);
      indices.push_back(ctx.batch_index);
    }
    std::mutex mutex;
    std::vector<std::size_t> indices;
  };

  std::vector<Aig> circuits;
  circuits.push_back(make_adder(4));
  circuits.push_back(make_adder(5));
  BatchObserver observer;
  BatchParams batch;
  batch.num_threads = 2;
  const FlowParams params = quick_params();
  run_batch(circuits, Pipeline::baseline(params), params, batch, &observer);
  std::sort(observer.indices.begin(), observer.indices.end());
  EXPECT_EQ(observer.indices, (std::vector<std::size_t>{0, 1}));
}

TEST(Pipeline, MlEvaluatorHonorsConfiguredSaThreads) {
  // A minimally-trained model: the flow only needs evaluate() to work.
  std::vector<FeatureVector> features;
  std::vector<double> delays, areas;
  for (unsigned bits : {3u, 4u, 5u}) {
    features.push_back(extract_features(make_adder(bits)));
    delays.push_back(10.0 * bits);
    areas.push_back(1.0 * bits);
  }
  MlpParams mp;
  mp.epochs = 2;
  MlCostModel model(mp);
  model.train(features, delays, areas);

  // Runtime-prioritized mode is the ML model as the context's evaluator;
  // sa.num_threads is honored as configured (no silent bump to 6).
  FlowContext ctx;
  ctx.params = quick_params();
  ctx.params.sa.num_threads = 2;
  ctx.input = make_adder(5);
  ctx.evaluator = &model;
  FlowResult result = Pipeline::emorphic(ctx.params).run(ctx);
  unsigned max_thread = 0;
  ASSERT_FALSE(result.sa.trace.empty());
  for (const SaTracePoint& pt : result.sa.trace) {
    max_thread = std::max(max_thread, pt.thread);
  }
  EXPECT_EQ(max_thread, 1u);  // chains 0..1 ran
}

TEST(RunBatch, SharedCancellationFlag) {
  std::vector<Aig> circuits;
  for (int i = 0; i < 4; ++i) circuits.push_back(make_adder(6));
  std::atomic<bool> cancel{true};  // cancelled before the batch even starts
  BatchParams batch;
  batch.cancel = &cancel;
  batch.num_threads = 2;
  const FlowParams params = quick_params();
  BatchResult result =
      run_batch(circuits, Pipeline::emorphic(params), params, batch);
  for (const FlowResult& r : result.results) {
    EXPECT_TRUE(r.cancelled);
    EXPECT_TRUE(r.telemetry.stages.empty());
  }
}

}  // namespace
}  // namespace emorphic
