// Runtime-prioritized E-morphic: train the ML cost model (the paper's
// HOGA substitute, Sec. III-C.1 / IV-D) on structural variants of a
// circuit family, then drive simulated-annealing extraction with
// predictions instead of exact mapping — and compare the two modes.
//
//   $ ./build/examples/ml_cost_model
//
// Exits 1 unless cec proves every printed result equivalent to its input.

#include <cstdio>

#include "core/emorphic.hpp"

using namespace emorphic;

int main() {
  const CellLibrary& lib = CellLibrary::asap7_like();

  // --- 1. build a training set (the OpenABC-D substitution) ----------------
  std::printf("generating labelled structural variants...\n");
  Dataset data;
  for (const char* name : {"sin", "square", "arbiter"}) {
    DatasetParams dp;
    dp.variants_per_circuit = 20;
    dp.rewrite.max_iterations = 3;
    dp.rewrite.max_enodes = 15000;
    dp.mapping.area_recovery = false;
    data.append(generate_variants(make_epfl(name), lib, dp));
  }
  Dataset train, test;
  split_dataset(data, 5, &train, &test);

  // --- 2. train and evaluate ------------------------------------------------
  MlpParams mp;
  mp.epochs = 200;
  MlCostModel model(mp);
  model.train(train.features, train.delays, train.areas);
  std::vector<double> pred;
  for (const auto& f : test.features) pred.push_back(model.predict_delay(f));
  std::printf("held-out: %zu samples, delay MAPE %.1f%%, Kendall tau %.2f\n\n",
              test.size(), mape(pred, test.delays),
              kendall_tau(pred, test.delays));

  // --- 3. the two cost-model modes, head to head ----------------------------
  Aig circuit = make_epfl("square");
  FlowParams params;
  params.rounds = 2;
  params.rewrite.max_iterations = 3;
  params.rewrite.max_enodes = 20000;
  params.sa.iterations = 3;
  params.sa.moves_per_iteration = 3;
  params.verify = false;

  // Both modes run the same Pipeline::emorphic(params); the cost model is
  // the FlowContext's evaluator, and timings come from pipeline telemetry.
  Pipeline pipeline = Pipeline::emorphic(params);

  params.sa.num_threads = 4;  // quality-prioritized: 4 threads (Sec. IV-A)
  FlowResult exact = pipeline.run(circuit, params);
  double exact_s = exact.telemetry.total_seconds;

  params.sa.num_threads = 6;  // runtime-prioritized: 6 threads
  FlowContext ml_ctx;
  ml_ctx.params = params;
  ml_ctx.input = circuit;
  ml_ctx.evaluator = &model;
  FlowResult ml = pipeline.run(ml_ctx);
  double ml_s = ml.telemetry.total_seconds;

  std::printf("%-26s %10s %10s %9s\n", "mode", "area(um2)", "delay(ps)",
              "time(s)");
  std::printf("%-26s %10.2f %10.1f %9.2f\n", "quality (exact mapping)",
              exact.qor.area, exact.qor.delay, exact_s);
  std::printf("%-26s %10.2f %10.1f %9.2f\n", "runtime (ML prediction)",
              ml.qor.area, ml.qor.delay, ml_s);
  std::printf("\nruntime saving from the ML model: %.1f%% (paper: ~28%%)\n",
              100.0 * (1.0 - ml_s / exact_s));

  const CecStatus exact_verdict = cec(circuit, exact.final_aig).status;
  const CecStatus ml_verdict = cec(circuit, ml.final_aig).status;
  std::printf("\nverification: exact-mode %s, ML-mode %s\n",
              cec_status_name(exact_verdict), cec_status_name(ml_verdict));
  const bool verified = exact_verdict == CecStatus::kEquivalent &&
                        ml_verdict == CecStatus::kEquivalent;
  return verified ? 0 : 1;
}
