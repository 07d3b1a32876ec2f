// Extending E-morphic: user-defined rewrite rules and a custom cell
// library. This example adds a XOR-oriented rule set on top of the
// built-ins and maps against a user-written genlib with different
// area/delay trade-offs, showing both extension points end to end.
//
//   $ ./build/examples/custom_rules_and_cells
//
// Exits 1 unless cec proves every printed result equivalent to its input.

#include <cstdio>

#include "core/emorphic.hpp"

using namespace emorphic;

int main() {
  // --- 1. custom rewrite rules ---------------------------------------------
  // A rule the built-in set does not contain: XOR association, plus a
  // "XOR with complement" simplification.
  std::vector<Rewrite> rules = make_logic_rules();
  Pat a = Pat::v("a"), b = Pat::v("b"), c = Pat::v("c");
  rules.push_back(Rewrite::make("assoc-xor",
                                Pat::xor_(Pat::xor_(a, b), c),
                                Pat::xor_(a, Pat::xor_(b, c))));
  rules.push_back(Rewrite::make("xor-compl",
                                Pat::xor_(a, Pat::not_(a)), Pat::c1()));
  rules.push_back(Rewrite::make("xnor-fold",
                                Pat::not_(Pat::xor_(a, b)),
                                Pat::xor_(Pat::not_(a), b)));
  std::printf("rule set: %zu rules (%zu custom)\n", rules.size(), 3ul);

  // --- 2. custom cell library ----------------------------------------------
  // A fictitious low-power library: cheap XORs, expensive NANDs — the
  // opposite trade-off of the default ASAP7-like library. Note full-adder
  // cells are expressible too.
  const char* genlib = R"(
GATE lp_inv   0.05 Y=!A;            PIN * 11
GATE lp_nand2 0.20 Y=!(A*B);        PIN * 17
GATE lp_nor2  0.20 Y=!(A+B);        PIN * 19
GATE lp_and2  0.24 Y=A*B;           PIN * 24
GATE lp_or2   0.24 Y=A+B;           PIN * 26
GATE lp_xor2  0.15 Y=A^B;           PIN * 13
GATE lp_xnor2 0.15 Y=!(A^B);        PIN * 13
GATE lp_maj3  0.30 Y=(A*B)+(A*C)+(B*C); PIN * 28
GATE lp_aoi21 0.25 Y=!((A*B)+C);    PIN * 21
)";
  CellLibrary lib = parse_genlib(genlib);
  std::printf("library: %zu cells (XOR cheaper than NAND)\n\n", lib.size());

  // --- 3. compose a custom pipeline with both ------------------------------
  // Both extension points plug straight into the Pipeline API: the custom
  // rule set rides in a RewriteStage, the custom library in
  // FlowParams.library (it steers the gated rounds, the SA cost model, and
  // the final mapping alike).
  Aig circuit = make_adder(12);  // XOR-rich: adders love cheap XORs

  FlowParams params;
  params.library = &lib;
  params.rounds = 1;
  params.rewrite.max_iterations = 4;
  params.rewrite.max_enodes = 25000;
  params.sa.num_threads = 2;
  params.sa.iterations = 3;
  params.sa.moves_per_iteration = 3;

  Pipeline pipeline;
  pipeline.add("ResynRounds")
      .add("EgraphConversion")                     // forward
      .add(StagePtr(new RewriteStage(rules)))      // the custom rule set
      .add("SaExtract")
      .add("EgraphConversion")                     // backward (SA winner)
      .add(StagePtr(new TechMapStage(/*resynth_gate=*/true)))
      .add("Cec");

  FlowResult result = pipeline.run(circuit, params);
  std::printf("e-graph after custom rules: %zu e-nodes, %zu classes\n",
              result.egraph_enodes, result.egraph_classes);

  const MappedNetlist& netlist = *result.netlist;
  std::printf("mapped onto the custom library: %zu gates, %.2f um^2, %.1f ps\n",
              netlist.num_gates(), netlist.area(), netlist.delay());

  // Gate histogram: cheap XOR cells should dominate an adder.
  std::printf("\ngate usage:\n");
  std::vector<unsigned> histogram(lib.size(), 0);
  for (const MappedGate& g : netlist.gates()) ++histogram[g.cell];
  for (std::uint32_t i = 0; i < lib.size(); ++i) {
    if (histogram[i] > 0) {
      std::printf("  %-10s x %u\n", lib.cell(i).name.c_str(), histogram[i]);
    }
  }

  std::printf("\ncec(original, result): %s\n",
              cec_status_name(result.verify_status));
  return result.verify_status == CecStatus::kEquivalent ? 0 : 1;
}
