#pragma once
// Library umbrella: including this header pulls in every public subsystem.
// The E-morphic flow of Fig. 5 itself is `Pipeline::emorphic(params)` in
// flow/pipeline.hpp; pass an ML cost model through FlowContext::evaluator
// for the runtime-prioritized mode.

#include "aig/aig.hpp"
#include "aig/aig_io.hpp"
#include "aig/signature.hpp"
#include "aig/sim.hpp"
#include "benchgen/arith.hpp"
#include "benchgen/control.hpp"
#include "benchgen/epfl.hpp"
#include "cec/cec.hpp"
#include "egraph/rules.hpp"
#include "egraph/runner.hpp"
#include "egraph/serialize.hpp"
#include "extract/sa_extractor.hpp"
#include "flow/batch.hpp"
#include "flow/conversion.hpp"
#include "flow/pipeline.hpp"
#include "mapper/genlib.hpp"
#include "mapper/tech_mapper.hpp"
#include "ml/cost_model.hpp"
#include "ml/dataset.hpp"
#include "opt/resyn.hpp"

namespace emorphic {

/// Library version string.
const char* version();

}  // namespace emorphic
