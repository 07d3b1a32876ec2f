#pragma once
// Structural fingerprinting of an AIG: a 64-bit hash over the node array
// (types and fanin literals), the PI count, and the PO literals. Two AIGs
// built by the same construction order over the same structure hash equally;
// since make_and structurally hashes, a candidate extraction rebuilt from
// the same e-graph choices always reproduces its signature.
//
// It fingerprints the circuit in the EMCK (rewrite, flow/pipeline.cpp) and
// EMPC (partition, opt/partition.cpp) checkpoint headers, and perfbench
// compares final AIGs by it across repeated passes. No cache hit rests on
// it: the QoR memo and the flow-result cache key on exact binary-AIGER
// bytes (util/exact_cache.hpp).

#include <cstdint>

#include "aig/aig.hpp"

namespace emorphic {

/// 64-bit structural-hash signature of `aig`. Names do not contribute (they
/// cannot affect mapped QoR); node order does, which is canonical for
/// equal construction orders.
std::uint64_t structural_signature(const Aig& aig);

}  // namespace emorphic
