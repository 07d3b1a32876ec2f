#pragma once
// Structural fingerprinting of an AIG: a 64-bit hash over the node array
// (types and fanin literals), the PI count, and the PO literals. Two AIGs
// built by the same construction order over the same structure hash equally;
// since make_and structurally hashes, a candidate extraction rebuilt from
// the same e-graph choices always reproduces its signature.
//
// This is the key of the SA extractor's per-run QoR memo (sa_extractor.cpp):
// re-visited extractions — common near convergence — skip technology mapping
// entirely. A 64-bit hash makes collisions vanishingly unlikely at per-run
// cache sizes (hundreds of entries); the SaMapped tests cross-check cached
// against recomputed QoR end to end.

#include <cstdint>

#include "aig/aig.hpp"

namespace emorphic {

/// 64-bit structural-hash signature of `aig`. Names do not contribute (they
/// cannot affect mapped QoR); node order does, which is canonical for
/// equal construction orders.
std::uint64_t structural_signature(const Aig& aig);

}  // namespace emorphic
