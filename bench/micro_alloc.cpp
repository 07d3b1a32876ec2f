// Steady-state allocation gate for the arena/SoA memory layout (the
// "allocation-free hot loop" overhaul): after warm-up, the e-graph
// saturation kernels, cut enumeration, and the full saturate→extract→map
// flow must stop touching the allocator.
//
// Two counters, two failure modes:
//  * a global operator new/delete replacement counts every C++ heap
//    allocation in the process — the steady-state delta per iteration must
//    be zero for the reused-structure loops and flat for the warm flow;
//  * emorphic::arena_block_allocs() counts the bump arenas' block mallocs
//    (compiled in under EMORPHIC_CHECKS; reads 0 otherwise) — warm epochs
//    must reuse their coalesced blocks instead of growing.
//
// Writes BENCH_alloc.json and enforces the gates via exit code, so CI fails
// the build when an allocation sneaks back into a hot loop.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>

#include "benchgen/arith.hpp"
#include "core/emorphic.hpp"
#include "flow/pipeline.hpp"
#include "flow/warm_cache.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

// Heap-allocation counter. malloc/free based (a replaced operator new must
// pair with a replaced delete); the arenas call std::malloc directly, so
// their block traffic is deliberately *not* counted here — that is what
// arena_block_allocs() tracks.
namespace {
std::uint64_t g_heap_allocs = 0;  // benches below are single-threaded
}  // namespace

void* operator new(std::size_t n) {
  ++g_heap_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace emorphic;

Aig make_random_aig(unsigned pis, unsigned ands, std::uint64_t seed) {
  Rng rng(seed);
  Aig aig;
  std::vector<Lit> pool;
  for (unsigned i = 0; i < pis; ++i) pool.push_back(make_lit(aig.add_pi()));
  for (unsigned k = 0; k < ands; ++k) {
    Lit a = pool[rng.next_below(pool.size())];
    Lit b = pool[rng.next_below(pool.size())];
    if (rng.chance(0.5)) a = lit_not(a);
    if (rng.chance(0.5)) b = lit_not(b);
    pool.push_back(aig.make_and(a, b));
  }
  for (unsigned i = 0; i < 8; ++i) aig.add_po(pool[pool.size() - 1 - i]);
  return aig;
}

struct Measurement {
  std::uint64_t cold_allocs = 0;          // first iteration (fills caches)
  std::uint64_t steady_allocs = 0;        // per-iteration, after warm-up
  std::uint64_t steady_arena_blocks = 0;  // per-iteration, after warm-up
  bool steady_is_flat = true;             // all measured iters identical
};

/// Run `iters` iterations of `fn`, treating the first `warmup` as cache
/// filling. Records the cold cost, the (per-iteration) steady-state cost,
/// and whether the steady iterations all cost exactly the same.
template <typename Fn>
Measurement measure(int warmup, int iters, Fn&& fn) {
  Measurement m;
  std::uint64_t prev = 0;
  for (int i = 0; i < warmup + iters; ++i) {
    std::uint64_t allocs0 = g_heap_allocs;
    std::uint64_t blocks0 = arena_block_allocs();
    fn();
    std::uint64_t allocs = g_heap_allocs - allocs0;
    std::uint64_t blocks = arena_block_allocs() - blocks0;
    if (i == 0) m.cold_allocs = allocs;
    if (i >= warmup) {
      if (i > warmup && allocs != prev) m.steady_is_flat = false;
      prev = allocs;
      m.steady_allocs = allocs;
      m.steady_arena_blocks = blocks;
    }
  }
  return m;
}

/// E-graph kernels on one reused EGraph: build, merge, rebuild, clear.
/// Every container keeps its capacity across clear(), so a warm iteration
/// must perform zero heap allocations. rebuild()'s epoch reclaim may
/// allocate a fresh (coalesced) arena block when it compacts — at most one
/// per store per iteration.
Measurement bench_egraph_steady() {
  EGraph eg;
  std::vector<EClassId> classes;  // outside the loop: the bench itself
  classes.reserve(1600);          // must not charge the steady state
  return measure(3, 5, [&] {
    eg.clear();
    Rng rng(17);
    classes.clear();
    for (std::uint32_t i = 0; i < 64; ++i) classes.push_back(eg.add_var(i));
    for (int i = 0; i < 1500; ++i) {
      EClassId a = classes[rng.next_below(classes.size())];
      EClassId b = classes[rng.next_below(classes.size())];
      classes.push_back(eg.add_and(a, b));
    }
    for (int i = 0; i < 40; ++i) {
      eg.merge(classes[rng.next_below(64)], classes[rng.next_below(64)]);
    }
    eg.rebuild();
  });
}

/// Priority-cut enumeration through one reused CutArena (the SA evaluator's
/// pattern): every enumeration is an arena epoch, so a warm iteration does
/// zero heap allocations and zero arena block mallocs.
Measurement bench_cut_steady() {
  Aig aig = make_random_aig(16, 2000, 23);
  CutArena arena;
  CutParams params;
  std::uint64_t checksum = 0;
  Measurement m = measure(2, 5, [&] {
    CutManager cuts(aig, params, &arena);
    for (Var v = 0; v < aig.num_nodes(); ++v) checksum += cuts.cuts(v).size();
  });
  std::printf("  (cut checksum %llu)\n",
              static_cast<unsigned long long>(checksum));
  return m;
}

/// The full saturate→extract→map flow through one long-lived FlowContext —
/// the synthesis service's per-worker steady state. A flow run builds fresh
/// result structures, so its warm cost is not zero; the gates are that it
/// is *flat* (identical allocation count every warm iteration — nothing
/// accumulates) and far below the cold run (the workspaces, matcher, and
/// QoR memo absorbed the bulk).
Measurement bench_flow_steady() {
  FlowParams params;
  params.rounds = 2;
  params.rewrite.max_iterations = 2;
  params.rewrite.max_enodes = 8000;
  params.rewrite.time_limit_s = 1e9;
  params.sa.num_threads = 1;  // deterministic allocation counts
  params.rewrite.match_threads = 1;  // deterministic allocation counts
  params.sa.iterations = 2;
  params.sa.moves_per_iteration = 2;
  params.verify = false;

  Aig input = make_adder(6);
  WarmCache cache;
  FlowContext ctx;
  Pipeline pipeline = Pipeline::emorphic(params);
  return measure(2, 4, [&] {
    ctx.params = params;
    cache.prepare(ctx);
    ctx.input = input;
    ctx.seed = 1;
    static_cast<void>(pipeline.run(ctx));
  });
}

Json to_json(const Measurement& m, bool pass) {
  Json j = Json::object();
  j["cold_allocs"] = m.cold_allocs;
  j["steady_allocs_per_iter"] = m.steady_allocs;
  j["steady_arena_blocks_per_iter"] = m.steady_arena_blocks;
  j["steady_is_flat"] = m.steady_is_flat;
  j["pass"] = pass;
  return j;
}

void report(const char* name, const Measurement& m, bool pass) {
  std::printf("%-14s cold %8llu allocs, steady %6llu allocs/iter, "
              "%llu arena blocks/iter, flat: %s  -> %s\n",
              name, static_cast<unsigned long long>(m.cold_allocs),
              static_cast<unsigned long long>(m.steady_allocs),
              static_cast<unsigned long long>(m.steady_arena_blocks),
              m.steady_is_flat ? "yes" : "NO", pass ? "pass" : "FAIL");
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = argc > 1 ? argv[1] : "BENCH_alloc.json";

  std::printf("-- steady-state allocation gates (arena/SoA layout) --\n");
  Measurement eg = bench_egraph_steady();
  Measurement cut = bench_cut_steady();
  Measurement flow = bench_flow_steady();

  // The reused-structure loops must be allocation-free once warm: zero heap
  // allocations, zero arena block mallocs (epoch reclaim ping-pongs between
  // two warm arenas, so even compaction-every-rebuild stays at zero).
#ifdef EMORPHIC_CHECKS
  // EM_CHECK_EXPENSIVE deep-validates inside rebuild() and allocates by
  // design; in that build, gate on flatness and the arena counter instead.
  bool eg_pass = eg.steady_is_flat && eg.steady_arena_blocks == 0;
  bool cut_pass = cut.steady_is_flat && cut.steady_arena_blocks == 0;
#else
  bool eg_pass = eg.steady_allocs == 0 && eg.steady_arena_blocks == 0;
  bool cut_pass = cut.steady_allocs == 0 && cut.steady_arena_blocks == 0;
#endif
  // A full flow builds fresh per-run results (e-graph, extraction, mapped
  // netlists), so its warm cost is not zero; the gates are that nothing
  // accumulates run over run (flat) and that warm runs stay strictly below
  // the cold one (the context's workspaces and the memo are doing work).
  bool flow_pass = flow.steady_is_flat && flow.steady_allocs < flow.cold_allocs;

  report("egraph_steady", eg, eg_pass);
  report("cut_steady", cut, cut_pass);
  report("flow_steady", flow, flow_pass);
#ifndef EMORPHIC_CHECKS
  std::printf("(EMORPHIC_CHECKS off: arena block counts read 0 by design)\n");
#endif

  Json doc = Json::object();
  doc["benchmark"] = "steady-state-allocations";
#ifdef EMORPHIC_CHECKS
  doc["arena_counter_enabled"] = true;
#else
  doc["arena_counter_enabled"] = false;
#endif
  doc["egraph_steady"] = to_json(eg, eg_pass);
  doc["cut_steady"] = to_json(cut, cut_pass);
  doc["flow_steady"] = to_json(flow, flow_pass);
  bool all_pass = eg_pass && cut_pass && flow_pass;
  doc["pass"] = all_pass;

  std::ofstream file(json_path);
  file << doc.dump(2) << "\n";
  std::printf("wrote %s\n", json_path);
  return all_pass ? 0 : 1;
}
