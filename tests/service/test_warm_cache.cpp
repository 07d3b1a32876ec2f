// WarmCache: the shared substrate the batch driver and the synthesis
// service warm across runs. The load-bearing test is the determinism gate:
// N threads through one WarmCache produce bit-identical results to serial,
// cold runs — sharing the matcher and QoR memo must never change answers.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "../test_helpers.hpp"
#include "aig/signature.hpp"
#include "benchgen/arith.hpp"
#include "benchgen/control.hpp"
#include "flow/batch.hpp"
#include "flow/warm_cache.hpp"

// Count every heap allocation in this binary so the arena-reuse gate below
// can assert the service's warm path stops churning the allocator. The
// replacements are malloc/free based (a replaced new must pair with a
// replaced delete); only the plain-alignment forms are counted — over-aligned
// allocations are rare and under-counting them only makes the gate stricter.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace emorphic {
namespace {

FlowParams quick_params() {
  FlowParams params;
  params.rounds = 2;
  params.rewrite.max_iterations = 2;
  params.rewrite.max_enodes = 8000;
  params.rewrite.time_limit_s = 1e9;  // determinism needs limit-free runs
  params.sa.num_threads = 2;
  params.sa.iterations = 2;
  params.sa.moves_per_iteration = 2;
  params.verify = false;
  return params;
}

std::vector<Aig> test_circuits() {
  std::vector<Aig> circuits;
  circuits.push_back(make_adder(6));
  circuits.push_back(make_arbiter(4));
  circuits.push_back(make_square(4));
  circuits.push_back(make_adder(8));
  return circuits;
}

TEST(WarmCache, SharesOneMatcherPerLibrary) {
  WarmCache cache;
  const CellLibrary& lib = CellLibrary::asap7_like();
  auto a = cache.matcher_for(lib);
  auto b = cache.matcher_for(lib);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.stats().matchers, 1u);
}

TEST(WarmCache, ConcurrentMatcherRequestsConverge) {
  WarmCache cache;
  const CellLibrary& lib = CellLibrary::asap7_like();
  std::vector<std::shared_ptr<const Matcher>> seen(8);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    threads.emplace_back([&, i] { seen[i] = cache.matcher_for(lib); });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].get(), seen[0].get());
  }
  EXPECT_EQ(cache.stats().matchers, 1u);
}

TEST(WarmCache, FlowResultCacheHitsAndCounts) {
  WarmCache cache;
  Aig adder = make_adder(4);
  FlowKey key = WarmCache::flow_key(adder, 1, 42);

  CachedFlow out;
  EXPECT_FALSE(cache.lookup_flow(key, &out));

  CachedFlow stored;
  stored.qor.area = 12.5;
  stored.qor.delay = 80.0;
  stored.final_aig = adder;
  stored.verify_status = CecStatus::kEquivalent;
  cache.insert_flow(key, stored);

  ASSERT_TRUE(cache.lookup_flow(key, &out));
  EXPECT_DOUBLE_EQ(out.qor.area, 12.5);
  EXPECT_EQ(out.verify_status, CecStatus::kEquivalent);
  EXPECT_EQ(out.input, key.input);

  WarmCacheStats stats = cache.stats();
  EXPECT_EQ(stats.result_hits, 1u);
  EXPECT_EQ(stats.result_misses, 1u);
  EXPECT_EQ(stats.result_entries, 1u);
}

TEST(WarmCache, FlowKeySeparatesInputsSeedsAndParams) {
  Aig adder = make_adder(4);
  Aig arbiter = make_arbiter(4);
  std::uint64_t base = WarmCache::flow_key(adder, 1, 42).hash;
  EXPECT_NE(base, WarmCache::flow_key(arbiter, 1, 42).hash);
  EXPECT_NE(base, WarmCache::flow_key(adder, 2, 42).hash);
  EXPECT_NE(base, WarmCache::flow_key(adder, 1, 43).hash);
  EXPECT_EQ(base, WarmCache::flow_key(make_adder(4), 1, 42).hash);

  // Same structure under other names: the served circuit carries the
  // names, so it is another input.
  Aig alice = testing::named_full_adder("alice_");
  Aig bob = testing::named_full_adder("bob_");
  ASSERT_EQ(structural_signature(alice), structural_signature(bob));
  EXPECT_NE(WarmCache::flow_key(alice, 1, 42).hash,
            WarmCache::flow_key(bob, 1, 42).hash);
}

TEST(WarmCache, LookupVerifiesTheInputBytesOnEveryHit) {
  // Two inputs that land on one hash (a 64-bit collision, forced here)
  // must not be served each other's results.
  WarmCache cache;
  FlowKey stored_key = WarmCache::flow_key(make_adder(4), 1, 42);
  CachedFlow stored;
  stored.qor.area = 12.5;
  cache.insert_flow(stored_key, stored);

  FlowKey colliding = WarmCache::flow_key(make_arbiter(4), 1, 42);
  colliding.hash = stored_key.hash;
  CachedFlow out;
  EXPECT_FALSE(cache.lookup_flow(colliding, &out));
  EXPECT_TRUE(cache.lookup_flow(stored_key, &out));

  WarmCacheStats stats = cache.stats();
  EXPECT_EQ(stats.result_hits, 1u);
  EXPECT_EQ(stats.result_misses, 1u);
}

/// The determinism gate (ISSUE satellite): N worker threads sharing one
/// WarmCache — concurrent QoR memo and matcher use — must produce
/// bit-identical FlowQor to a serial, cache-free run of the same batch.
TEST(WarmCache, ConcurrentSharingIsBitIdenticalToSerial) {
  std::vector<Aig> circuits = test_circuits();
  FlowParams params = quick_params();
  Pipeline pipeline = Pipeline::emorphic(params);

  BatchParams serial;
  serial.num_threads = 1;
  BatchResult reference = run_batch(circuits, pipeline, params, serial);

  WarmCache cache;
  BatchParams shared;
  shared.num_threads = 4;
  shared.warm_cache = &cache;
  BatchResult warm = run_batch(circuits, pipeline, params, shared);

  ASSERT_EQ(reference.results.size(), warm.results.size());
  for (std::size_t i = 0; i < reference.results.size(); ++i) {
    EXPECT_EQ(reference.results[i].qor.area, warm.results[i].qor.area)
        << "circuit " << i;
    EXPECT_EQ(reference.results[i].qor.delay, warm.results[i].qor.delay)
        << "circuit " << i;
    EXPECT_EQ(reference.results[i].qor.lev, warm.results[i].qor.lev)
        << "circuit " << i;
  }
  // The shared memo saw traffic (the gate is vacuous otherwise).
  WarmCacheStats stats = cache.stats();
  EXPECT_GT(stats.qor_hits + stats.qor_misses, 0u);
}

/// Re-running a batch against an already-warm cache — the service's
/// steady state — still changes nothing.
TEST(WarmCache, WarmReRunsStayIdentical) {
  std::vector<Aig> circuits = test_circuits();
  FlowParams params = quick_params();
  Pipeline pipeline = Pipeline::emorphic(params);

  WarmCache cache;
  BatchParams batch;
  batch.num_threads = 2;
  batch.warm_cache = &cache;

  BatchResult first = run_batch(circuits, pipeline, params, batch);
  WarmCacheStats after_first = cache.stats();
  BatchResult second = run_batch(circuits, pipeline, params, batch);
  WarmCacheStats after_second = cache.stats();

  for (std::size_t i = 0; i < first.results.size(); ++i) {
    EXPECT_EQ(first.results[i].qor.area, second.results[i].qor.area);
    EXPECT_EQ(first.results[i].qor.delay, second.results[i].qor.delay);
    EXPECT_EQ(first.results[i].qor.lev, second.results[i].qor.lev);
  }
  // The second pass re-visits structures the first one mapped.
  EXPECT_GT(after_second.qor_hits, after_first.qor_hits);
}

/// The service worker's steady state (ISSUE satellite): one long-lived
/// FlowContext per worker, rebound to job after job — exactly what
/// SynthServer::worker_loop does. Repeated identical jobs must (a) stay
/// bit-identical, and (b) stop allocating once warm: the context's mapper
/// workspaces (cut arenas, DP state), the shared matcher, and the QoR memo
/// all persist, so a warm job re-walks warm storage.
TEST(WarmCache, WorkerContextReuseIsFlatAndDeterministic) {
  Aig input = make_adder(6);
  FlowParams params = quick_params();
  params.sa.num_threads = 1;  // single-threaded: allocation counts are
                              // deterministic, so "flat" can be exact
  Pipeline pipeline = Pipeline::emorphic(params);

  WarmCache cache;
  FlowContext ctx;  // the per-worker context, reused across jobs
  std::atomic<bool> cancel{false};

  std::vector<FlowQor> qors;
  std::vector<std::uint64_t> allocs;
  for (int job = 0; job < 5; ++job) {
    ctx.params = params;
    cache.prepare(ctx);
    ctx.input = input;
    ctx.seed = 1;
    ctx.cancel = &cancel;
    std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    FlowResult result = pipeline.run(ctx);
    allocs.push_back(g_heap_allocs.load(std::memory_order_relaxed) - before);
    qors.push_back(result.qor);
  }

  for (std::size_t i = 1; i < qors.size(); ++i) {
    EXPECT_EQ(qors[0].area, qors[i].area) << "job " << i;
    EXPECT_EQ(qors[0].delay, qors[i].delay) << "job " << i;
    EXPECT_EQ(qors[0].lev, qors[i].lev) << "job " << i;
  }

  // Warm jobs allocate strictly less than the cold one (the workspaces and
  // memo absorbed the bulk), and the count is flat once the memo saturates:
  // jobs 3 and 4 re-run identical warm state, so their counts are equal.
  EXPECT_LT(allocs[1], allocs[0]);
  EXPECT_EQ(allocs[3], allocs[4]) << "steady-state allocation count drifts";
  EXPECT_LE(allocs[4], allocs[1]);
}

TEST(WarmCache, ClearResetsEverything) {
  WarmCache cache;
  cache.matcher_for(CellLibrary::asap7_like());
  cache.insert_flow(WarmCache::flow_key(make_adder(4), 1, 42), CachedFlow{});
  cache.clear();
  WarmCacheStats stats = cache.stats();
  EXPECT_EQ(stats.matchers, 0u);
  EXPECT_EQ(stats.result_entries, 0u);
  EXPECT_EQ(stats.qor_entries, 0u);
}

}  // namespace
}  // namespace emorphic
