#pragma once
// The warm-cache substrate a long-running synthesis process keeps alive
// across flow runs — extracted from what run_batch used to pre-seed inline
// (one shared NPN matcher per batch), so the CLI batch driver and the
// synthesis service (src/service/) now share one implementation.
//
// Three layers, coldest to warmest:
//
//  1. matcher_for(library): NPN canonization tables + match cache for a cell
//     library, built once and shared (the Matcher is immutable-after-ctor
//     and thread-safe since PR 3). The match cache itself warms as flows
//     run, so even *distinct* circuits benefit.
//  2. qor_memo(): evaluator results keyed by each candidate's binary
//     AIGER bytes, shared across every SA extraction. Repeated structures
//     — identical circuits, or different circuits converging on the same
//     substructures — skip technology mapping entirely.
//  3. results(): complete FlowQor + final AIG keyed by flow_key (the
//     input's binary AIGER bytes, structure and names, then the seed and
//     the params fingerprint). A repeated request is answered without
//     running the flow at all. Opt-in per lookup — the service uses it;
//     run_batch deliberately does not (a batch is usually distinct
//     circuits, and callers expect fresh telemetry).
//
// Both keyed layers are ExactCaches (util/exact_cache.hpp): a hit needs
// the whole key to match, so no answer rests on a hash.
//
// Sharing any layer never changes results: the matcher is a pure function
// of the library, the QoR memo caches a deterministic evaluator's own
// answers, and the result cache is keyed by everything a deterministic flow
// depends on. The determinism gate in tests/service/test_warm_cache.cpp
// holds N concurrent flows through one WarmCache bit-identical to serial.
//
// One WarmCache serves ONE cell library's QoR memo (the candidate bytes do
// not encode the library). prepare() installs the memo only when the
// context's library matches and no custom evaluator overrides the default
// MapQorEvaluator; the matcher layer is per-library and always installed.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "flow/pipeline.hpp"
#include "util/exact_cache.hpp"

namespace emorphic {

/// Telemetry snapshot.
struct WarmCacheStats {
  std::uint64_t qor_hits = 0;
  std::uint64_t qor_misses = 0;
  std::uint64_t result_hits = 0;
  std::uint64_t result_misses = 0;
  std::size_t qor_entries = 0;
  std::size_t result_entries = 0;
  std::size_t matchers = 0;  // distinct libraries canonized
};

/// What the flow-result cache stores: enough to answer a service request
/// (QoR, the optimized network, the verification verdict) without the
/// mapped netlist (responses ship the AIG as AIGER text).
struct CachedFlow {
  FlowQor qor;
  Aig final_aig;
  CecStatus verify_status = CecStatus::kUndecided;
};

class WarmCache {
 public:
  explicit WarmCache(const CellLibrary& library = CellLibrary::asap7_like())
      : library_(&library) {}

  WarmCache(const WarmCache&) = delete;
  WarmCache& operator=(const WarmCache&) = delete;

  /// The library whose QoR memo this cache owns.
  const CellLibrary& library() const { return *library_; }

  /// The shared matcher for `library`, canonizing it on first use. Safe to
  /// call concurrently; all callers get the same instance.
  std::shared_ptr<const Matcher> matcher_for(const CellLibrary& library);

  /// The shared cross-run QoR memo (see sharing discipline above).
  QorMemo& qor_memo() { return qor_memo_; }

  /// Install the warm layers into a flow context: the shared matcher
  /// always; the QoR memo only when ctx uses this cache's library and the
  /// default evaluator (a custom evaluator's answers must not mix in).
  void prepare(FlowContext& ctx);

  /// The flow-result cache, keyed by flow_key.
  ExactCache<CachedFlow>& results() { return results_; }

  /// Key of a deterministic flow run: the input's binary AIGER bytes, then
  /// the seed and a caller-provided fingerprint of everything else that
  /// shapes the result (params + pipeline identity), 8 bytes each.
  static std::string flow_key(const Aig& input, std::uint64_t seed,
                              std::uint64_t params_fingerprint);

  WarmCacheStats stats() const;

  /// Drop every layer (matchers, QoR memo, results) and reset counters.
  void clear();

 private:
  const CellLibrary* library_;

  mutable std::mutex mutex_;
  // A handful of libraries at most: linear scan beats hashing pointers.
  std::vector<std::pair<const CellLibrary*, std::shared_ptr<const Matcher>>>
      matchers_;

  QorMemo qor_memo_;
  ExactCache<CachedFlow> results_;
};

}  // namespace emorphic
