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
//  2. qor_memo(): evaluator results keyed by structural signature
//     (extract/qor_memo.hpp), shared across every SA extraction. Repeated
//     structures — identical circuits, or different circuits converging on
//     the same substructures — skip technology mapping entirely.
//  3. the flow-result cache: complete FlowQor + final AIG keyed by
//     (input bytes, seed, params fingerprint). The input bytes are its
//     binary AIGER, structure and names; each entry keeps them and a hit
//     must match them exactly, so a hash collision is a miss, never a
//     wrong answer. A repeated request is answered without running the
//     flow at all. Opt-in per lookup — the service uses it; run_batch
//     deliberately does not (a batch is usually distinct circuits, and
//     callers expect fresh telemetry).
//
// Sharing any layer never changes results: the matcher is a pure function
// of the library, the QoR memo caches a deterministic evaluator's own
// answers, and the result cache is keyed by everything a deterministic flow
// depends on. The determinism gate in tests/service/test_warm_cache.cpp
// holds N concurrent flows through one WarmCache bit-identical to serial.
//
// One WarmCache serves ONE cell library's QoR memo (the structural
// signature does not encode the library). prepare() installs the memo only
// when the context's library matches and no custom evaluator overrides the
// default MapQorEvaluator; the matcher layer is per-library and always
// installed.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "extract/qor_memo.hpp"
#include "flow/pipeline.hpp"

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

/// Key of one flow-result cache entry: the hash to look it up under and the
/// input bytes a hit must match.
struct FlowKey {
  std::uint64_t hash = 0;
  std::string input;  // write_aiger_binary of the flow's input
};

/// What the flow-result cache stores: enough to answer a service request
/// (QoR, the optimized network, the verification verdict) without the
/// mapped netlist (responses ship the AIG as AIGER text).
struct CachedFlow {
  FlowQor qor;
  Aig final_aig;
  CecStatus verify_status = CecStatus::kUndecided;
  std::string input;  // the key's input bytes, compared on every hit
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

  // --- flow-result cache -----------------------------------------------

  /// Cache key of a deterministic flow run: the input's binary AIGER
  /// bytes, the seed, and a caller-provided fingerprint of everything else
  /// that shapes the result (params + pipeline identity).
  static FlowKey flow_key(const Aig& input, std::uint64_t seed,
                          std::uint64_t params_fingerprint);

  /// Look a finished flow up; counts hits/misses. An entry under the same
  /// hash whose input bytes differ from key.input is a miss.
  bool lookup_flow(const FlowKey& key, CachedFlow* out);

  /// Store a finished flow with key.input as its input bytes (first writer
  /// wins on duplicate hashes — for equal inputs both wrote the same
  /// deterministic result anyway).
  void insert_flow(const FlowKey& key, CachedFlow cached);

  WarmCacheStats stats() const;

  /// Drop every layer (matchers, QoR memo, results) and reset counters.
  void clear();

 private:
  const CellLibrary* library_;

  mutable std::mutex mutex_;
  // A handful of libraries at most: linear scan beats hashing pointers.
  std::vector<std::pair<const CellLibrary*, std::shared_ptr<const Matcher>>>
      matchers_;
  std::unordered_map<std::uint64_t, CachedFlow> flows_;
  std::uint64_t flow_hits_ = 0;
  std::uint64_t flow_misses_ = 0;

  QorMemo qor_memo_;
};

}  // namespace emorphic
