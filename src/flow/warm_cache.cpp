#include "flow/warm_cache.hpp"

#include <initializer_list>

#include "aig/aig_io.hpp"

namespace emorphic {

std::shared_ptr<const Matcher> WarmCache::matcher_for(
    const CellLibrary& library) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [lib, matcher] : matchers_) {
      if (lib == &library) return matcher;
    }
  }
  // Canonize outside the lock: a Matcher build is the expensive part, and
  // two racers building the same library both produce correct instances —
  // the first insert wins and the loser's build is dropped.
  auto built = std::make_shared<const Matcher>(library);
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [lib, matcher] : matchers_) {
    if (lib == &library) return matcher;
  }
  matchers_.emplace_back(&library, built);
  return built;
}

void WarmCache::prepare(FlowContext& ctx) {
  ctx.matcher = matcher_for(*ctx.params.library);
  if (ctx.params.library == library_ && ctx.evaluator == nullptr) {
    ctx.qor_memo = &qor_memo_;
  }
}

std::string WarmCache::flow_key(const Aig& input, std::uint64_t seed,
                                std::uint64_t params_fingerprint) {
  // The two words have a fixed width, so no two (bytes, seed, fingerprint)
  // triples concatenate to one key.
  std::string key = write_aiger_binary(input);
  for (std::uint64_t word : {seed, params_fingerprint}) {
    for (int byte = 0; byte < 8; ++byte) {
      key.push_back(static_cast<char>(word >> (8 * byte)));
    }
  }
  return key;
}

WarmCacheStats WarmCache::stats() const {
  WarmCacheStats stats;
  stats.qor_hits = qor_memo_.hits();
  stats.qor_misses = qor_memo_.misses();
  stats.qor_entries = qor_memo_.size();
  stats.result_hits = results_.hits();
  stats.result_misses = results_.misses();
  stats.result_entries = results_.size();
  std::lock_guard<std::mutex> lock(mutex_);
  stats.matchers = matchers_.size();
  return stats;
}

void WarmCache::clear() {
  qor_memo_.clear();
  results_.clear();
  std::lock_guard<std::mutex> lock(mutex_);
  matchers_.clear();
}

}  // namespace emorphic
