#pragma once
// A thread-safe cache keyed by exact byte strings. The map compares whole
// keys, so a hit never rests on a hash: two keys that differ in one byte
// are two entries. Both WarmCache layers use it — the SA QoR memo (keyed on
// a candidate's binary AIGER) and the flow-result cache (keyed on the
// input's binary AIGER, the seed and the params fingerprint).

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

namespace emorphic {

template <typename V>
class ExactCache {
 public:
  /// Look `key` up; on a hit copy the cached value into *out. Counts
  /// lifetime hits and misses.
  bool lookup(const std::string& key, V* out) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      ++misses_;
      return false;
    }
    ++hits_;
    *out = it->second;
    return true;
  }

  /// Store `value` under `key`; the first writer of a key wins (values
  /// cached by deterministic producers are equal anyway).
  void insert(std::string key, V value) {
    std::lock_guard<std::mutex> lock(mutex_);
    map_.try_emplace(std::move(key), std::move(value));
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return map_.size();
  }

  std::uint64_t hits() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
  }

  std::uint64_t misses() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
  }

  /// Drop every entry and reset the counters.
  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    map_.clear();
    hits_ = 0;
    misses_ = 0;
  }

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, V> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace emorphic
