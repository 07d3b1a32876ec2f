#pragma once
// The four benchmark workloads. Each runs timed passes for the configured
// number of seconds and fills either the end-to-end metrics (untraced) or
// the per-layer metrics (traced); see README.md for what each one stresses.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "flow/pipeline.hpp"
#include "util/rng.hpp"
#include "perfbench.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (JSON); empty = nowhere.
  std::string trace_path;
  /// Unix-domain socket path for the service_mix server.
  std::string socket_path;
};

/// Verdict and metrics of one run. `failed` counts operations that failed
/// (a refuted equivalence, an exception, a rejected or cancelled request,
/// served QoR differing from one-shot QoR); `correct` is also cleared by a
/// determinism-guard mismatch, which is not an operation.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricSet metrics;
  /// Peak RSS after set-up and the first kMinPasses passes: a fixed amount
  /// of work, whereas the number of passes in a run depends on speed.
  double peak_rss_mib = 0.0;

  void fail_operation(const std::string& why, std::uint64_t count = 1);
  void mismatch(const std::string& why);
};

/// Flow parameters shared by the flow workloads: the paper's settings (5
/// rewrite iterations, 4 SA iterations x 3 moves, T1 = 2000, 4 chains) at
/// a 30k e-node cap, with every wall-clock limit removed so that every
/// result is a function of the inputs alone (the determinism guard).
emorphic::FlowParams paper_params();

bool is_flow_workload(const std::string& name);
Outcome run_flow_workload(const RunConfig& config);
Outcome run_service_workload(const RunConfig& config);

/// Deterministic 64-bit mix (splitmix64 finalizer) for deriving seeds.
std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b);

/// Set-up repetitions made before the timed passes, on top of the one each
/// pass makes, so that setup_s is a median of enough samples.
inline constexpr int kSetupReps = 10;

/// Every untraced run makes at least this many passes, and peak_rss_mb is
/// read after them. Pass 0 warms the process up (heap growth, first page
/// faults): it is checked like every pass but left out of the timings.
inline constexpr std::size_t kMinPasses = 3;

/// Fisher-Yates shuffle driven by `rng`.
template <typename T>
void shuffle(std::vector<T>& v, emorphic::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(i)]);
  }
}

}  // namespace perfbench
