#pragma once
// Shared pieces of the repository benchmark (see README.md in this
// directory): the metric catalogue, summary statistics, the in-memory span
// recorder of the traced run, and the closed-loop service client. Every
// helper here is exercised by selftest.cpp.

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "service/protocol.hpp"

namespace perfbench {

// --- metric catalogue --------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed by every untraced run (--trace 0). Each is
/// defined for every workload; README.md gives the per-workload meaning.
inline const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},           {"flow_s", "s"},
      {"area_um2", "um2"},        {"delay_ps", "ps"},
      {"ands_ratio", "ratio"},    {"verified_share", "ratio"},
      {"peak_rss_mb", "MiB"},     {"req_per_s", "1/s"},
      {"req_p50_ms", "ms"},       {"req_p90_ms", "ms"},
  };
  return specs;
}

/// Per-layer metrics, printed by every traced run (--trace 1). A layer a
/// workload does not exercise reports 0.
inline const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> specs = {
      // flow: stage spans (FlowObserver), medians over traced passes
      {"flow.resyn_s", "s"}, {"flow.conversion_s", "s"},
      {"flow.rewrite_s", "s"}, {"flow.sa_s", "s"}, {"flow.techmap_s", "s"},
      {"flow.cec_s", "s"}, {"flow.partition_s", "s"},
      {"trace.overhead_s", "s"},
      // egraph: RunnerReport / on_rewrite_iteration
      {"egraph.iterations", "count"}, {"egraph.matches", "count"},
      {"egraph.applied", "count"}, {"egraph.apply_ratio", "ratio"},
      {"egraph.enodes", "count"}, {"egraph.classes", "count"},
      {"egraph.node_limit_stops", "count"},
      // extract: SA counters plus a replay of single moves
      {"extract.moves", "count"}, {"extract.accept_ratio", "ratio"},
      {"extract.prune_ratio", "ratio"}, {"extract.memo_hit_ratio", "ratio"},
      {"extract.eval_busy_s", "s"}, {"extract.move.extract_ms", "ms"},
      {"extract.move.lower_ms", "ms"}, {"extract.move.cleanup_ms", "ms"},
      {"extract.move.signature_ms", "ms"}, {"extract.move.map_ms", "ms"},
      // mapper: the SA cost model's mapping calls
      {"mapper.eval_calls", "count"}, {"mapper.eval_ms", "ms"},
      // cec/sat: a replay of cec() with the flow's parameters
      {"cec.sat_conflicts", "count"}, {"cec.conflicts_per_s", "1/s"},
      {"cec.undecided", "count"},
      // opt: PartitionStats plus a replay of sampled windows
      {"opt.windows", "count"}, {"opt.adopt_ratio", "ratio"},
      {"opt.rejected_qor", "count"}, {"opt.rejected_cec", "count"},
      {"opt.window.convert_ms", "ms"}, {"opt.window.rewrite_ms", "ms"},
      {"opt.window.extract_ms", "ms"}, {"opt.window.fraig_ms", "ms"},
      {"opt.window.gate_ms", "ms"}, {"opt.window.gate_conflicts", "count"},
      // service: result/progress frames, ServerStats, WarmCacheStats
      {"service.queue_wait_ms", "ms"}, {"service.run_ms", "ms"},
      {"service.wire_ms", "ms"}, {"service.result_hit_ratio", "ratio"},
      {"service.qor_memo_hit_ratio", "ratio"},
      {"service.overloaded", "count"},
      {"service.stage.resyn_ms", "ms"}, {"service.stage.conversion_ms", "ms"},
      {"service.stage.rewrite_ms", "ms"}, {"service.stage.sa_ms", "ms"},
      {"service.stage.techmap_ms", "ms"},
      {"service.stage.choicemap_ms", "ms"},
      {"service.stage.lutmap_ms", "ms"},
  };
  return specs;
}

/// A metric name is 1..64 characters of [A-Za-z0-9_.-], starting with a
/// letter or digit.
bool valid_metric_name(std::string_view name);

/// Named values in insertion order. set() validates the name against
/// valid_metric_name and overwrites an existing entry.
class MetricSet {
 public:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  void set(const std::string& name, double value, const std::string& unit);
  double get(const std::string& name) const;
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// A set pre-filled with every metric of `specs` at 0.
MetricSet zeroed(const std::vector<MetricSpec>& specs);

// --- statistics --------------------------------------------------------------

/// A percentile with its sample count and the number of samples strictly
/// above it, so a caller can tell whether a tail percentile rests on enough
/// samples (the benchmark wants at least ten beyond it).
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

/// p in [0, 100], linear interpolation between the closest ranks (numpy's
/// default): with few samples a tail percentile then blends the slowest
/// samples instead of jumping to the maximum. Empty input gives {0, 0, 0}.
Percentile percentile(std::vector<double> values, double p);

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> values);

/// Geometric mean of positive values; throws std::invalid_argument on a
/// value <= 0 and returns 0 for an empty input.
double geomean(const std::vector<double>& values);

/// Peak resident set size of this process so far (VmHWM), in MiB; 0 when
/// /proc/self/status is unreadable.
double peak_rss_mib();

// --- tracing -----------------------------------------------------------------

/// In-memory span store for the traced run. Spans are appended under a
/// mutex (SA chains report concurrently) and written out once at the end.
class SpanRecorder {
 public:
  static constexpr std::int64_t kNoParent = -1;
  struct Span {
    std::string name;
    std::int64_t parent = kNoParent;
    std::uint64_t group = 0;  // shared by all spans of one flow or request
    double start_s = 0.0;     // seconds since the recorder was created
    double end_s = 0.0;
    std::vector<std::pair<std::string, double>> counters;
  };

  SpanRecorder();
  /// Seconds since construction (the span clock).
  double now() const;
  /// Open a span; returns its index (the parent handle for children).
  std::int64_t begin(std::string name, std::int64_t parent,
                     std::uint64_t group);
  void end(std::int64_t span);
  /// Record a closed span whose interval is already known.
  std::int64_t add(std::string name, std::int64_t parent, std::uint64_t group,
                   double start_s, double end_s);
  void counter(std::int64_t span, std::string name, double value);
  std::vector<Span> snapshot() const;
  /// Total duration of the spans named `name`.
  double total(std::string_view name) const;
  /// JSON array of every span (name, parent, group, start, end, counters).
  std::string to_json() const;

 private:
  std::int64_t origin_ns_ = 0;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// --- closed-loop service client ----------------------------------------------

/// One planned request of a client: either a fresh job, or an exact repeat
/// of an earlier request of the same client (`repeat_of` indexes that
/// client's plan). A closed-loop client sends its next request only after
/// the previous reply arrived, so a repeat always follows the completion of
/// the request it repeats.
struct PlannedRequest {
  emorphic::service::JobRequest request;
  std::int64_t repeat_of = -1;
};

/// What one request produced, as the client saw it.
struct RequestRecord {
  std::size_t index = 0;       // position in the client's plan
  double latency_s = 0.0;      // submit sent -> terminal frame received
  emorphic::Json terminal;     // the "result"/"cancelled"/"error" frame
  std::vector<emorphic::Json> progress;  // progress frames, in order
  std::string error;           // non-empty when the exchange itself failed
};

/// Run `plan` sequentially on one fresh connection to the server listening
/// on the Unix-domain socket `socket_path`. A repeat re-sends the repeated request's JobRequest under a
/// fresh id. Throws std::invalid_argument when a repeat does not point at an
/// earlier entry of the plan.
std::vector<RequestRecord> run_closed_loop(
    const std::string& socket_path, const std::vector<PlannedRequest>& plan);

}  // namespace perfbench
