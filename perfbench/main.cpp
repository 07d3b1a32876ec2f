// The repository benchmark program:
//
//   perfbench --workload <explore|verify_arith|partition_tiles|service_mix>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//             [--socket <path>]
//
// Prints a header (build type, EMORPHIC_CHECKS, paranoia), one line per
// metric, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when an output is wrong or a determinism check fails, 2 on a
// usage error or a build that must not report timings.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--socket <path>]\n",
               why);
  return 2;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        config.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
        have_seconds = config.seconds > 0.0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        config.trace = value == "1";
        have_trace = true;
      } else if (flag == "--trace-out") {
        config.trace_path = value;
      } else if (flag == "--socket") {
        config.socket_path = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds (> 0) and --trace are required");
  }
  if (!is_flow_workload(config.workload) && config.workload != "service_mix") {
    return usage(("unknown workload " + config.workload).c_str());
  }
  if (config.socket_path.empty()) {
    config.socket_path = "perfbench-" + std::to_string(getpid()) + ".sock";
  }

#ifdef EMORPHIC_CHECKS
  const bool checks = true;
#else
  const bool checks = false;
#endif
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  const bool paranoia = paper_params().paranoia;
  std::printf(
      "# perfbench workload=%s seed=%llu seconds=%g trace=%d build_type=%s "
      "NDEBUG=%d EMORPHIC_CHECKS=%d paranoia=%d\n",
      config.workload.c_str(), static_cast<unsigned long long>(config.seed),
      config.seconds, config.trace ? 1 : 0, PERFBENCH_BUILD_TYPE, ndebug ? 1 : 0,
      checks ? 1 : 0, paranoia ? 1 : 0);
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release" || !ndebug || checks ||
      paranoia) {
    std::fprintf(stderr,
                 "perfbench: refusing to report timings from a non-Release, "
                 "assert-enabled, checks-on or paranoia build\n");
    return 2;
  }

  Outcome outcome = is_flow_workload(config.workload)
                        ? run_flow_workload(config)
                        : run_service_workload(config);
  if (!config.trace) outcome.metrics.set("peak_rss_mb", outcome.peak_rss_mib, "MiB");

  const std::vector<MetricSpec>& specs =
      config.trace ? per_layer_specs() : end_to_end_specs();
  if (outcome.metrics.entries().size() != specs.size()) {
    std::fprintf(stderr, "perfbench: metric set does not match the catalogue\n");
    return 2;
  }
  std::string json = "{\"correct\": " + std::string(outcome.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(outcome.attempted) +
                     ", \"failed\": " + std::to_string(outcome.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const MetricSet::Entry& e : outcome.metrics.entries()) {
    std::printf("%-32s %18.6f %s\n", e.name.c_str(), e.value, e.unit.c_str());
    json += std::string(first ? "" : ", ") + "\"" + e.name + "\": {\"value\": " +
            json_number(e.value) + ", \"unit\": \"" + e.unit + "\"}";
    first = false;
  }
  std::printf("# correct=%d attempted=%llu failed=%llu fail_share=%g\n",
              outcome.correct ? 1 : 0,
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              outcome.attempted > 0
                  ? static_cast<double>(outcome.failed) /
                        static_cast<double>(outcome.attempted)
                  : 0.0);
  std::printf("%s}}\n", json.c_str());
  std::fflush(stdout);
  return outcome.correct && outcome.failed == 0 ? 0 : 1;
}
