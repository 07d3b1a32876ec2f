// Self-tests of the benchmark's own helpers: percentile with sample count,
// geomean, metric-name validation, the metric catalogue, and the
// closed-loop client against a live in-process server. Exit code 0 = pass.
//
//   perfbench_selftest [socket-path]

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>

#include "aig/aig_io.hpp"
#include "benchgen/arith.hpp"
#include "perfbench.hpp"
#include "service/server.hpp"
#include "util/logger.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest line %d: %s\n", line, what);
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

template <typename F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

void test_percentile() {
  std::vector<double> v;
  for (int i = 101; i >= 1; --i) v.push_back(i);  // 1..101, unsorted
  const Percentile p50 = percentile(v, 50);
  CHECK(p50.value == 51 && p50.samples == 101 && p50.beyond == 50);
  const Percentile p90 = percentile(v, 90);
  CHECK(p90.value == 91 && p90.beyond == 10);
  const Percentile p100 = percentile(v, 100);
  CHECK(p100.value == 101 && p100.beyond == 0);
  CHECK(percentile(v, 0).value == 1);
  // Interpolation: p90 of 1..10 lies between the two slowest samples.
  const Percentile few = percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 90);
  CHECK(std::fabs(few.value - 9.1) < 1e-12 && few.beyond == 1);
  CHECK(percentile({4, 2}, 50).value == 3);
  const Percentile one = percentile({7.0}, 90);
  CHECK(one.value == 7.0 && one.samples == 1 && one.beyond == 0);
  const Percentile none = percentile({}, 50);
  CHECK(none.samples == 0 && none.value == 0.0);
  CHECK(throws([] { percentile({1.0}, -1.0); }));
  CHECK(throws([] { percentile({1.0}, 101.0); }));
  CHECK(median({3, 1, 2}) == 2);
  CHECK(median({4, 1, 3, 2}) == 2.5);
  CHECK(median({}) == 0.0);
}

void test_geomean() {
  CHECK(std::fabs(geomean({1, 4}) - 2.0) < 1e-12);
  CHECK(std::fabs(geomean({2, 8, 4}) - 4.0) < 1e-12);
  CHECK(geomean({}) == 0.0);
  CHECK(throws([] { geomean({1.0, 0.0}); }));
  CHECK(throws([] { geomean({-1.0}); }));
}

void test_metric_names() {
  CHECK(valid_metric_name("flow_s"));
  CHECK(valid_metric_name("extract.move.map_ms"));
  CHECK(valid_metric_name("9-lives"));
  CHECK(!valid_metric_name(""));
  CHECK(!valid_metric_name(".hidden"));
  CHECK(!valid_metric_name("_x"));
  CHECK(!valid_metric_name("has space"));
  CHECK(!valid_metric_name("slash/name"));
  CHECK(!valid_metric_name(std::string(65, 'a')));
  CHECK(valid_metric_name(std::string(64, 'a')));
  MetricSet set;
  CHECK(throws([&] { set.set("bad name", 1.0, "s"); }));
  set.set("a", 1.0, "s");
  set.set("a", 2.0, "s");
  CHECK(set.entries().size() == 1 && set.get("a") == 2.0);
  // Every catalogued metric has a valid, unique name and a unit.
  std::set<std::string> seen;
  for (const auto* specs : {&end_to_end_specs(), &per_layer_specs()}) {
    for (const MetricSpec& s : *specs) {
      CHECK(valid_metric_name(s.name));
      CHECK(std::string(s.unit).size() > 0);
      CHECK(seen.insert(s.name).second);
    }
  }
  CHECK(seen.count("setup_s") == 1);
}

void test_spans() {
  SpanRecorder rec;
  const std::int64_t root = rec.begin("root", SpanRecorder::kNoParent, 1);
  rec.add("child", root, 1, 0.0, 0.5);
  rec.add("child", root, 1, 1.0, 1.25);
  rec.end(root);
  CHECK(std::fabs(rec.total("child") - 0.75) < 1e-12);
  CHECK(rec.snapshot().size() == 3 && rec.snapshot()[1].parent == root);
  CHECK(rec.to_json().find("\"child\"") != std::string::npos);
}

void test_closed_loop(const std::string& socket_path) {
  using namespace emorphic;
  using namespace emorphic::service;
  Logger::set_threshold(LogLevel::kWarn);
  ServerConfig config;
  config.workers = 1;
  config.base_params.rounds = 1;
  config.base_params.rewrite.max_iterations = 1;
  config.base_params.rewrite.max_enodes = 2000;
  config.base_params.sa.iterations = 1;
  config.base_params.sa.moves_per_iteration = 1;
  config.base_params.sa.num_threads = 1;
  config.base_params.verify = false;
  config.unix_socket_path = socket_path;
  SynthServer server(config);
  server.start();

  const std::string adder = write_aiger(make_adder(4));
  std::vector<PlannedRequest> plan(4);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    plan[i].request.id = std::to_string(i);
  }
  plan[0].request.circuit = adder;
  plan[0].request.seed = 3;
  plan[0].request.progress = true;
  plan[1].repeat_of = 0;
  plan[2].request.circuit = adder;
  plan[2].request.seed = 4;
  plan[3].repeat_of = 2;
  const std::vector<RequestRecord> records =
      run_closed_loop(socket_path, plan);
  CHECK(records.size() == plan.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const RequestRecord& r = records[i];
    CHECK(r.error.empty() && r.index == i && r.latency_s > 0.0);
    CHECK(r.terminal.at("type").as_string() == "result");
    CHECK(r.terminal.at("id").as_string() == std::to_string(i));
    // A repeat follows its original's completion: always a result hit.
    CHECK(r.terminal.at("cache_hit").as_bool() == (plan[i].repeat_of >= 0));
  }
  CHECK(!records[0].progress.empty());
  CHECK(records[1].progress.empty());
  CHECK(server.stats().result_cache_hits == 2);

  std::vector<PlannedRequest> bad(2);
  bad[0].repeat_of = 1;  // forward reference
  CHECK(throws([&] { run_closed_loop(socket_path, bad); }));
  server.stop();
}

}  // namespace

int main(int argc, char** argv) {
  test_percentile();
  test_geomean();
  test_metric_names();
  test_spans();
  test_closed_loop(argc > 1 ? argv[1]
                            : "perfbench-selftest-" + std::to_string(getpid()) +
                                  ".sock");
  if (failures > 0) {
    std::fprintf(stderr, "perfbench selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench selftest: ok\n");
  return 0;
}
