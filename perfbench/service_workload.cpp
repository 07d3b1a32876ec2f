// The service_mix workload: two closed-loop clients against an in-process
// SynthServer (2 workers, 2 SA chains per job, one shared WarmCache).
//
// Each client's request plan is a pure function of the seed and is the same
// in every pass: fresh jobs over a pool of benchgen circuits (each with its
// own request seed, so no two fresh jobs share a cache key), a fixed
// minority with use_choicemap / use_lutmap overrides, and a fixed 25% of
// exact repeats of requests the same client already completed. A repeat is
// therefore always a flow-result cache hit and a fresh job never is, which
// makes the hit count exact; and with 25% hits (~0.5 ms) against 75%
// misses (tens of ms), both p50 and p90 fall inside the miss mode.
//
// Every pass starts a fresh server over a fresh WarmCache (set-up, timed
// apart), so all passes see the same cold-to-warm trajectory.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <thread>

#include "aig/aig_io.hpp"
#include "benchgen/arith.hpp"
#include "benchgen/control.hpp"
#include "service/server.hpp"
#include "util/logger.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace emorphic;
using namespace emorphic::service;

namespace {

constexpr unsigned kClients = 2;
/// Per client and pool circuit: kRunsPerCircuit fresh jobs, the last two
/// with use_choicemap and use_lutmap.
constexpr std::size_t kRunsPerCircuit = 6;
constexpr std::size_t kRepeatsPerClient = 10;  // 25% of the client's 40
constexpr std::size_t kOneShotSample = 6;
constexpr std::uint64_t kRequestSeedBase = 0x5eed;

FlowParams service_params() {
  // Small per-job effort (as bench/micro_service): the workload is about
  // serving, caching and the alternative backends, with jobs of tens of ms.
  FlowParams params;
  params.rounds = 2;
  params.rewrite.max_iterations = 2;
  params.rewrite.max_enodes = 8000;
  params.rewrite.time_limit_s = 1e9;  // unreachable
  params.sa.iterations = 2;
  params.sa.moves_per_iteration = 2;
  params.sa.num_threads = 2;
  params.verify = false;  // the benchmark proves every served circuit itself
  params.cec_params.time_limit_s = 0.0;
  params.cec_params.conflict_limit = 30000;
  return params;
}

struct PoolCircuit {
  std::string name;
  Aig aig;
  std::string aiger;
};

std::vector<PoolCircuit> make_pool() {
  std::vector<PoolCircuit> pool = {
      {"adder6", make_adder(6), {}},     {"adder8", make_adder(8), {}},
      {"arbiter8", make_arbiter(8), {}}, {"square5", make_square(5), {}},
      {"sin5", make_sin(5), {}},
  };
  for (PoolCircuit& c : pool) c.aiger = write_aiger(c.aig);
  return pool;
}

struct ClientPlan {
  std::vector<PlannedRequest> requests;
  std::vector<std::size_t> circuit;  // pool index per entry (repeats: copied)
};

/// Every client sends the same multiset of fresh jobs in every run, so QoR
/// and work per pass do not depend on the seed; the seed orders them and
/// places the repeats. Request seeds stay within 32 bits: the protocol
/// carries numbers as JSON doubles, which round seeds above 2^53 (the
/// served job would then run another seed than the one-shot check).
std::vector<ClientPlan> make_plans(const std::vector<PoolCircuit>& pool,
                                   std::uint64_t seed, bool progress) {
  std::vector<ClientPlan> plans(kClients);
  for (unsigned c = 0; c < kClients; ++c) {
    Rng rng(mix_seed(seed, 0x5e7 + c));
    std::vector<std::pair<std::size_t, std::size_t>> fresh_jobs;  // (k, run)
    for (std::size_t k = 0; k < pool.size(); ++k) {
      for (std::size_t run = 0; run < kRunsPerCircuit; ++run) {
        fresh_jobs.emplace_back(k, run);
      }
    }
    shuffle(fresh_jobs, rng);
    std::vector<char> is_repeat(fresh_jobs.size() + kRepeatsPerClient, 0);
    std::fill_n(is_repeat.begin() + 1, kRepeatsPerClient, 1);
    std::vector<char> tail(is_repeat.begin() + 1, is_repeat.end());
    shuffle(tail, rng);  // slot 0 stays fresh: a repeat needs a predecessor
    std::copy(tail.begin(), tail.end(), is_repeat.begin() + 1);

    ClientPlan& plan = plans[c];
    std::vector<std::int64_t> fresh_slots;
    std::size_t fresh = 0;
    for (std::size_t i = 0; i < is_repeat.size(); ++i) {
      PlannedRequest entry;
      entry.request.id = "c" + std::to_string(c) + "-" + std::to_string(i);
      if (is_repeat[i] != 0) {
        entry.repeat_of = fresh_slots[rng.next_below(fresh_slots.size())];
        plan.circuit.push_back(
            plan.circuit[static_cast<std::size_t>(entry.repeat_of)]);
      } else {
        const auto [k, run] = fresh_jobs[fresh++];
        JobRequest& r = entry.request;
        r.circuit = pool[k].aiger;
        r.seed = (mix_seed(kRequestSeedBase, c * 1000 + k * 10 + run) >> 32) | 1;
        r.return_circuit = true;
        r.progress = progress;
        if (run == kRunsPerCircuit - 2) r.params["use_choicemap"] = true;
        if (run == kRunsPerCircuit - 1) r.params["use_lutmap"] = true;
        fresh_slots.push_back(static_cast<std::int64_t>(i));
        plan.circuit.push_back(k);
      }
      plan.requests.push_back(std::move(entry));
    }
  }
  return plans;
}

/// Everything a pass needs before its first request: the inputs, a fresh
/// WarmCache with its matcher canonized, and a started server. Stops the
/// server when destroyed.
struct Rig {
  std::vector<PoolCircuit> pool;
  std::vector<ClientPlan> plans;
  WarmCache cache;
  std::unique_ptr<SynthServer> server;

  Rig(std::uint64_t seed, bool progress, const std::string& socket_path)
      : pool(make_pool()), plans(make_plans(pool, seed, progress)) {
    cache.matcher_for(cache.library());
    ServerConfig config;
    config.unix_socket_path = socket_path;
    config.workers = 2;
    config.queue_capacity = 16;
    config.base_params = service_params();
    server = std::make_unique<SynthServer>(config, &cache);
    server->start();
  }
  ~Rig() { server->stop(); }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
};

/// One pass: set-up, both clients' plans, the server's counters.
struct PassResult {
  double setup_s = 0.0;
  double pass_s = 0.0;
  std::vector<std::vector<RequestRecord>> records;  // [client]
  ServerStats server;
  WarmCacheStats cache;
};

PassResult run_pass(std::uint64_t seed, bool progress,
                    const std::string& socket_path) {
  PassResult out;
  Timer setup;
  Rig rig(seed, progress, socket_path);
  out.setup_s = setup.seconds();

  out.records.resize(kClients);
  std::vector<std::string> errors(kClients);
  Timer pass;
  {
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        try {
          out.records[c] = run_closed_loop(socket_path, rig.plans[c].requests);
        } catch (const std::exception& e) {
          errors[c] = e.what();
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  out.pass_s = pass.seconds();
  out.server = rig.server->stats();
  out.cache = rig.cache.stats();
  for (const std::string& e : errors) {
    if (!e.empty()) throw std::runtime_error("client failed: " + e);
  }
  return out;
}

bool same_result(const Json& a, const Json& b) {
  const Json& qa = a.at("qor");
  const Json& qb = b.at("qor");
  return qa.at("area").as_number() == qb.at("area").as_number() &&
         qa.at("delay").as_number() == qb.at("delay").as_number() &&
         qa.at("lev").as_int() == qb.at("lev").as_int() &&
         a.at("circuit").as_string() == b.at("circuit").as_string();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Stage names as the service reports them, mapped to metric stems.
const std::map<std::string, std::string>& stage_metric() {
  static const std::map<std::string, std::string> names = {
      {"ResynRounds", "resyn"},     {"EgraphConversion", "conversion"},
      {"Rewrite", "rewrite"},       {"SaExtract", "sa"},
      {"TechMap", "techmap"},       {"choicemap", "choicemap"},
      {"lutmap", "lutmap"},
  };
  return names;
}

}  // namespace

Outcome run_service_workload(const RunConfig& config) {
  Outcome outcome;
  outcome.metrics = config.trace ? zeroed(per_layer_specs())
                                 : zeroed(end_to_end_specs());
  Logger::set_threshold(LogLevel::kWarn);  // the server logs each start at info
  const std::vector<PoolCircuit> pool = make_pool();
  const std::vector<ClientPlan> plans = make_plans(pool, config.seed, false);

  SpanRecorder recorder;
  std::vector<double> setup_samples, untraced_pass, traced_pass, latencies;
  std::vector<double> queue_wait, run_ms, wire_ms;
  std::map<std::string, std::pair<double, std::size_t>> stage_totals;
  std::uint64_t completed = 0, hits = 0, overloaded = 0, memo_hits = 0,
                memo_lookups = 0;
  std::vector<std::vector<RequestRecord>> reference;  // pass 0, per client

  for (int rep = 0; rep < kSetupReps; ++rep) {
    Timer setup;
    Rig rig(config.seed, false, config.socket_path);
    setup_samples.push_back(setup.seconds());
  }

  Timer run_clock;
  std::size_t pass = 0;
  // Traced runs follow the warm-up pass with alternating untraced and
  // traced passes: the difference of their medians is the tracing overhead.
  const std::size_t min_passes = config.trace ? 2 * kMinPasses - 1 : kMinPasses;
  while (pass < min_passes || run_clock.seconds() < config.seconds) {
    const bool warmup = pass == 0;
    const bool traced = config.trace && !warmup && pass % 2 == 0;
    PassResult result;
    try {
      result = run_pass(config.seed, traced, config.socket_path);
    } catch (const std::exception& e) {
      outcome.fail_operation(e.what());
      return outcome;
    }
    setup_samples.push_back(result.setup_s);
    if (!warmup) (traced ? traced_pass : untraced_pass).push_back(result.pass_s);
    completed += result.server.jobs_completed;
    hits += result.server.result_cache_hits;
    overloaded += result.server.rejected_overloaded;
    memo_hits += result.cache.qor_hits;
    memo_lookups += result.cache.qor_hits + result.cache.qor_misses;

    for (unsigned c = 0; c < kClients; ++c) {
      const std::vector<PlannedRequest>& plan = plans[c].requests;
      const std::vector<RequestRecord>& records = result.records[c];
      outcome.attempted += plan.size();
      if (records.size() != plan.size()) {
        outcome.fail_operation("client " + std::to_string(c) + " completed " +
                                   std::to_string(records.size()) + " of " +
                                   std::to_string(plan.size()) + " requests",
                               plan.size() - records.size());
      }
      for (const RequestRecord& r : records) {
        const std::string& id = plan[r.index].request.id;
        if (!r.error.empty() || r.terminal.at("type").as_string() != "result") {
          outcome.fail_operation(id + ": " + (r.error.empty()
                                                  ? r.terminal.dump()
                                                  : r.error));
          continue;
        }
        if (r.terminal.at("stop_reason").as_string() !=
            to_string(FlowStopReason::kNone)) {
          outcome.fail_operation(id + ": stopped early");
        }
        const bool hit = r.terminal.at("cache_hit").as_bool();
        if (hit != (plan[r.index].repeat_of >= 0)) {
          outcome.mismatch(id + ": cache_hit does not match the plan");
        }
        if (!traced && !warmup) latencies.push_back(r.latency_s);
        const double wall = r.terminal.at("wall_s").as_number();
        if (!warmup) wire_ms.push_back((r.latency_s - wall) * 1e3);
        if (traced) {
          const std::uint64_t group = pass * 1000 + c * 100 + r.index;
          const double end = recorder.now();
          const std::int64_t span = recorder.add(
              "request", SpanRecorder::kNoParent, group, end - r.latency_s, end);
          double run = 0.0;
          for (const Json& p : r.progress) {
            if (p.at("event").as_string() != "end") continue;
            const double s = p.contains("seconds") ? p.at("seconds").as_number()
                                                   : 0.0;
            const std::string& stage = p.at("stage").as_string();
            run += s;
            recorder.add("service.stage." + stage, span, group, end - s, end);
            auto& total = stage_totals[stage];
            total.first += s;
            total.second += 1;
          }
          if (!hit) {
            run_ms.push_back(run * 1e3);
            queue_wait.push_back((wall - run) * 1e3);
          }
        }
      }
    }
    if (pass == 0) {
      reference = std::move(result.records);
    } else {
      for (unsigned c = 0; c < kClients; ++c) {
        const auto& now = result.records[c];
        for (std::size_t i = 0; i < now.size() && i < reference[c].size(); ++i) {
          if (now[i].error.empty() && reference[c][i].error.empty() &&
              now[i].terminal.contains("qor") &&
              reference[c][i].terminal.contains("qor") &&
              !same_result(now[i].terminal, reference[c][i].terminal)) {
            outcome.mismatch(plans[c].requests[i].request.id + ": pass " +
                             std::to_string(pass) + " differs from pass 0");
          }
        }
      }
    }
    ++pass;
    if (pass == kMinPasses) outcome.peak_rss_mib = peak_rss_mib();
  }

  // --- output checks on pass 0 (untimed) -------------------------------------
  // Every circuit served on a miss is proven against its input; a hit must
  // return exactly what the repeated request returned.
  std::size_t proven = 0, served = 0;
  std::uint64_t conflicts = 0;
  double cec_seconds = 0.0;
  std::size_t undecided = 0;
  std::vector<double> areas, delays, ands_ratios;
  const CecParams cec_params = service_params().cec_params;
  for (unsigned c = 0; c < kClients; ++c) {
    std::vector<bool> proven_at(plans[c].requests.size(), false);
    for (const RequestRecord& r : reference[c]) {
      if (!r.error.empty() || r.terminal.at("type").as_string() != "result") continue;
      ++served;
      const PlannedRequest& entry = plans[c].requests[r.index];
      const PoolCircuit& input = pool[plans[c].circuit[r.index]];
      if (entry.repeat_of >= 0) {
        const auto k = static_cast<std::size_t>(entry.repeat_of);
        const RequestRecord& original = reference[c][k];
        const bool same = original.error.empty() &&
                          original.terminal.contains("qor") &&
                          same_result(r.terminal, original.terminal);
        if (!same) outcome.fail_operation(entry.request.id + ": hit differs from its miss");
        proven_at[r.index] = same && proven_at[k];
      } else {
        // QoR metrics over fresh jobs only: the same multiset in every run.
        const Aig output = read_aiger(r.terminal.at("circuit").as_string());
        ands_ratios.push_back(ratio(output.num_ands(), input.aig.num_ands()));
        if (!entry.request.params.contains("use_lutmap")) {
          areas.push_back(r.terminal.at("qor").at("area").as_number());
          delays.push_back(r.terminal.at("qor").at("delay").as_number());
        }
        CecResult check = cec(input.aig, output, cec_params);
        conflicts += check.sat_conflicts;
        cec_seconds += check.seconds;
        if (check.status == CecStatus::kNotEquivalent) {
          outcome.fail_operation(entry.request.id + ": served circuit refuted");
        }
        undecided += check.status == CecStatus::kUndecided ? 1 : 0;
        proven_at[r.index] = check.status == CecStatus::kEquivalent;
      }
      proven += proven_at[r.index] ? 1 : 0;
    }
  }

  // Served QoR must equal a one-shot Pipeline run with the same parameters
  // and seed, on a seeded sample of fresh requests.
  {
    Rng rng(mix_seed(config.seed, 0x0a5));
    std::vector<std::pair<unsigned, std::size_t>> fresh;
    for (unsigned c = 0; c < kClients; ++c) {
      for (std::size_t i = 0; i < plans[c].requests.size(); ++i) {
        if (plans[c].requests[i].repeat_of < 0) fresh.emplace_back(c, i);
      }
    }
    shuffle(fresh, rng);
    fresh.resize(std::min(fresh.size(), kOneShotSample));
    for (const auto& [c, i] : fresh) {
      const PlannedRequest& entry = plans[c].requests[i];
      if (i >= reference[c].size() ||
          !reference[c][i].terminal.contains("qor")) {
        continue;  // already counted as failed
      }
      FlowContext ctx;
      ctx.params = service_params();
      apply_flow_params(&ctx.params, entry.request.params);
      ctx.input = pool[plans[c].circuit[i]].aig;
      ctx.seed = entry.request.seed;
      FlowResult local = Pipeline::emorphic(ctx.params).run(ctx);
      const Json& q = reference[c][i].terminal.at("qor");
      if (q.at("area").as_number() != local.qor.area ||
          q.at("delay").as_number() != local.qor.delay ||
          static_cast<std::uint32_t>(q.at("lev").as_int()) != local.qor.lev) {
        outcome.fail_operation(entry.request.id + ": served QoR " + q.dump() +
                               " differs from one-shot area " +
                               std::to_string(local.qor.area) + " delay " +
                               std::to_string(local.qor.delay) + " lev " +
                               std::to_string(local.qor.lev) + " for params " +
                               entry.request.params.dump() + " circuit " +
                               pool[plans[c].circuit[i]].name + " seed " +
                               std::to_string(entry.request.seed));
      }
    }
  }

  const std::size_t per_pass = plans[0].requests.size() * kClients;
  std::fprintf(stderr,
               "[service_mix] %zu passes x %zu requests, %zu/%zu served circuits "
               "proven\n",
               pass, per_pass, proven, served);

  MetricSet& m = outcome.metrics;
  if (!config.trace) {
    const double flow_s = median(untraced_pass);
    const Percentile p50 = percentile(latencies, 50);
    const Percentile p90 = percentile(latencies, 90);
    std::fprintf(stderr, "[service_mix] latency samples %zu, beyond p90: %zu\n",
                 p90.samples, p90.beyond);
    m.set("setup_s", median(setup_samples), "s");
    m.set("flow_s", flow_s, "s");
    m.set("area_um2", geomean(areas), "um2");
    m.set("delay_ps", geomean(delays), "ps");
    m.set("ands_ratio", geomean(ands_ratios), "ratio");
    m.set("verified_share", ratio(proven, per_pass), "ratio");
    m.set("req_per_s", ratio(per_pass, flow_s), "1/s");
    m.set("req_p50_ms", p50.value * 1e3, "ms");
    m.set("req_p90_ms", p90.value * 1e3, "ms");
    return outcome;
  }

  m.set("trace.overhead_s", median(traced_pass) - median(untraced_pass), "s");
  m.set("service.queue_wait_ms", median(queue_wait), "ms");
  m.set("service.run_ms", median(run_ms), "ms");
  m.set("service.wire_ms", median(wire_ms), "ms");
  m.set("service.result_hit_ratio", ratio(hits, completed), "ratio");
  m.set("service.qor_memo_hit_ratio", ratio(memo_hits, memo_lookups), "ratio");
  m.set("service.overloaded", static_cast<double>(overloaded), "count");
  for (const auto& [stage, stem] : stage_metric()) {
    auto it = stage_totals.find(stage);
    if (it != stage_totals.end()) {
      m.set("service.stage." + stem + "_ms",
            ratio(it->second.first * 1e3, it->second.second), "ms");
    }
  }
  m.set("cec.sat_conflicts", static_cast<double>(conflicts), "count");
  m.set("cec.conflicts_per_s", ratio(conflicts, cec_seconds), "1/s");
  m.set("cec.undecided", static_cast<double>(undecided), "count");
  if (!config.trace_path.empty()) {
    std::ofstream file(config.trace_path);
    file << recorder.to_json();
  }
  return outcome;
}

}  // namespace perfbench
