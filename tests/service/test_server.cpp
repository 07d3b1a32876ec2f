// SynthServer end-to-end: jobs over real sockets (served QoR equals a
// one-shot run, served circuits are equivalent and keep their names), plus
// the abuse suite — malformed input, mid-flight cancellation, deadline
// expiry, queue-full rejection — all answered with typed errors while the
// server keeps serving, and a drain-on-shutdown check.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "../test_helpers.hpp"
#include "aig/aig_io.hpp"
#include "benchgen/arith.hpp"
#include "benchgen/control.hpp"
#include "cec/cec.hpp"
#include "service/client.hpp"
#include "service/server.hpp"

namespace emorphic::service {
namespace {

FlowParams quick_params() {
  FlowParams params;
  params.rounds = 2;
  params.rewrite.max_iterations = 2;
  params.rewrite.max_enodes = 8000;
  params.rewrite.time_limit_s = 1e9;
  params.sa.num_threads = 2;
  params.sa.iterations = 2;
  params.sa.moves_per_iteration = 2;
  params.verify = false;
  return params;
}

/// A stage that spins politely until a stop signal fires (or a generous
/// cap, so a broken signal path cannot hang the suite). Two of these in a
/// row make cancellation/deadline behavior deterministic to test: stopping
/// during the first skips the second -> FlowResult::cancelled.
class SlowStage : public Stage {
 public:
  const char* name() const override { return "SlowTest"; }
  void run(FlowContext& ctx) const override {
    for (int i = 0; i < 5000; ++i) {
      if (ctx.should_stop()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
};

Pipeline slow_pipeline(const FlowParams&) {
  Pipeline pipeline;
  pipeline.add(std::make_unique<SlowStage>());
  pipeline.add(std::make_unique<SlowStage>());
  return pipeline;
}

/// Server + client over an ephemeral loopback TCP port (no socket files to
/// clean up, works in any sandbox that allows loopback).
struct ServerFixture {
  explicit ServerFixture(unsigned workers = 2, std::size_t queue = 16) {
    config.workers = workers;
    config.queue_capacity = queue;
    config.base_params = quick_params();
    server = std::make_unique<SynthServer>(config);
    server->add_flow("slowtest", slow_pipeline);
    server->start();
  }
  SynthClient connect() {
    return SynthClient::connect_tcp("127.0.0.1", server->tcp_port());
  }
  ServerConfig config;
  std::unique_ptr<SynthServer> server;
};

JobRequest adder_request(const std::string& id, std::uint64_t seed = 1) {
  JobRequest req;
  req.id = id;
  req.circuit = write_aiger(make_adder(6));
  req.seed = seed;
  return req;
}

JobRequest slow_request(const std::string& id) {
  JobRequest req = adder_request(id);
  req.flow = "slowtest";
  return req;
}

TEST(SynthServer, CompletesAJobAndServesRepeatsFromCache) {
  ServerFixture fx;
  SynthClient client = fx.connect();

  JobRequest req = adder_request("job-1");
  req.return_circuit = true;
  Json verdict = client.submit(req);
  ASSERT_EQ(verdict.at("type").as_string(), "accepted");
  Json result = client.await("job-1");
  ASSERT_EQ(result.at("type").as_string(), "result");
  EXPECT_EQ(result.at("stop_reason").as_string(), "none");
  EXPECT_GT(result.at("qor").at("area").as_number(), 0.0);
  EXPECT_FALSE(result.at("cache_hit").as_bool());
  // The optimized circuit comes back as parseable AIGER.
  EXPECT_NO_THROW(read_aiger(result.at("circuit").as_string()));

  // Same circuit, seed, params -> flow-result cache answers.
  JobRequest repeat = adder_request("job-2");
  ASSERT_EQ(client.submit(repeat).at("type").as_string(), "accepted");
  Json cached = client.await("job-2");
  ASSERT_EQ(cached.at("type").as_string(), "result");
  EXPECT_TRUE(cached.at("cache_hit").as_bool());
  EXPECT_EQ(cached.at("qor").at("area").as_number(),
            result.at("qor").at("area").as_number());

  // A different seed is a different flow — no stale cache hit.
  JobRequest reseeded = adder_request("job-3", /*seed=*/9);
  ASSERT_EQ(client.submit(reseeded).at("type").as_string(), "accepted");
  Json fresh = client.await("job-3");
  ASSERT_EQ(fresh.at("type").as_string(), "result");
  EXPECT_FALSE(fresh.at("cache_hit").as_bool());

  EXPECT_EQ(fx.server->stats().result_cache_hits, 1u);
}

TEST(SynthServer, ServedCircuitsAreEquivalentAndMatchOneShotRuns) {
  // Serving through the warm substrate (shared matcher, QoR memo, worker
  // contexts) must not change answers: the served QoR equals a one-shot
  // Pipeline::emorphic run at the same seed, and the served circuit
  // CEC-proves against its input.
  ServerFixture fx;
  SynthClient client = fx.connect();
  const std::pair<const char*, Aig> cases[] = {{"adder8", make_adder(8)},
                                               {"arbiter6", make_arbiter(6)},
                                               {"square6", make_square(6)}};
  for (const auto& [name, aig] : cases) {
    SCOPED_TRACE(name);
    JobRequest req;
    req.id = name;
    req.circuit = write_aiger(aig);
    req.seed = 1;
    req.return_circuit = true;
    ASSERT_EQ(client.submit(req).at("type").as_string(), "accepted");
    Json served = client.await(name);
    ASSERT_EQ(served.at("type").as_string(), "result");

    FlowContext ctx;
    ctx.params = quick_params();
    ctx.input = aig;
    ctx.seed = 1;
    FlowResult local = Pipeline::emorphic(ctx.params).run(ctx);
    const Json& qor = served.at("qor");
    EXPECT_EQ(qor.at("area").as_number(), local.qor.area);
    EXPECT_EQ(qor.at("delay").as_number(), local.qor.delay);
    EXPECT_EQ(qor.at("lev").as_int(), static_cast<std::int64_t>(local.qor.lev));

    Aig output = read_aiger(served.at("circuit").as_string());
    EXPECT_EQ(cec(aig, output).status, CecStatus::kEquivalent);
  }
}

TEST(SynthServer, ReturnsTheClientsSignalNamesAndKeysTheCacheOnThem) {
  ServerFixture fx;
  SynthClient client = fx.connect();
  auto run = [&](const std::string& id, const Aig& aig) {
    JobRequest req;
    req.id = id;
    req.circuit = write_aiger(aig);
    req.return_circuit = true;
    EXPECT_EQ(client.submit(req).at("type").as_string(), "accepted");
    return client.await(id);
  };

  Json alice = run("alice", testing::named_full_adder("alice_"));
  ASSERT_EQ(alice.at("type").as_string(), "result");
  EXPECT_FALSE(alice.at("cache_hit").as_bool());
  Aig alice_out = read_aiger(alice.at("circuit").as_string());
  ASSERT_EQ(alice_out.num_pis(), 3u);
  ASSERT_EQ(alice_out.num_pos(), 2u);
  EXPECT_EQ(alice_out.pi_name(0), "alice_a");
  EXPECT_EQ(alice_out.pi_name(2), "alice_cin");
  EXPECT_EQ(alice_out.po_name(0), "alice_sum");
  EXPECT_EQ(alice_out.po_name(1), "alice_out");

  // Same structure and seed under other names: not the cached answer,
  // which would carry alice's names.
  Json bob = run("bob", testing::named_full_adder("bob_"));
  ASSERT_EQ(bob.at("type").as_string(), "result");
  EXPECT_FALSE(bob.at("cache_hit").as_bool());
  Aig bob_out = read_aiger(bob.at("circuit").as_string());
  ASSERT_EQ(bob_out.num_pos(), 2u);
  EXPECT_EQ(bob_out.pi_name(0), "bob_a");
  EXPECT_EQ(bob_out.po_name(1), "bob_out");
  EXPECT_EQ(bob.at("qor").at("area").as_number(),
            alice.at("qor").at("area").as_number());

  // An exact repeat is still answered from the cache, names included.
  Json again = run("alice-again", testing::named_full_adder("alice_"));
  ASSERT_EQ(again.at("type").as_string(), "result");
  EXPECT_TRUE(again.at("cache_hit").as_bool());
  EXPECT_EQ(read_aiger(again.at("circuit").as_string()).po_name(1),
            "alice_out");
}

TEST(SynthServer, LutmapParamsSelectTheLutBackendWithItsOwnCacheKey) {
  // The lutmap knobs travel the whole protocol path: per-request overrides
  // rebuild the flow around the LUT backend, and the resolved parameters
  // key the cache, so a LUT-mapped job can never alias a cell-mapped job in
  // the warm cache.
  ServerFixture fx;
  SynthClient client = fx.connect();

  // Cell-mapped baseline primes the cache.
  ASSERT_EQ(client.submit(adder_request("cell-1")).at("type").as_string(),
            "accepted");
  Json cell = client.await("cell-1");
  ASSERT_EQ(cell.at("type").as_string(), "result");
  EXPECT_FALSE(cell.at("cache_hit").as_bool());

  // Same circuit + seed through the LUT backend: distinct key, no alias.
  JobRequest lut = adder_request("lut-1");
  lut.params["use_lutmap"] = true;
  lut.params["lut_size"] = 4;
  ASSERT_EQ(client.submit(lut).at("type").as_string(), "accepted");
  Json lut_result = client.await("lut-1");
  ASSERT_EQ(lut_result.at("type").as_string(), "result");
  EXPECT_FALSE(lut_result.at("cache_hit").as_bool());
  // Unit-cost QoR: area is the LUT count, delay the LUT depth.
  EXPECT_GT(lut_result.at("qor").at("area").as_number(), 0.0);
  EXPECT_GT(lut_result.at("qor").at("delay").as_number(), 0.0);

  // An identical lutmap submission is a cache hit.
  JobRequest repeat = adder_request("lut-2");
  repeat.params["use_lutmap"] = true;
  repeat.params["lut_size"] = 4;
  ASSERT_EQ(client.submit(repeat).at("type").as_string(), "accepted");
  Json cached = client.await("lut-2");
  ASSERT_EQ(cached.at("type").as_string(), "result");
  EXPECT_TRUE(cached.at("cache_hit").as_bool());
  EXPECT_EQ(cached.at("qor").at("area").as_number(),
            lut_result.at("qor").at("area").as_number());

  // A different K is again its own cache entry.
  JobRequest other_k = adder_request("lut-3");
  other_k.params["use_lutmap"] = true;
  other_k.params["lut_size"] = 6;
  ASSERT_EQ(client.submit(other_k).at("type").as_string(), "accepted");
  EXPECT_FALSE(client.await("lut-3").at("cache_hit").as_bool());

  EXPECT_EQ(fx.server->stats().result_cache_hits, 1u);
}

TEST(SynthServer, LutmapParamAbuseGetsTypedBadParams) {
  ServerFixture fx;
  SynthClient client = fx.connect();

  // lut_size outside the backend's [2, kMaxCutSize] contract — rejected at
  // submit time, before any flow runs.
  for (int bad : {1, 9}) {
    JobRequest req = adder_request("bad-k-" + std::to_string(bad));
    req.params["use_lutmap"] = true;
    req.params["lut_size"] = bad;
    EXPECT_EQ(client.submit(req).at("code").as_string(), "BAD_PARAMS")
        << "lut_size=" << bad;
  }

  // Ill-typed values die the same way.
  JobRequest bad_bool = adder_request("bad-bool");
  bad_bool.params["use_lutmap"] = "yes";
  EXPECT_EQ(client.submit(bad_bool).at("code").as_string(), "BAD_PARAMS");
  JobRequest bad_num = adder_request("bad-num");
  bad_num.params["lut_size"] = "six";
  EXPECT_EQ(client.submit(bad_num).at("code").as_string(), "BAD_PARAMS");

  // The server still serves real lutmap work afterwards.
  JobRequest ok = adder_request("ok");
  ok.params["use_lutmap"] = true;
  ASSERT_EQ(client.submit(ok).at("type").as_string(), "accepted");
  EXPECT_EQ(client.await("ok").at("type").as_string(), "result");
}

TEST(SynthServer, OutOfRangeCutsAndUnsupportedFlagCombinationsGetBadParams) {
  ServerFixture fx;
  SynthClient client = fx.connect();

  // A cut wider than the widest cell is refused at submit time instead of
  // failing inside the flow after a worker picked the job up.
  JobRequest wide_cut = adder_request("wide-cut");
  wide_cut.params["mapping"] = Json::parse(R"({"cut_size": 5})");
  Json reply = client.submit(wide_cut);
  EXPECT_EQ(reply.at("code").as_string(), "BAD_PARAMS");
  EXPECT_NE(reply.at("message").as_string().find("'mapping.cut_size'"),
            std::string::npos);

  // A flag combination the flow cannot honour is refused, not run with one
  // of the flags silently dropped.
  JobRequest combo = adder_request("combo");
  combo.params["use_choicemap"] = true;
  combo.params["fraig_post"] = true;
  reply = client.submit(combo);
  EXPECT_EQ(reply.at("code").as_string(), "BAD_PARAMS");
  EXPECT_NE(reply.at("message").as_string().find("fraig_post"),
            std::string::npos);

  // The server still serves afterwards.
  ASSERT_EQ(client.submit(adder_request("ok")).at("type").as_string(),
            "accepted");
  EXPECT_EQ(client.await("ok").at("type").as_string(), "result");
}

TEST(SynthServer, StreamsProgressEvents) {
  ServerFixture fx;
  SynthClient client = fx.connect();
  JobRequest req = adder_request("job-1");
  req.progress = true;
  ASSERT_EQ(client.submit(req).at("type").as_string(), "accepted");
  int progress_frames = 0;
  Json result = client.await("job-1", [&](const Json& event) {
    if (event.at("type").as_string() == "progress") ++progress_frames;
  });
  EXPECT_EQ(result.at("type").as_string(), "result");
  // The emorphic pipeline has several stages; each emits begin + end.
  EXPECT_GE(progress_frames, 4);
}

TEST(SynthServer, RejectsMalformedTrafficAndKeepsServing) {
  ServerFixture fx;
  SynthClient client = fx.connect();

  // Not JSON at all.
  client.send(Json("this is not an object"));
  Json error;
  ASSERT_TRUE(client.recv(&error));
  EXPECT_EQ(error.at("type").as_string(), "error");
  EXPECT_EQ(error.at("code").as_string(), "MALFORMED_REQUEST");

  // Unknown message type.
  Json bogus = Json::object();
  bogus["type"] = "frobnicate";
  client.send(bogus);
  ASSERT_TRUE(client.recv(&error));
  EXPECT_EQ(error.at("code").as_string(), "MALFORMED_REQUEST");

  // Truncated AIGER — parse errors become typed rejections, not crashes.
  JobRequest bad_circuit = adder_request("job-bad");
  bad_circuit.circuit = "aag 7 2 0";
  EXPECT_EQ(client.submit(bad_circuit).at("code").as_string(),
            "MALFORMED_CIRCUIT");

  // Unknown params key.
  JobRequest bad_params = adder_request("job-params");
  bad_params.params["warp_factor"] = 9;
  EXPECT_EQ(client.submit(bad_params).at("code").as_string(), "BAD_PARAMS");

  // Unknown flow.
  JobRequest bad_flow = adder_request("job-flow");
  bad_flow.flow = "no-such-flow";
  EXPECT_EQ(client.submit(bad_flow).at("code").as_string(), "UNKNOWN_FLOW");

  // After all that abuse the server still completes real work.
  ASSERT_EQ(client.submit(adder_request("job-ok")).at("type").as_string(),
            "accepted");
  EXPECT_EQ(client.await("job-ok").at("type").as_string(), "result");
  EXPECT_GE(fx.server->stats().rejected_malformed, 5u);
}

TEST(SynthServer, GarbageBytesGetTypedErrorThenDisconnect) {
  ServerFixture fx;
  // Raw socket speaking the wrong protocol entirely.
  Socket raw = Socket::connect_tcp("127.0.0.1", fx.server->tcp_port());
  raw.write_all("GET / HTTP/1.1\r\n\r\n", 18);
  std::string payload;
  // The server answers with one typed error frame, then hangs up.
  EXPECT_TRUE(read_frame(raw, &payload));
  Json error = Json::parse(payload);
  EXPECT_EQ(error.at("code").as_string(), "MALFORMED_REQUEST");
  EXPECT_FALSE(read_frame(raw, &payload));

  // And an untouched client still gets service.
  SynthClient client = fx.connect();
  ASSERT_EQ(client.submit(adder_request("job-1")).at("type").as_string(),
            "accepted");
  EXPECT_EQ(client.await("job-1").at("type").as_string(), "result");
}

TEST(SynthServer, CancelsMidFlight) {
  ServerFixture fx;
  SynthClient client = fx.connect();
  ASSERT_EQ(client.submit(slow_request("job-slow")).at("type").as_string(),
            "accepted");
  // Give the worker a moment to actually start the flow, then cancel.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  client.cancel("job-slow");
  Json terminal = client.await("job-slow");
  ASSERT_EQ(terminal.at("type").as_string(), "cancelled");
  EXPECT_EQ(terminal.at("reason").as_string(), "cancelled");
  EXPECT_EQ(fx.server->stats().jobs_cancelled, 1u);
}

TEST(SynthServer, DeadlineExpiryIsReportedAsDeadline) {
  ServerFixture fx;
  SynthClient client = fx.connect();
  JobRequest req = slow_request("job-deadline");
  req.deadline_s = 0.2;
  ASSERT_EQ(client.submit(req).at("type").as_string(), "accepted");
  Json terminal = client.await("job-deadline");
  ASSERT_EQ(terminal.at("type").as_string(), "cancelled");
  EXPECT_EQ(terminal.at("reason").as_string(), "deadline");
}

TEST(SynthServer, CancelOfUnknownJobIsAcknowledgedNotFatal) {
  ServerFixture fx;
  SynthClient client = fx.connect();
  client.cancel("never-submitted");
  Json ack;
  ASSERT_TRUE(client.recv(&ack));
  EXPECT_EQ(ack.at("type").as_string(), "cancel_ack");
  EXPECT_FALSE(ack.at("found").as_bool());
}

TEST(SynthServer, OverloadRejectsWithTypedErrorAndRecovers) {
  // One worker, queue of one: the third concurrent slow job cannot fit.
  ServerFixture fx(/*workers=*/1, /*queue=*/1);
  SynthClient client = fx.connect();

  ASSERT_EQ(client.submit(slow_request("slow-1")).at("type").as_string(),
            "accepted");
  // Wait until the worker has dequeued slow-1, freeing the queue slot for
  // slow-2 deterministically.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_EQ(client.submit(slow_request("slow-2")).at("type").as_string(),
            "accepted");

  Json verdict = client.submit(slow_request("slow-3"));
  ASSERT_EQ(verdict.at("type").as_string(), "error");
  EXPECT_EQ(verdict.at("code").as_string(), "OVERLOADED");
  EXPECT_GE(fx.server->stats().rejected_overloaded, 1u);

  // Clear the decks: cancel the in-flight jobs...
  client.cancel("slow-1");
  client.cancel("slow-2");
  EXPECT_EQ(client.await("slow-1").at("type").as_string(), "cancelled");
  EXPECT_EQ(client.await("slow-2").at("type").as_string(), "cancelled");

  // ...and the server accepts and completes new work.
  ASSERT_EQ(client.submit(adder_request("job-after")).at("type").as_string(),
            "accepted");
  EXPECT_EQ(client.await("job-after").at("type").as_string(), "result");
}

TEST(SynthServer, DuplicateInFlightIdIsRejected) {
  ServerFixture fx;
  SynthClient client = fx.connect();
  ASSERT_EQ(client.submit(slow_request("dup")).at("type").as_string(),
            "accepted");
  Json verdict = client.submit(slow_request("dup"));
  ASSERT_EQ(verdict.at("type").as_string(), "error");
  EXPECT_EQ(verdict.at("code").as_string(), "MALFORMED_REQUEST");
  client.cancel("dup");
  EXPECT_EQ(client.await("dup").at("type").as_string(), "cancelled");
}

TEST(SynthServer, DisconnectedClientAutoCancelsItsJobs) {
  ServerFixture fx(/*workers=*/1);
  {
    SynthClient client = fx.connect();
    ASSERT_EQ(client.submit(slow_request("orphan")).at("type").as_string(),
              "accepted");
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    // Client vanishes without cancelling.
  }
  // The server notices the dead session and frees the worker; a new client
  // gets served promptly instead of waiting out the slow job's cap.
  SynthClient client = fx.connect();
  ASSERT_EQ(client.submit(adder_request("job-next")).at("type").as_string(),
            "accepted");
  EXPECT_EQ(client.await("job-next").at("type").as_string(), "result");
}

TEST(SynthServer, StopDrainsAcceptedJobs) {
  ServerFixture fx(/*workers=*/1);
  SynthClient client = fx.connect();
  // Three quick jobs stack up behind a single worker.
  for (int i = 1; i <= 3; ++i) {
    ASSERT_EQ(client
                  .submit(adder_request("drain-" + std::to_string(i),
                                        /*seed=*/static_cast<unsigned>(i)))
                  .at("type")
                  .as_string(),
              "accepted");
  }
  // Stop concurrently: every accepted job must still get its response.
  std::thread stopper([&] { fx.server->stop(); });
  for (int i = 1; i <= 3; ++i) {
    EXPECT_EQ(client.await("drain-" + std::to_string(i))
                  .at("type")
                  .as_string(),
              "result");
  }
  stopper.join();
  EXPECT_EQ(fx.server->stats().jobs_completed, 3u);
}

TEST(SynthServer, ShutdownMessageArmsTheWaiter) {
  ServerFixture fx;
  EXPECT_FALSE(fx.server->wait_for_shutdown_request(0.0));
  SynthClient client = fx.connect();
  client.shutdown_server();  // returns once the server acknowledged
  EXPECT_TRUE(fx.server->wait_for_shutdown_request(5.0));
  fx.server->stop();
  EXPECT_FALSE(fx.server->running());
}

TEST(SynthServer, ServesManyConcurrentClients) {
  ServerFixture fx(/*workers=*/4, /*queue=*/64);
  constexpr int kClients = 6;
  std::atomic<int> completed{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      SynthClient client = SynthClient::connect_tcp(
          "127.0.0.1", fx.server->tcp_port());
      std::string id = "client-" + std::to_string(c);
      ASSERT_EQ(client.submit(adder_request(id)).at("type").as_string(),
                "accepted");
      if (client.await(id).at("type").as_string() == "result") {
        completed.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(completed.load(), kClients);
  // All clients asked for the same (circuit, seed, params). Up to `workers`
  // of them can race past the cache before the first one inserts (each
  // computing the same deterministic answer), but with more jobs than
  // workers the overflow jobs are guaranteed to be answered warm.
  EXPECT_GE(fx.server->stats().result_cache_hits, 1u);
}

}  // namespace
}  // namespace emorphic::service
