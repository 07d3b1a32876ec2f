#pragma once
// Wire protocol of the synthesis service (docs/service.md).
//
// Every frame (util/socket.hpp framing) carries one JSON message typed by
// its "type" field. Client -> server: "submit", "cancel", "ping",
// "shutdown". Server -> client: "accepted", "progress", "result",
// "cancelled", "cancel_ack", "error", "pong", "shutting_down".
//
// The server guarantees per-session ordering: a job's "accepted" frame is
// written before any of its "progress"/"result"/"cancelled" frames, so a
// client that reads sequentially never sees a job finish it was not told
// was admitted.

#include <cstdint>
#include <string>

#include "flow/pipeline.hpp"
#include "util/json.hpp"

namespace emorphic::service {

/// Typed rejection/failure codes carried by "error" frames. Stable protocol
/// strings (to_string) — clients dispatch on these, not on messages.
enum class ErrorCode {
  kOverloaded,        // admission queue full; retry later
  kMalformedRequest,  // frame was not a valid protocol message
  kMalformedCircuit,  // circuit text failed to parse
  kBadParams,         // params override rejected (unknown key / bad type)
  kUnknownFlow,       // no registered flow under the requested name
  kShuttingDown,      // server is draining; no new work accepted
  kInternal,          // unexpected server-side failure
};

const char* to_string(ErrorCode code);

/// One synthesis job as submitted by a client.
struct JobRequest {
  /// Client-chosen identifier, unique among the session's in-flight jobs;
  /// echoed on every frame concerning this job.
  std::string id;
  std::string format = "aiger";    // circuit encoding: "aiger" | "eqn"
  std::string circuit;             // the circuit text itself
  std::string flow = "emorphic";   // registered flow name
  /// Per-job seed for stochastic stages (FlowContext::seed; 0 keeps the
  /// pipeline default). At most 2^53, the largest integer a JSON number
  /// carries exactly: to_json throws std::invalid_argument above it.
  std::uint64_t seed = 1;
  /// End-to-end deadline in seconds, *including* queue wait; 0 = none.
  /// Expiry yields a "cancelled" frame with reason "deadline".
  double deadline_s = 0.0;
  /// Ship the optimized network back as AIGER text in the result frame.
  bool return_circuit = false;
  /// Stream per-stage "progress" frames while the job runs.
  bool progress = false;
  /// FlowParams overrides applied on top of the server's base parameters
  /// (see apply_flow_params for the accepted keys).
  Json params = Json::object();

  Json to_json() const;
  /// Parse a "submit" message; throws std::invalid_argument on missing or
  /// ill-typed fields (a seed must be an integer in [0, 2^53]) and on
  /// unknown keys (strict protocol v1).
  static JobRequest from_json(const Json& msg);
};

/// Apply a params-override object onto `params`. Accepted keys:
///   rounds, area_weight, verify, fraig_pre, fraig_post, use_choicemap,
///   use_lutmap, lut_size
///   sa:      {iterations, moves_per_iteration, num_threads,
///             initial_temperature}
///   rewrite: {max_iterations, max_enodes, time_limit_s, match_threads}
///   mapping: {cut_size, num_cuts, area_recovery}
/// Throws std::invalid_argument on an unknown key, an ill-typed value, a
/// count that is not an integer in [0, 2^32 - 1], or an out-of-range
/// lut_size (the LUT backend's [2, kMaxCutSize] contract), naming the
/// offender — the server maps this to ErrorCode::kBadParams.
/// Any accepted key lands in the params fingerprint via the overrides
/// object itself, so e.g. a use_lutmap job can never alias a cell-mapped
/// job in the flow-result cache.
void apply_flow_params(FlowParams* params, const Json& overrides);

/// Fingerprint of everything besides (input, seed) that shapes a job's
/// result: the flow name and the override object's canonical serialization
/// (JsonObject is a std::map, so dump() is deterministic). Feeds
/// WarmCache::flow_key.
std::uint64_t params_fingerprint(const std::string& flow,
                                 const Json& overrides);

// --- frame builders ---------------------------------------------------------

Json make_error(ErrorCode code, const std::string& message,
                const std::string& job_id = "");

}  // namespace emorphic::service
