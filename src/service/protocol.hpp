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

#include "flow/params_schema.hpp"
#include "util/json.hpp"

namespace emorphic::service {

/// Typed rejection/failure codes carried by "error" frames. Stable protocol
/// strings (to_string) — clients dispatch on these, not on messages.
enum class ErrorCode {
  kOverloaded,        // admission queue full; retry later
  kMalformedRequest,  // frame was not a valid protocol message
  kMalformedCircuit,  // circuit text failed to parse
  kBadParams,         // params override or flag combination rejected
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
  /// by apply_flow_params; the accepted keys are the wire rows of
  /// flow/params_schema.cpp, tabulated in docs/service.md.
  Json params = Json::object();

  Json to_json() const;
  /// Parse a "submit" message; throws std::invalid_argument on missing or
  /// ill-typed fields (a seed must be an integer in [0, 2^53]) and on
  /// unknown keys (strict protocol v1).
  static JobRequest from_json(const Json& msg);
};

// --- frame builders ---------------------------------------------------------

Json make_error(ErrorCode code, const std::string& message,
                const std::string& job_id = "");

}  // namespace emorphic::service
