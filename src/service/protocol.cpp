#include "service/protocol.hpp"

#include <stdexcept>

namespace emorphic::service {

namespace {

[[noreturn]] void bad(const std::string& message) {
  throw std::invalid_argument(message);
}

/// Largest integer a JSON number (an IEEE double) carries exactly: 2^53.
constexpr std::uint64_t kMaxJsonInteger = std::uint64_t{1} << 53;

}  // namespace

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOverloaded: return "OVERLOADED";
    case ErrorCode::kMalformedRequest: return "MALFORMED_REQUEST";
    case ErrorCode::kMalformedCircuit: return "MALFORMED_CIRCUIT";
    case ErrorCode::kBadParams: return "BAD_PARAMS";
    case ErrorCode::kUnknownFlow: return "UNKNOWN_FLOW";
    case ErrorCode::kShuttingDown: return "SHUTTING_DOWN";
    case ErrorCode::kInternal: return "INTERNAL";
  }
  return "INTERNAL";
}

Json JobRequest::to_json() const {
  Json msg = Json::object();
  msg["type"] = "submit";
  msg["id"] = id;
  msg["format"] = format;
  msg["circuit"] = circuit;
  msg["flow"] = flow;
  if (seed > kMaxJsonInteger) {
    bad("seed " + std::to_string(seed) +
        " exceeds 2^53, the largest integer a JSON number carries exactly");
  }
  msg["seed"] = seed;
  msg["deadline_s"] = deadline_s;
  msg["return_circuit"] = return_circuit;
  msg["progress"] = progress;
  msg["params"] = params;
  return msg;
}

JobRequest JobRequest::from_json(const Json& msg) {
  if (!msg.is_object()) bad("submit message must be a JSON object");
  JobRequest req;
  bool saw_id = false, saw_circuit = false;
  for (const auto& [key, value] : msg.as_object()) {
    if (key == "type") {
      if (json_string(value, key) != "submit") bad("not a submit message");
    } else if (key == "id") {
      req.id = json_string(value, key);
      saw_id = true;
    } else if (key == "format") {
      req.format = json_string(value, key);
      if (req.format != "aiger" && req.format != "eqn") {
        bad("field 'format' must be \"aiger\" or \"eqn\"");
      }
    } else if (key == "circuit") {
      req.circuit = json_string(value, key);
      saw_circuit = true;
    } else if (key == "flow") {
      req.flow = json_string(value, key);
    } else if (key == "seed") {
      req.seed = json_integer(value, key, 0, kMaxJsonInteger);
    } else if (key == "deadline_s") {
      req.deadline_s = json_number(value, key);
      if (req.deadline_s < 0) bad("field 'deadline_s' must be non-negative");
    } else if (key == "return_circuit") {
      req.return_circuit = json_bool(value, key);
    } else if (key == "progress") {
      req.progress = json_bool(value, key);
    } else if (key == "params") {
      if (!value.is_object()) bad("field 'params' must be an object");
      req.params = value;
    } else {
      bad("unknown submit field '" + key + "'");
    }
  }
  if (!saw_id || req.id.empty()) bad("field 'id' is required and non-empty");
  if (!saw_circuit || req.circuit.empty()) {
    bad("field 'circuit' is required and non-empty");
  }
  return req;
}

Json make_error(ErrorCode code, const std::string& message,
                const std::string& job_id) {
  Json msg = Json::object();
  msg["type"] = "error";
  msg["code"] = to_string(code);
  msg["message"] = message;
  if (!job_id.empty()) msg["id"] = job_id;
  return msg;
}

}  // namespace emorphic::service
