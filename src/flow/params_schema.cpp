#include "flow/params_schema.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "aig/cut.hpp"

namespace emorphic {

namespace {

/// Wire integers are counts in [0, 2^32 - 1] unless the row says otherwise.
constexpr std::uint64_t kMaxCount = 4294967295;
/// Every thread unit is a std::thread; the paper runs 4 or 6 SA chains.
constexpr std::uint64_t kMaxThreads = 64;

template <class S, class T>
constexpr ParamRow<S> wire(std::string_view key, T S::*member,
                           std::uint64_t min = 0,
                           std::uint64_t max = kMaxCount) {
  return {key, member, min, max, true};
}

/// A row the service does not accept; it still feeds every fingerprint.
template <class S, class T>
constexpr ParamRow<S> internal(std::string_view key, T S::*member) {
  return {key, member, 0, 0, false};
}

// Leaf names a wire row shares with another struct's row, spelled once.
constexpr std::string_view kVerify = "verify", kCutSize = "cut_size",
                           kNumCuts = "num_cuts", kNumThreads = "num_threads",
                           kTimeLimit = "time_limit_s";

using FP = FlowParams;
constexpr ParamRow<FP> kFlowRows[] = {
    wire("rounds", &FP::rounds),
    wire("area_weight", &FP::area_weight),
    wire(kVerify, &FP::verify),
    wire("fraig_pre", &FP::fraig_pre),
    wire("fraig_post", &FP::fraig_post),
    wire("use_choicemap", &FP::use_choicemap),
    wire("use_lutmap", &FP::use_lutmap),
    wire("lut_size", &FP::lut_size, 2, kMaxCutSize),
    wire("paranoia", &FP::paranoia),
    wire("partition", &FP::partition),
    wire("window_size", &FP::window_size, 1),
    internal("sop_balance", &FP::sop_balance),
    wire("mapping", &FP::mapping),
    wire("rewrite", &FP::rewrite),
    wire("sa", &FP::sa),
    internal("cec_params", &FP::cec_params),
    internal("fraig", &FP::fraig),
    internal("choice_export", &FP::choice_export),
};

constexpr ParamRow<SopBalanceParams> kSopBalanceRows[] = {
    internal(kCutSize, &SopBalanceParams::cut_size),
    internal(kNumCuts, &SopBalanceParams::num_cuts),
};

constexpr ParamRow<MapperParams> kMapperRows[] = {
    wire(kCutSize, &MapperParams::cut_size, 2, kMaxCellPins),
    wire(kNumCuts, &MapperParams::num_cuts),
    wire("area_recovery", &MapperParams::area_recovery),
};

constexpr ParamRow<RunnerParams> kRunnerRows[] = {
    wire("max_iterations", &RunnerParams::max_iterations),
    wire("max_enodes", &RunnerParams::max_enodes),
    wire(kTimeLimit, &RunnerParams::time_limit_s),
    internal("max_matches_per_rule", &RunnerParams::max_matches_per_rule),
    wire("match_threads", &RunnerParams::match_threads, 0, kMaxThreads),
    internal("use_rule_index", &RunnerParams::use_rule_index),
};

constexpr ParamRow<SaParams> kSaRows[] = {
    wire("iterations", &SaParams::iterations),
    wire("moves_per_iteration", &SaParams::moves_per_iteration),
    wire("initial_temperature", &SaParams::initial_temperature),
    internal("p_random", &SaParams::p_random),
    wire(kNumThreads, &SaParams::num_threads, 0, kMaxThreads),
    internal("seed", &SaParams::seed),
    internal("prune", &SaParams::prune),
    internal("proxy_cost", &SaParams::proxy_cost),
};

constexpr ParamRow<CecParams> kCecRows[] = {
    internal("sim_words", &CecParams::sim_words),
    internal("conflict_limit", &CecParams::conflict_limit),
    internal("seed", &CecParams::seed),
    internal(kTimeLimit, &CecParams::time_limit_s),
};

constexpr ParamRow<FraigParams> kFraigRows[] = {
    internal("sim_words", &FraigParams::sim_words),
    internal("sim_rounds", &FraigParams::sim_rounds),
    internal("conflict_limit", &FraigParams::conflict_limit),
    internal("max_class_size", &FraigParams::max_class_size),
    internal(kNumThreads, &FraigParams::num_threads),
    internal("seed", &FraigParams::seed),
    internal("use_simulation", &FraigParams::use_simulation),
};

constexpr ParamRow<ChoiceExportParams> kChoiceExportRows[] = {
    internal("ring_cap", &ChoiceExportParams::ring_cap),
    internal(kVerify, &ChoiceExportParams::verify),
    internal("verify_conflict_limit",
             &ChoiceExportParams::verify_conflict_limit),
};

/// Read the override object `overrides` into the wire rows of `params`;
/// `prefix` is the dotted path of `params` ("" or "<section>.").
template <class S>
void apply_rows(S& params, const Json& overrides, const std::string& prefix) {
  for (const auto& [key, value] : overrides.as_object()) {
    const std::string path = prefix + key;
    auto rows = param_rows<S>();
    auto row = std::ranges::find_if(rows, [&](const ParamRow<S>& r) {
      return r.wire && r.key == key;
    });
    if (row == rows.end()) {
      throw std::invalid_argument("unknown params key '" + path + "'");
    }
    std::visit([&](auto member) {
      auto& field = params.*member;
      using T = std::remove_reference_t<decltype(field)>;
      if constexpr (kIsParamSection<T>) {
        if (!value.is_object()) {
          throw std::invalid_argument("'" + path + "' must be an object");
        }
        apply_rows(field, value, path + ".");
      } else if constexpr (std::is_same_v<T, bool>) {
        field = json_bool(value, path);
      } else if constexpr (std::is_same_v<T, double>) {
        field = json_number(value, path);
      } else if constexpr (std::is_integral_v<T>) {
        field = static_cast<T>(json_integer(value, path, row->min, row->max));
      } else {
        throw std::logic_error("params row '" + path + "' has no wire type");
      }
    }, row->member);
  }
}

}  // namespace

template <> ParamRows<FP> param_rows() { return kFlowRows; }
template <> ParamRows<SopBalanceParams> param_rows() { return kSopBalanceRows; }
template <> ParamRows<MapperParams> param_rows() { return kMapperRows; }
template <> ParamRows<RunnerParams> param_rows() { return kRunnerRows; }
template <> ParamRows<SaParams> param_rows() { return kSaRows; }
template <> ParamRows<CecParams> param_rows() { return kCecRows; }
template <> ParamRows<FraigParams> param_rows() { return kFraigRows; }
template <> ParamRows<ChoiceExportParams> param_rows() {
  return kChoiceExportRows;
}

void apply_flow_params(FlowParams* params, const Json& overrides) {
  if (!overrides.is_object()) {
    throw std::invalid_argument("params override must be a JSON object");
  }
  apply_rows(*params, overrides, "");
}

}  // namespace emorphic
