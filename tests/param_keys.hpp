#pragma once
// The parameter schema (flow/params_schema.hpp) flattened for the tests:
// every leaf row reachable from FlowParams, under its dotted key.

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "flow/params_schema.hpp"

namespace emorphic::testing {

struct ParamKey {
  std::string key;   // "rounds", "sa.num_threads", ...
  std::string type;  // "boolean", "integer", "number" or "cost model"
  std::uint64_t min, max;
  bool wire;  // accepted on the wire: the row and every enclosing section
};

template <class S>
void collect_param_keys(const std::string& prefix, bool wire,
                        std::vector<ParamKey>& out) {
  for (const ParamRow<S>& row : param_rows<S>()) {
    const std::string key = prefix + std::string(row.key);
    std::visit([&](auto member) {
      using T = std::remove_cvref_t<decltype(std::declval<S&>().*member)>;
      if constexpr (kIsParamSection<T>) {
        collect_param_keys<T>(key + ".", wire && row.wire, out);
      } else {
        const char* type = std::is_same_v<T, bool>        ? "boolean"
                           : std::is_same_v<T, double>    ? "number"
                           : std::is_same_v<T, CostModel> ? "cost model"
                                                          : "integer";
        out.push_back({key, type, row.min, row.max, wire && row.wire});
      }
    }, row.member);
  }
}

inline std::vector<ParamKey> flow_param_keys() {
  std::vector<ParamKey> keys;
  collect_param_keys<FlowParams>("", true, keys);
  return keys;
}

}  // namespace emorphic::testing
