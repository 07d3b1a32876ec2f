// The parameter schema (flow/params_schema.hpp): every row reaches its
// struct's fingerprint, and every wire row admits exactly its range.

#include "flow/params_schema.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <type_traits>

#include "../param_keys.hpp"

namespace emorphic {
namespace {

/// Change a value so that it differs from what it was; a section changes
/// in its first row.
template <class T>
void change(T& value) {
  if constexpr (kIsParamSection<T>) {
    std::visit([&](auto member) { change(value.*member); },
               param_rows<T>()[0].member);
  } else if constexpr (std::is_same_v<T, bool>) {
    value = !value;
  } else if constexpr (std::is_same_v<T, CostModel>) {
    value.kind =
        value.kind == CostKind::kSize ? CostKind::kDepth : CostKind::kSize;
  } else {
    value = value + 1;
  }
}

/// Every row of S changes fingerprint(S) and, where FlowParams nests S
/// under `section`, fingerprint(FlowParams).
template <class S>
void expect_every_row_fingerprinted(S FlowParams::*section = nullptr) {
  ASSERT_FALSE(param_rows<S>().empty());
  for (const ParamRow<S>& row : param_rows<S>()) {
    S changed{};
    std::visit([&](auto member) { change(changed.*member); }, row.member);
    EXPECT_NE(fingerprint(changed), fingerprint(S{})) << row.key;
    if (section != nullptr) {
      FlowParams flow;
      flow.*section = changed;
      EXPECT_NE(fingerprint(flow), fingerprint(FlowParams{})) << row.key;
    }
  }
}

TEST(ParamsSchema, EveryRowChangesItsStructsFingerprint) {
  expect_every_row_fingerprinted<FlowParams>();
  expect_every_row_fingerprinted(&FlowParams::sop_balance);
  expect_every_row_fingerprinted(&FlowParams::mapping);
  expect_every_row_fingerprinted(&FlowParams::rewrite);
  expect_every_row_fingerprinted(&FlowParams::sa);
  expect_every_row_fingerprinted(&FlowParams::cec_params);
  expect_every_row_fingerprinted(&FlowParams::fraig);
  expect_every_row_fingerprinted(&FlowParams::choice_export);
}

/// The override object that sets dotted `key` to `value`.
Json override_for(const std::string& key, Json value) {
  Json overrides = Json::object();
  std::size_t dot = key.find('.');
  if (dot == std::string::npos) {
    overrides[key] = std::move(value);
  } else {
    Json nested = Json::object();
    nested[key.substr(dot + 1)] = std::move(value);
    overrides[key.substr(0, dot)] = std::move(nested);
  }
  return overrides;
}

/// The error apply_flow_params throws for `overrides`, or "" if it accepts.
std::string rejection(const Json& overrides) {
  FlowParams params;
  try {
    apply_flow_params(&params, overrides);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ParamsSchema, WireRowsAdmitExactlyTheirRange) {
  int wire_rows = 0;
  for (const testing::ParamKey& row : testing::flow_param_keys()) {
    if (!row.wire) continue;
    ++wire_rows;
    const std::string named = "'" + row.key + "'";
    EXPECT_NE(rejection(override_for(row.key, "text")).find(named),
              std::string::npos)
        << row.key;
    if (row.type != "integer") continue;
    EXPECT_EQ(rejection(override_for(row.key, row.min)), "") << row.key;
    EXPECT_EQ(rejection(override_for(row.key, row.max)), "") << row.key;
    EXPECT_NE(rejection(override_for(row.key, row.max + 1)).find(named),
              std::string::npos)
        << row.key;
    if (row.min > 0) {
      EXPECT_NE(rejection(override_for(row.key, row.min - 1)).find(named),
                std::string::npos)
          << row.key;
    }
  }
  EXPECT_EQ(wire_rows, 22);
}

TEST(ParamsSchema, InternalRowsAndSectionsAreNotOnTheWire) {
  EXPECT_NE(rejection(override_for("sa.seed", 3)).find("'sa.seed'"),
            std::string::npos);
  // A section without wire rows is an unknown key as a whole.
  EXPECT_NE(rejection(override_for("fraig", Json::object())).find("'fraig'"),
            std::string::npos);
}

}  // namespace
}  // namespace emorphic
