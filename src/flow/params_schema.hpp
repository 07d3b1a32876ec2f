#pragma once
// The parameter schema: one descriptor table per params struct that
// FlowParams nests (params_schema.cpp). A row names a member, its key, the
// range the service admits and whether the service accepts it on the wire;
// a row whose member is itself a params struct is a section, reached on the
// wire as {"<section>": {"<key>": value}}. Derived from the tables alone:
// apply_flow_params, the service's override parser; fingerprint(), which
// folds every row and keys the service's result cache and the EMCK/EMPC
// checkpoints (a row that never changes results costs at most a cache miss
// or a refused resume, both safe); and the key table of docs/service.md,
// pinned by tests/integration/test_params_doc.cpp.

#include <bit>
#include <cstdint>
#include <span>
#include <string_view>
#include <type_traits>
#include <variant>

#include "flow/pipeline.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"

namespace emorphic {

template <class S>
struct ParamRow {
  std::string_view key;
  /// The member; the alternative held is the row's type.
  std::variant<bool S::*, unsigned S::*, unsigned long S::*,
               unsigned long long S::*, double S::*, CostModel S::*,
               SopBalanceParams S::*, MapperParams S::*, RunnerParams S::*,
               SaParams S::*, CecParams S::*, FraigParams S::*,
               ChoiceExportParams S::*>
      member;
  std::uint64_t min = 0, max = 0;  // range admitted on the wire (integers)
  bool wire = false;               // accepted in a service params override
};

template <class S>
using ParamRows = std::span<const ParamRow<S>>;

/// The table of each params struct, in member order.
template <class S> ParamRows<S> param_rows();
template <> ParamRows<FlowParams> param_rows();
template <> ParamRows<SopBalanceParams> param_rows();
template <> ParamRows<MapperParams> param_rows();
template <> ParamRows<RunnerParams> param_rows();
template <> ParamRows<SaParams> param_rows();
template <> ParamRows<CecParams> param_rows();
template <> ParamRows<FraigParams> param_rows();
template <> ParamRows<ChoiceExportParams> param_rows();

/// A member type that is a params struct with a table of its own.
template <class T>
inline constexpr bool kIsParamSection =
    std::is_class_v<T> && !std::is_same_v<T, CostModel>;

/// Fold of every row of a struct that has a table, sections recursively.
/// FlowParams' `library` and `checkpoint_path` are not rows.
template <class S>
std::uint64_t fingerprint(const S& params) {
  std::uint64_t h = 0;
  for (const ParamRow<S>& row : param_rows<S>()) {
    h = hash_fold(h, std::visit([&](auto member) -> std::uint64_t {
      const auto& field = params.*member;
      using T = std::remove_cvref_t<decltype(field)>;
      if constexpr (kIsParamSection<T>) {
        return fingerprint(field);
      } else if constexpr (std::is_same_v<T, CostModel>) {
        return static_cast<std::uint64_t>(field.kind);
      } else if constexpr (std::is_same_v<T, double>) {
        return std::bit_cast<std::uint64_t>(field);
      } else {
        return field;
      }
    }, row.member));
  }
  return h;
}

/// The service's result-cache key of a job: flow name plus resolved params.
inline std::uint64_t fingerprint(const FlowParams& params,
                                 std::string_view flow) {
  return hash_fold(fingerprint(params), flow);
}

/// Apply a service params override onto `params`. The accepted keys are
/// the wire rows. Throws std::invalid_argument naming the key on an unknown
/// key, an ill-typed value or an integer out of its row's range (the
/// server's BAD_PARAMS).
void apply_flow_params(FlowParams* params, const Json& overrides);

}  // namespace emorphic
