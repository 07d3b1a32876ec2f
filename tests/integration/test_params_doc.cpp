// docs/service.md tabulates the keys a "params" override accepts; this test
// pins that table to the wire rows of the parameter schema
// (flow/params_schema.hpp) in both directions, so the page cannot drift:
// every wire row must have a table row with its type and range, and every
// table row must name a wire row. Rows are the `| `key` | ... |` lines of
// the "`params` overrides" section.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "../param_keys.hpp"

namespace emorphic {
namespace {

std::string service_doc_path() {
  return std::string(EMORPHIC_SOURCE_DIR) + "/docs/service.md";
}

/// "type | range" as the doc table spells it for a schema row.
std::string doc_cells(const testing::ParamKey& row) {
  if (row.type == "boolean") return "boolean | true or false";
  if (row.type == "number") return "number | any";
  return row.type + " | [" + std::to_string(row.min) + ", " +
         std::to_string(row.max) + "]";
}

/// key -> "type | range" for each table row of the params section.
std::map<std::string, std::string> documented_keys(const std::string& text) {
  std::map<std::string, std::string> rows;
  std::istringstream lines(text);
  std::string line;
  bool in_section = false;
  while (std::getline(lines, line)) {
    if (line.rfind("#", 0) == 0) {
      in_section = line.find("`params` overrides") != std::string::npos;
      continue;
    }
    // A data row looks like: | `sa.num_threads` | integer | [0, 64] |
    if (!in_section || line.rfind("| `", 0) != 0) continue;
    std::size_t key_end = line.find('`', 3);
    std::size_t cells = line.find("| ", key_end);
    if (key_end == std::string::npos || cells == std::string::npos) continue;
    std::string rest = line.substr(cells + 2);
    while (!rest.empty() && (rest.back() == '|' || rest.back() == ' ')) {
      rest.pop_back();
    }
    rows[line.substr(3, key_end - 3)] = rest;
  }
  return rows;
}

TEST(ParamsDoc, TableMatchesTheSchemaWireRows) {
  std::ifstream file(service_doc_path());
  ASSERT_TRUE(file.good()) << "docs/service.md not found at "
                           << service_doc_path();
  std::stringstream buffer;
  buffer << file.rdbuf();
  std::map<std::string, std::string> documented =
      documented_keys(buffer.str());
  ASSERT_FALSE(documented.empty())
      << "no `| `key` |` rows in the params section of docs/service.md";

  std::map<std::string, std::string> wire;
  for (const testing::ParamKey& row : testing::flow_param_keys()) {
    if (row.wire) wire[row.key] = doc_cells(row);
  }
  for (const auto& [key, cells] : wire) {
    auto it = documented.find(key);
    if (it == documented.end()) {
      ADD_FAILURE() << "wire key '" << key
                    << "' has no row in docs/service.md — document it";
    } else {
      EXPECT_EQ(it->second, cells) << "docs/service.md row for '" << key
                                   << "' disagrees with the schema";
    }
  }
  for (const auto& [key, cells] : documented) {
    EXPECT_TRUE(wire.count(key) != 0)
        << "docs/service.md documents params key '" << key
        << "', which is not a wire row of the schema — remove or fix it";
  }
}

}  // namespace
}  // namespace emorphic
