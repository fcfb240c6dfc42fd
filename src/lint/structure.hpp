#pragma once

/// \file structure.hpp
/// Structural token scanners for the exhaustive-enum rule: switch-statement
/// case collection and enum-class definition parsing.

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "lint/file_data.hpp"

namespace alert::analysis_tools {

struct SwitchInfo {
  std::size_t line = 0;
  std::size_t column = 0;
  bool has_default = false;
  /// case labels as (enum-type name, enumerator name) — the type name is
  /// the qualifier segment right before the last `::`; unqualified labels
  /// (plain `case kFoo:`) carry an empty type name.
  std::vector<std::pair<std::string, std::string>> cases;
};

[[nodiscard]] std::vector<SwitchInfo> collect_switches(const CodeView& v);

/// Parse an enum definition whose `enum` keyword is code token `i`.
/// Returns false for forward declarations and anonymous enums. On success
/// fills the enum's name, its enumerator names (initializers stripped) and
/// the line of the `enum` token.
bool parse_enum_definition(const CodeView& v, std::size_t i,
                           std::string* name,
                           std::vector<std::string>* enumerators,
                           std::size_t* line);

/// "a, b, c" — for diagnostics.
[[nodiscard]] std::string join(const std::vector<std::string>& parts);

}  // namespace alert::analysis_tools
