#pragma once

/// \file finding.hpp
/// Machine-readable analyzer findings. A Finding is one rule violation at
/// one source location. Every finding is an error: any finding fails the
/// scan's exit status (and CI).

#include <cstddef>
#include <string>
#include <tuple>

namespace alert::analysis_tools {

struct Finding {
  std::string rule;
  std::string path;  ///< forward-slash path relative to the scan root
  std::size_t line = 0;
  std::size_t column = 0;
  std::string message;

  /// Ordering keys column last and equality ignores it: a pattern hitting
  /// twice on one line is one finding (the retired regex linter reported at
  /// most one hit per line per pattern; dedup preserves that contract).
  [[nodiscard]] friend bool operator<(const Finding& a, const Finding& b) {
    return std::tie(a.path, a.line, a.rule, a.message, a.column) <
           std::tie(b.path, b.line, b.rule, b.message, b.column);
  }
  [[nodiscard]] friend bool operator==(const Finding& a, const Finding& b) {
    return std::tie(a.path, a.line, a.rule, a.message) ==
           std::tie(b.path, b.line, b.rule, b.message);
  }
};

}  // namespace alert::analysis_tools
