#pragma once

/// \file output.hpp
/// Report rendering: human text (compiler-style, clickable in editors),
/// machine JSON, and SARIF 2.1.0 for code-scanning UIs. All three render
/// the same ScanReport, so every consumer sees identical findings. Every
/// finding is written with level `error`.

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "lint/finding.hpp"
#include "lint/rule.hpp"

namespace alert::analysis_tools {

struct ScanReport {
  std::vector<Finding> findings;  ///< post-waiver, sorted
  std::size_t files_scanned = 0;
  std::size_t waived = 0;  ///< suppressed by inline waivers

  /// Findings that are unused waivers (rule stale-waiver).
  [[nodiscard]] std::size_t stale_waivers() const {
    std::size_t n = 0;
    for (const Finding& f : findings) n += f.rule == stale_waiver_rule().id;
    return n;
  }
};

void write_text(std::ostream& out, const ScanReport& report);
void write_json(std::ostream& out, const ScanReport& report);

/// SARIF 2.1.0: one run, one driver, the full rule catalog, results with
/// physical locations uriBaseId'd to the scan root.
void write_sarif(std::ostream& out, const ScanReport& report,
                 const std::vector<RuleInfo>& rules);

}  // namespace alert::analysis_tools
