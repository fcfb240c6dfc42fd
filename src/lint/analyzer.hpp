#pragma once

/// \file analyzer.hpp
/// Scan orchestration: discover sources under a root, lex and run the
/// per-file rules in parallel over util::ThreadPool, run whole-program
/// rules serially, then report unused waivers and assemble a ScanReport.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "lint/file_data.hpp"
#include "lint/output.hpp"
#include "lint/rule.hpp"

namespace alert::analysis_tools {

struct AnalyzerOptions {
  std::string root;  ///< directory to scan (e.g. "src")
  AnalyzerConfig config;
  /// Rel-path prefixes dropped from the scan entirely (e.g. the analyzer's
  /// own deliberately-broken lint_fixtures/ when scanning tools/).
  std::vector<std::string> exclude_paths;
  /// Rule ids switched off for this scan (e.g. raw-stdout over tools/,
  /// whose drivers exist to print). Their waivers are not judged stale.
  /// Unknown ids are the driver's problem — it validates against
  /// rule_catalog before calling.
  std::vector<std::string> disabled_rules;
  std::size_t threads = 0;  ///< 0 = hardware concurrency
};

/// Per-rule cost/yield accounting for --stats: wall time summed across
/// every phase the rule ran in (parallel check_file time is summed over
/// files, so it can exceed the scan's wall clock) and findings counted.
struct RuleStat {
  std::string id;
  std::uint64_t wall_ns = 0;
  std::size_t findings = 0;
};

struct AnalyzeResult {
  ScanReport report;
  /// Lexed inputs, sorted by rel_path (the self-test compares these
  /// against EXPECT annotations).
  std::vector<FileData> files;
  /// Per-rule timing and finding counts, sorted by descending wall time.
  std::vector<RuleStat> rule_stats;
};

/// Sorted forward-slash rel paths of C++ sources under `root`.
[[nodiscard]] std::vector<std::string> discover_sources(
    const std::string& root);

[[nodiscard]] AnalyzeResult analyze(const AnalyzerOptions& options);

/// The full rule catalog (token rules and stale-waiver) — for --list-rules
/// and SARIF metadata.
[[nodiscard]] std::vector<RuleInfo> rule_catalog(const AnalyzerConfig& config);

}  // namespace alert::analysis_tools
