/// \file alertsim_analyzer.cpp
/// Driver for the alert::analysis_tools static analyzer. Replaces the
/// retired Python alert-lint with a token-aware scanner plus whole-program
/// rules (module layering, include cycles, exhaustive-enum sync).
///
/// Modes:
///   alertsim-analyzer [--root=src] [--format=text|json|sarif]
///       [--output=FILE] [--sarif-out=FILE] [--threads=N]
///       [--disable=rule,rule,...] [--exclude=prefix,prefix,...]
///       [--stats] [--stats-out=FILE]
///   alertsim-analyzer --self-test [--fixtures=DIR] [--parity=FILE]
///   alertsim-analyzer --list-rules
///
/// Exit status: 0 clean, 1 findings (stale waivers included), 2 usage
/// error — the same contract the Python linter had.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint/analyzer.hpp"
#include "util/cli.hpp"

namespace {

namespace lint = alert::analysis_tools;
namespace fs = std::filesystem;

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : s) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(std::move(cur));
      cur.clear();
    } else if (c != ' ') {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

std::string read_file_or_empty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return std::move(ss).str();
}

/// EXPECT annotations of one fixture: `// EXPECT: <rule> <count>`.
std::map<std::string, std::size_t> parse_expects(const lint::FileData& f) {
  std::map<std::string, std::size_t> out;
  for (const alert::analysis_tools::Token& t : f.tokens) {
    if (t.kind != lint::TokenKind::LineComment &&
        t.kind != lint::TokenKind::BlockComment) {
      continue;
    }
    const std::size_t at = t.text.find("EXPECT:");
    if (at == std::string::npos) continue;
    std::istringstream rest(t.text.substr(at + 7));
    std::string rule;
    std::size_t count = 0;
    if (rest >> rule >> count) out[rule] = count;
  }
  return out;
}

/// --stats table: per-rule wall time and finding counts, plain text for
/// the terminal or a Markdown table for the CI job summary.
void write_stats(std::ostream& os,
                 const std::vector<lint::RuleStat>& stats, bool markdown) {
  if (markdown) {
    os << "| rule | wall (ms) | findings |\n|---|---:|---:|\n";
  } else {
    os << "per-rule stats (wall time summed across phases):\n";
  }
  for (const lint::RuleStat& s : stats) {
    char ms[32];
    std::snprintf(ms, sizeof ms, "%.2f",
                  static_cast<double>(s.wall_ns) / 1e6);
    if (markdown) {
      os << "| " << s.id << " | " << ms << " | " << s.findings << " |\n";
    } else {
      os << "  " << s.id << ": " << ms << " ms, " << s.findings
         << " finding(s)\n";
    }
  }
}

std::string render_counts(const std::map<std::string, std::size_t>& m) {
  if (m.empty()) return "clean";
  std::string out;
  for (const auto& [rule, count] : m) {
    if (!out.empty()) out += ", ";
    out += rule + "=" + std::to_string(count);
  }
  return out;
}

/// Fixture self-test: lint the fixture tree, compare each file's finding
/// counts against its EXPECT annotations, then verify exact location-level
/// findings for every rule parity.expected names.
int run_self_test(const std::string& fixtures, const std::string& parity) {
  lint::AnalyzerOptions options;
  options.root = fixtures;
  if (!fs::is_directory(fixtures)) {
    std::cerr << "alertsim-analyzer: fixture dir '" << fixtures
              << "' missing\n";
    return 2;
  }
  const lint::AnalyzeResult result = lint::analyze(options);

  std::map<std::string, std::map<std::string, std::size_t>> found;
  for (const lint::Finding& f : result.report.findings) {
    ++found[f.path][f.rule];
  }
  int failures = 0;
  for (const lint::FileData& f : result.files) {
    const std::map<std::string, std::size_t> expected = parse_expects(f);
    const auto it = found.find(f.rel_path);
    const std::map<std::string, std::size_t> actual =
        it == found.end() ? std::map<std::string, std::size_t>{} : it->second;
    if (expected != actual) {
      ++failures;
      std::cerr << "SELF-TEST FAIL " << f.rel_path << ": expected "
                << render_counts(expected) << ", found "
                << render_counts(actual) << '\n';
    } else {
      std::cerr << "self-test ok    " << f.rel_path << ": "
                << render_counts(expected) << '\n';
    }
  }

  // Location-level pins. parity.expected began as the retired Python
  // linter's findings over these fixtures; each `path:line rule` line pins
  // one finding, and every rule it names must reproduce its lines exactly
  // (the rules that absorbed a linter rule are pinned with all of theirs).
  std::vector<std::string> expected_parity;
  std::set<std::string> pinned_rules;
  {
    std::istringstream in(read_file_or_empty(parity));
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line.front() == '#') continue;
      expected_parity.push_back(line);
      pinned_rules.insert(line.substr(line.rfind(' ') + 1));
    }
  }
  if (expected_parity.empty()) {
    std::cerr << "SELF-TEST FAIL: parity file '" << parity
              << "' missing or empty\n";
    ++failures;
  }
  std::vector<std::string> actual_parity;
  for (const lint::Finding& f : result.report.findings) {
    if (pinned_rules.count(f.rule) != 0) {
      actual_parity.push_back(f.path + ":" + std::to_string(f.line) + " " +
                              f.rule);
    }
  }
  // parity.expected is sorted as strings; normalise both sides the same
  // way before comparing.
  std::sort(expected_parity.begin(), expected_parity.end());
  std::sort(actual_parity.begin(), actual_parity.end());
  if (expected_parity != actual_parity) {
    ++failures;
    std::cerr << "SELF-TEST FAIL: parity mismatch\n";
    for (const std::string& s : expected_parity) {
      std::cerr << "  expected: " << s << '\n';
    }
    for (const std::string& s : actual_parity) {
      std::cerr << "  actual:   " << s << '\n';
    }
  } else if (!expected_parity.empty()) {
    std::cerr << "self-test ok    parity: " << actual_parity.size()
              << " finding(s) match\n";
  }

  if (failures != 0) {
    std::cerr << "alertsim-analyzer self-test: " << failures
              << " check(s) failed\n";
    return 1;
  }
  std::cerr << "alertsim-analyzer self-test: all fixtures passed\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  std::optional<alert::util::CliArgs> args =
      alert::util::CliArgs::parse(argc, argv, &error);
  if (!args) {
    std::cerr << "alertsim-analyzer: " << error << '\n';
    return 2;
  }

  if (args->get("list-rules", false)) {
    for (const lint::RuleInfo& r : lint::rule_catalog({})) {
      std::cout << r.id << " — " << r.description << '\n';
    }
    return 0;
  }

  if (args->get("self-test", false)) {
    const std::string fixtures =
        args->get("fixtures", std::string("tools/lint_fixtures"));
    const std::string parity =
        args->get("parity", fixtures + "/parity.expected");
    return run_self_test(fixtures, parity);
  }

  lint::AnalyzerOptions options;
  options.root = args->get("root", std::string("src"));
  const std::int64_t threads = args->get("threads", std::int64_t{0});
  if (threads < 0) {
    std::cerr << "alertsim-analyzer: --threads must be >= 0\n";
    return 2;
  }
  options.threads = static_cast<std::size_t>(threads);
  options.exclude_paths = split_csv(args->get("exclude", std::string()));
  options.disabled_rules = split_csv(args->get("disable", std::string()));
  if (!options.disabled_rules.empty()) {
    std::set<std::string> known;
    for (const lint::RuleInfo& r : lint::rule_catalog(options.config)) {
      known.insert(r.id);
    }
    for (const std::string& id : options.disabled_rules) {
      if (known.count(id) == 0) {
        std::cerr << "alertsim-analyzer: --disable names unknown rule '" << id
                  << "' (see --list-rules)\n";
        return 2;
      }
    }
  }

  const bool show_stats = args->get("stats", false);
  const std::string stats_out = args->get("stats-out", std::string());
  const std::string format = args->get("format", std::string("text"));
  const std::string output = args->get("output", std::string());
  const std::string sarif_out = args->get("sarif-out", std::string());
  if (format != "text" && format != "json" && format != "sarif") {
    std::cerr << "alertsim-analyzer: unknown --format '" << format << "'\n";
    return 2;
  }
  for (const std::string& key : args->unused()) {
    std::cerr << "alertsim-analyzer: unknown flag --" << key << '\n';
    return 2;
  }
  if (!fs::is_directory(options.root)) {
    std::cerr << "alertsim-analyzer: root '" << options.root
              << "' is not a directory\n";
    return 2;
  }

  const lint::AnalyzeResult result = lint::analyze(options);
  if (show_stats) write_stats(std::cerr, result.rule_stats, false);
  if (!stats_out.empty()) {
    std::ofstream stats_file(stats_out);
    write_stats(stats_file, result.rule_stats, true);
  }

  std::ostream* out = &std::cout;
  std::ofstream file_out;
  if (!output.empty()) {
    file_out.open(output);
    out = &file_out;
  }
  const std::vector<lint::RuleInfo> catalog =
      lint::rule_catalog(options.config);
  if (format == "json") {
    lint::write_json(*out, result.report);
  } else if (format == "sarif") {
    lint::write_sarif(*out, result.report, catalog);
  } else {
    lint::write_text(*out, result.report);
  }
  if (!sarif_out.empty()) {
    std::ofstream sarif_file(sarif_out);
    lint::write_sarif(sarif_file, result.report, catalog);
  }

  return result.report.findings.empty() ? 0 : 1;
}
