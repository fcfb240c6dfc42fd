#include "lint/analyzer.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <utility>

#include "lint/callgraph.hpp"
#include "lint/index.hpp"
#include "lint/rules.hpp"
#include "obs/profile.hpp"
#include "util/thread_pool.hpp"

namespace alert::analysis_tools {

namespace fs = std::filesystem;

namespace {

bool is_cxx_source(const fs::path& p) {
  static const std::set<std::string> kExts{".cpp", ".cc", ".cxx",
                                           ".hpp", ".hh", ".h"};
  return kExts.count(p.extension().string()) != 0;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return std::move(ss).str();
}

}  // namespace

std::vector<std::string> discover_sources(const std::string& root) {
  std::vector<std::string> out;
  const fs::path base(root);
  std::error_code ec;
  for (fs::recursive_directory_iterator it(base, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file() || !is_cxx_source(it->path())) continue;
    out.push_back(it->path().lexically_relative(base).generic_string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<RuleInfo> rule_catalog(const AnalyzerConfig& config) {
  std::vector<RuleInfo> out;
  for (const auto& rule : make_default_rules(config)) {
    out.push_back(rule->info());
  }
  out.push_back(stale_waiver_rule());
  std::sort(out.begin(), out.end(),
            [](const RuleInfo& a, const RuleInfo& b) { return a.id < b.id; });
  return out;
}

AnalyzeResult analyze(const AnalyzerOptions& options) {
  AnalyzeResult result;
  std::vector<std::string> paths = discover_sources(options.root);
  if (!options.exclude_paths.empty()) {
    std::erase_if(paths, [&](const std::string& p) {
      return AnalyzerConfig::path_in(p, options.exclude_paths);
    });
  }

  // Lex and index everything in parallel; rules keep no per-file state, so
  // their check_file passes run concurrently too (Sink is the only shared
  // object and it locks internally). The per-file index slices feed the
  // whole-program ProgramIndex/CallGraph, built once and shared by every
  // rule's finish_program pass.
  std::vector<std::unique_ptr<Rule>> rules = make_default_rules(options.config);
  std::set<std::string> off(options.disabled_rules.begin(),
                            options.disabled_rules.end());
  std::erase_if(rules, [&](const std::unique_ptr<Rule>& r) {
    return off.count(r->info().id) != 0;
  });
  Sink sink;
  result.files.resize(paths.size());
  std::vector<FileIndex> slices(paths.size());
  // Per-rule wall time, accumulated across phases (atomically in the
  // parallel phase — every worker adds its own check_file time).
  std::vector<std::atomic<std::uint64_t>> rule_ns(rules.size());
  {
    util::ThreadPool pool(options.threads);
    pool.parallel_for(paths.size(), [&](std::size_t i) {
      const fs::path full = fs::path(options.root) / paths[i];
      // Disjoint by construction: task i owns slot i of the pre-sized
      // vectors, so the resize above and these writes never race.
      result.files[i] =  // alert-lint: allow(lock-discipline)
          build_file_data(paths[i], read_file(full));
      slices[i] =
          index_file(result.files[i], options.config.worker_entry_points);
      for (std::size_t ri = 0; ri < rules.size(); ++ri) {
        const std::uint64_t t0 = obs::monotonic_ns();
        rules[ri]->check_file(result.files[i], sink);
        rule_ns[ri].fetch_add(obs::monotonic_ns() - t0,
                              std::memory_order_relaxed);
      }
    });
  }
  for (std::size_t r = 0; r < rules.size(); ++r) {
    const std::uint64_t t0 = obs::monotonic_ns();
    rules[r]->finish(result.files, sink);
    rule_ns[r].fetch_add(obs::monotonic_ns() - t0,
                         std::memory_order_relaxed);
  }
  {
    const ProgramIndex index(result.files, std::move(slices));
    const CallGraph graph(index, &options.config);
    for (std::size_t r = 0; r < rules.size(); ++r) {
      const std::uint64_t t0 = obs::monotonic_ns();
      rules[r]->finish_program(index, graph, sink);
      rule_ns[r].fetch_add(obs::monotonic_ns() - t0,
                           std::memory_order_relaxed);
    }
  }

  // Every waiver must suppress something. Waivers for rules this scan
  // switched off had no chance to, so they are not judged.
  if (off.count(stale_waiver_rule().id) == 0) {
    sink.flag_stale_waivers(result.files, off);
  }

  std::vector<Finding> findings = sink.take();
  result.report.files_scanned = paths.size();
  result.report.waived = sink.waived_count();

  // --stats accounting, sorted by wall time so the expensive rules lead.
  {
    std::map<std::string, std::size_t> findings_by_rule;
    for (const Finding& f : findings) ++findings_by_rule[f.rule];
    for (std::size_t r = 0; r < rules.size(); ++r) {
      RuleStat stat;
      stat.id = rules[r]->info().id;
      stat.wall_ns = rule_ns[r].load(std::memory_order_relaxed);
      stat.findings = findings_by_rule[stat.id];
      result.rule_stats.push_back(std::move(stat));
    }
    const std::string& stale = stale_waiver_rule().id;
    if (findings_by_rule.count(stale) != 0) {
      result.rule_stats.push_back({stale, 0, findings_by_rule[stale]});
    }
    std::sort(result.rule_stats.begin(), result.rule_stats.end(),
              [](const RuleStat& a, const RuleStat& b) {
                return a.wall_ns != b.wall_ns ? a.wall_ns > b.wall_ns
                                              : a.id < b.id;
              });
  }

  result.report.findings = std::move(findings);
  return result;
}

}  // namespace alert::analysis_tools
