#pragma once

/// \file rule.hpp
/// The rule-registry framework. A Rule inspects one file at a time
/// (`check_file`, run in parallel across files) and/or the whole scanned
/// tree (`finish`, run serially afterwards — include-graph and cross-file
/// declaration-sync rules need every file). Findings flow through a Sink,
/// which applies inline waivers, remembers which waivers earned their keep
/// (the rest are reported as stale), and deduplicates exactly (one report
/// per rule/line/message, matching the retired Python linter's
/// one-hit-per-line-per-pattern behaviour).

#include <cstddef>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "lint/file_data.hpp"
#include "lint/finding.hpp"

namespace alert::analysis_tools {

class ProgramIndex;
class CallGraph;

struct RuleInfo {
  std::string id;
  std::string description;  ///< one-line, shown by --list-rules and SARIF
};

/// Everything a rule's behaviour can be configured with. Path entries are
/// forward-slash prefixes relative to the scan root; an entry ending in '/'
/// matches the directory, otherwise it is a file-path prefix.
struct AnalyzerConfig {
  /// rng-discipline: files implementing the sanctioned RNG (exempt).
  std::vector<std::string> rng_impl_paths{"util/rng.hpp", "util/rng.cpp"};
  /// float-type: directories where positions/latencies accumulate.
  std::vector<std::string> float_dirs{"sim/", "net/", "routing/",
                                      "analysis/", "util/geometry"};
  /// raw-stdout: the layers that own stdout (exempt).
  std::vector<std::string> stdout_exempt_paths{"obs/", "util/logging"};
  /// unordered-iteration-ordering: directories that feed canonical/digest
  /// output (scenario codec, experiment aggregation, manifests, cache keys).
  std::vector<std::string> digest_sensitive_dirs{"core/", "obs/",
                                                 "campaign/"};
  /// mutable-global: files sanctioned to hold process-wide mutable state.
  std::vector<std::string> mutable_global_allowlist{"util/check.cpp",
                                                    "util/logging.cpp"};
  /// module-layering: allowed direct include edges, module -> dependencies.
  /// Every top-level directory under the scan root that appears in a quoted
  /// include must be listed. Mirrors the DAG in docs/VERIFICATION.md.
  std::map<std::string, std::set<std::string>> module_deps{
      {"util", {}},
      {"analysis", {}},
      {"obs", {"util"}},
      {"crypto", {"util"}},
      {"scale", {"util"}},
      {"sim", {"util", "obs"}},
      {"faults", {"util", "sim", "obs"}},
      {"net", {"util", "sim", "crypto", "faults", "obs", "scale"}},
      {"loc", {"util", "net", "crypto"}},
      {"routing", {"util", "net", "loc", "crypto", "obs"}},
      {"attack", {"util", "net"}},
      {"core",
       {"util", "sim", "net", "routing", "loc", "crypto", "attack", "obs",
        "faults"}},
      {"campaign", {"util", "analysis", "core", "obs", "routing"}},
      {"perf",
       {"util", "obs", "sim", "net", "core", "campaign", "lint"}},
      {"lint", {"util", "obs"}},
      // Test-only module (tests/integration/): end-to-end suites sit above
      // the whole DAG, so every module is a legal dependency.
      {"integration",
       {"util", "analysis", "obs", "crypto", "sim", "faults", "net", "loc",
        "routing", "attack", "core", "campaign", "lint", "scale"}},
  };
  /// rng-discipline / lock-discipline: callables whose lambda arguments run
  /// on util::ThreadPool worker threads.
  std::vector<std::string> worker_entry_points{"submit", "parallel_for"};
  /// wallclock-in-sim: directories owned by simulated time — no host clock
  /// read in them, directly or through the call graph.
  std::vector<std::string> simtime_dirs{"core/", "sim/", "net/",
                                        "routing/"};
  /// wallclock-in-sim: paths whose clock reads are sanctioned (the obs
  /// self-profiler measures host time by design and never feeds digests).
  std::vector<std::string> wallclock_exempt_paths{"obs/"};

  [[nodiscard]] static bool path_in(const std::string& rel_path,
                                    const std::vector<std::string>& prefixes) {
    for (const std::string& p : prefixes) {
      if (rel_path.compare(0, p.size(), p) == 0) return true;
    }
    return false;
  }
};

/// Thread-safe finding collector. Emit is a no-op when the finding's line
/// carries an inline waiver for the rule; the waiver is then marked used.
/// Waived emissions are counted so reports can show suppression totals.
class Sink {
 public:
  void emit(const RuleInfo& rule, const FileData& file, std::size_t line,
            std::size_t column, std::string message);

  /// Report every waiver in `files` that absorbed no emission — including
  /// one naming an unknown rule id — as a stale-waiver finding at its line.
  /// Waivers for `unjudged` rules (switched off for this scan, so they had
  /// no chance to fire) are skipped. Call after every rule has run.
  void flag_stale_waivers(const std::vector<FileData>& files,
                          const std::set<std::string>& unjudged);

  /// Sorted, deduplicated findings (call after all rules have run).
  [[nodiscard]] std::vector<Finding> take();
  [[nodiscard]] std::size_t waived_count() const { return waived_; }

 private:
  std::mutex mutex_;
  std::vector<Finding> findings_;
  /// (path, line, rule) of every waiver that absorbed an emission.
  std::set<std::tuple<std::string, std::size_t, std::string>> used_;
  std::size_t waived_ = 0;
};

/// The catalog entry Sink::flag_stale_waivers reports under.
[[nodiscard]] const RuleInfo& stale_waiver_rule();

class Rule {
 public:
  virtual ~Rule() = default;
  [[nodiscard]] virtual const RuleInfo& info() const = 0;

  /// Per-file pass; may run concurrently with other files.
  virtual void check_file(const FileData& file, Sink& sink) {
    (void)file;
    (void)sink;
  }

  /// Whole-program pass; runs serially after every file was lexed. `files`
  /// is sorted by rel_path.
  virtual void finish(const std::vector<FileData>& files, Sink& sink) {
    (void)files;
    (void)sink;
  }

  /// Whole-program pass over the shared symbol index and call graph
  /// (lint/index.hpp, lint/callgraph.hpp); runs serially after finish().
  /// The analyzer builds the index once — per-file slices in the parallel
  /// phase, assembly and the graph serially — and every rule queries the
  /// same instance.
  virtual void finish_program(const ProgramIndex& index, const CallGraph& graph,
                              Sink& sink) {
    (void)index;
    (void)graph;
    (void)sink;
  }
};

}  // namespace alert::analysis_tools
