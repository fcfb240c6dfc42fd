#pragma once

/// \file rule.hpp
/// The rule-registry framework. A Rule inspects one file at a time
/// (`check_file`, run in parallel across files) and/or the whole scanned
/// tree (`finish`, run serially afterwards — include-graph and cross-file
/// declaration-sync rules need every file). Findings flow through a Sink,
/// which applies inline waivers, per-rule severity overrides, and exact
/// deduplication (one report per rule/line/message, matching the retired
/// Python linter's one-hit-per-line-per-pattern behaviour).

#include <cstddef>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "lint/file_data.hpp"
#include "lint/finding.hpp"

namespace alert::analysis_tools {

class ProgramIndex;
class CallGraph;

struct RuleInfo {
  std::string id;
  std::string description;       ///< one-line, shown by --list-rules and SARIF
  Severity severity = Severity::Error;
};

/// Everything a rule's behaviour can be configured with. Path entries are
/// forward-slash prefixes relative to the scan root; an entry ending in '/'
/// matches the directory, otherwise it is a file-path prefix.
struct AnalyzerConfig {
  /// raw-random: files implementing the sanctioned RNG (exempt).
  std::vector<std::string> rng_impl_paths{"util/rng.hpp", "util/rng.cpp"};
  /// wall-clock: directories owned by simulated time.
  std::vector<std::string> wall_clock_dirs{"sim/", "net/", "routing/"};
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
  /// drop-reason-exhaustive: the canonical net::DropReason enumerator list;
  /// a declaration that drifts from it is itself a violation.
  std::vector<std::string> drop_reason_enumerators{
      "OutOfRange",   "NoHandler", "TtlExpired",
      "ChannelLoss",  "NodeDown",  "RetryExhausted"};
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
      {"dist", {"util", "obs", "core", "campaign"}},
      {"perf",
       {"util", "obs", "sim", "net", "core", "campaign", "lint"}},
      {"lint", {"util", "obs"}},
      // Test-only module (tests/integration/): end-to-end suites sit above
      // the whole DAG, so every module is a legal dependency.
      {"integration",
       {"util", "analysis", "obs", "crypto", "sim", "faults", "net", "loc",
        "routing", "attack", "core", "campaign", "dist", "lint", "scale"}},
  };
  /// rng-discipline / lock-discipline: callables whose lambda arguments run
  /// on util::ThreadPool worker threads.
  std::vector<std::string> worker_entry_points{"submit", "parallel_for"};
  /// wallclock-in-sim: directories whose functions must not reach a host
  /// clock read through the call graph (digest-sensitive simulated time).
  std::vector<std::string> simtime_dirs{"core/", "sim/", "routing/"};
  /// wallclock-in-sim: paths whose clock reads are sanctioned (the obs
  /// self-profiler measures host time by design and never feeds digests).
  std::vector<std::string> wallclock_exempt_paths{"obs/"};
  /// hotpath-allocation: roots ("Class::name" or bare name) of the event
  /// dispatch / MAC / channel hot paths. Functions transitively reachable
  /// from these must not allocate. No function in src/ is named
  /// "Simulator::step"; the self-test fixture
  /// tools/lint_fixtures/sim/hotpath_alloc.cpp defines one and relies on it.
  std::vector<std::string> hotpath_roots{
      "Simulator::step",      "Simulator::run_until",
      "Mac::acquire",         "ChannelModel::lose_frame",
      "Network::deliver_broadcast", "Network::deliver_unicast",
      "Network::send_hello"};
  /// fp-accumulation-order: directories whose floating-point reductions
  /// feed determinism digests — reassociation under PDES partitioning
  /// would silently change the digest, so loop accumulations there must be
  /// index-ordered (classic `for`) or routed through obs aggregation.
  std::vector<std::string> fp_digest_dirs{"core/", "sim/", "routing/",
                                          "scale/"};
  /// sim-state-confinement: types whose instances are simulator-owned
  /// state; shared instances must never be touched from ThreadPool worker
  /// tasks (the PDES partition-safety precondition).
  std::vector<std::string> sim_state_types{"Network", "Node", "Simulator",
                                           "EventQueue"};
  /// sim-state-confinement: methods on Simulator-typed objects that are
  /// safe to call from workers — the dispatch context marshals the effect
  /// onto the event loop.
  std::vector<std::string> sim_dispatch_methods{
      "schedule_in", "schedule_at", "schedule_periodic", "schedule"};
  /// Per-rule severity overrides (default: every rule is an Error).
  std::map<std::string, Severity> severity_overrides;
  /// Rules disabled entirely.
  std::set<std::string> disabled_rules;

  [[nodiscard]] static bool path_in(const std::string& rel_path,
                                    const std::vector<std::string>& prefixes) {
    for (const std::string& p : prefixes) {
      if (rel_path.compare(0, p.size(), p) == 0) return true;
    }
    return false;
  }
};

/// Thread-safe finding collector. Emit is a no-op when the finding's line
/// carries an inline waiver for the rule; waived emissions are counted so
/// reports can show suppression totals.
class Sink {
 public:
  explicit Sink(const AnalyzerConfig& config) : config_(&config) {}

  void emit(const RuleInfo& rule, const FileData& file, std::size_t line,
            std::size_t column, std::string message);

  /// Sorted, deduplicated findings (call after all rules have run).
  [[nodiscard]] std::vector<Finding> take();
  [[nodiscard]] std::size_t waived_count() const { return waived_; }

 private:
  const AnalyzerConfig* config_;
  std::mutex mutex_;
  std::vector<Finding> findings_;
  std::size_t waived_ = 0;
};

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
