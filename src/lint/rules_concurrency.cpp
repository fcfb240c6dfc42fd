/// \file rules_concurrency.cpp
/// The rule families that guard replication determinism across files and
/// threads, built on ProgramIndex/CallGraph:
///
///   rng-discipline      randomness must flow from the replication-forked
///                       util::Rng — no raw C/std randomness sources, no
///                       entropy/time seeding, no RNG engines captured by
///                       reference into ThreadPool worker tasks
///   wallclock-in-sim    no host clock read in simulated-time code, nor
///                       one reachable from it through calls; obs
///                       profiling is allowlisted
///   lock-discipline     state written both inside and outside a worker
///                       task must share a mutex on every write
///
/// The whole-program halves run in finish_program() against the one shared
/// index/graph the analyzer builds per scan.

#include <cstddef>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lint/callgraph.hpp"
#include "lint/index.hpp"
#include "lint/rule.hpp"
#include "lint/rules_detail.hpp"

namespace alert::analysis_tools {

namespace {

/// RNG engine type names (mirrors the indexer's declaration scan).
const std::set<std::string>& rng_engine_types() {
  static const std::set<std::string> kEngines{
      "Rng",          "mt19937",      "mt19937_64",
      "minstd_rand",  "minstd_rand0", "default_random_engine",
      "ranlux24",     "ranlux48",     "knuth_b"};
  return kEngines;
}

/// Entropy/time sources that must never seed an RNG: seeds derived from
/// them differ run to run, so replications stop being reproducible.
const std::set<std::string>& entropy_sources() {
  static const std::set<std::string> kEntropy{
      "time",         "clock",        "gettimeofday",
      "clock_gettime", "system_clock", "steady_clock",
      "high_resolution_clock", "random_device", "getpid"};
  return kEntropy;
}

/// First entropy-source identifier in code tokens (open, close), or "".
std::string entropy_in_args(const CodeView& v, std::size_t open,
                            std::size_t close) {
  for (std::size_t k = open + 1; k < close; ++k) {
    if (v.tok(k).kind == TokenKind::Identifier &&
        entropy_sources().count(v.tok(k).text) != 0) {
      return v.tok(k).text;
    }
  }
  return {};
}

/// rng-discipline: seeds must come from the experiment configuration and
/// flow down through util::Rng::fork(stream). Raw randomness sources
/// (rand()/srand(), std::random_device, std::mt19937*,
/// std::default_random_engine — anywhere in a file, namespace scope
/// included), entropy-seeded engines and worker-shared engines make
/// replications irreproducible (and racy). The RNG implementation itself
/// (rng_impl_paths) is exempt.
class RngDisciplineRule final : public Rule {
 public:
  explicit RngDisciplineRule(const AnalyzerConfig& cfg) : cfg_(&cfg) {
    info_ = {"rng-discipline",
             "randomness outside the replication-forked RNG"};
  }
  [[nodiscard]] const RuleInfo& info() const override { return info_; }

  /// Raw randomness sources, token by token over the whole file.
  void check_file(const FileData& file, Sink& sink) override {
    if (AnalyzerConfig::path_in(file.rel_path, cfg_->rng_impl_paths)) return;
    const CodeView v(file);
    for (std::size_t i = 0; i < v.size(); ++i) {
      const Token& t = v.tok(i);
      if (t.kind != TokenKind::Identifier) continue;
      if ((t.text == "rand" || t.text == "srand") && v.is_punct(i + 1, "(")) {
        // Qualified names other than std:: are someone else's rand; member
        // access (x.rand(), p->rand()) likewise.
        if (i > 0 && (v.is_punct(i - 1, ".") || v.is_punct(i - 1, "->")))
          continue;
        if (i > 0 && v.is_punct(i - 1, "::") &&
            !(i > 1 && v.is_ident(i - 2, "std")))
          continue;
        report_raw(sink, file, t, "raw C " + t.text + "()");
      } else if (t.text == "std" && v.is_punct(i + 1, "::") &&
                 i + 2 < v.size()) {
        const std::string& name = v.tok(i + 2).text;
        if (name == "random_device") {
          report_raw(sink, file, t, "std::random_device");
        } else if (name.rfind("mt19937", 0) == 0) {
          report_raw(sink, file, t, "std::mt19937");
        } else if (name == "default_random_engine") {
          report_raw(sink, file, t, "std::default_random_engine");
        }
      }
    }
  }

  void finish_program(const ProgramIndex& index, const CallGraph& graph,
                      Sink& sink) override {
    (void)graph;
    for (const FunctionInfo& fn : index.functions()) {
      if (AnalyzerConfig::path_in(fn.file->rel_path, cfg_->rng_impl_paths))
        continue;
      const CodeView v(*fn.file);
      check_seeding(v, fn, sink);
      check_worker_captures(v, fn, index, sink);
    }
  }

 private:
  void report_raw(Sink& sink, const FileData& file, const Token& t,
                  const std::string& what) {
    sink.emit(info_, file, t.line, t.column,
              what + ": all randomness must come from util/rng "
                     "(seeded, reproducible)");
  }

  void check_seeding(const CodeView& v, const FunctionInfo& fn, Sink& sink) {
    for (std::size_t j = fn.body_begin + 1; j < fn.body_end; ++j) {
      const Token& t = v.tok(j);
      if (t.kind != TokenKind::Identifier) continue;
      // srand(...) / engine.seed(...) / reseed(...) with an entropy arg.
      if ((t.text == "srand" || t.text == "seed" || t.text == "reseed") &&
          v.is_punct(j + 1, "(")) {
        const std::size_t close = v.matching(j + 1, "(", ")");
        if (close >= fn.body_end) continue;
        const std::string src = entropy_in_args(v, j + 1, close);
        if (!src.empty()) {
          sink.emit(info_, *fn.file, t.line, t.column,
                    "RNG seeded from entropy/time source '" + src +
                        "' — seeds must come from the scenario config and "
                        "flow through util::Rng::fork(stream) so "
                        "replications stay reproducible");
        }
        continue;
      }
      // EngineType name(<entropy>) / EngineType name{<entropy>} declaration.
      if (rng_engine_types().count(t.text) != 0 && j + 2 < fn.body_end &&
          v.tok(j + 1).kind == TokenKind::Identifier) {
        const bool paren = v.is_punct(j + 2, "(");
        if (!paren && !v.is_punct(j + 2, "{")) continue;
        const std::size_t close = paren ? v.matching(j + 2, "(", ")")
                                        : v.matching(j + 2, "{", "}");
        if (close >= fn.body_end) continue;
        const std::string src = entropy_in_args(v, j + 2, close);
        if (!src.empty()) {
          sink.emit(info_, *fn.file, t.line, t.column,
                    "RNG '" + v.tok(j + 1).text +
                        "' constructed from entropy/time source '" + src +
                        "' — seeds must come from the scenario config and "
                        "flow through util::Rng::fork(stream) so "
                        "replications stay reproducible");
        }
      }
    }
  }

  void check_worker_captures(const CodeView& v, const FunctionInfo& fn,
                             const ProgramIndex& index, Sink& sink) {
    const std::set<std::string>& rngs = index.rng_vars(fn.file->rel_path);
    if (rngs.empty()) return;
    for (const LambdaInfo& lam : fn.lambdas) {
      if (!lam.worker) continue;
      std::set<std::string> flagged;
      for (const Capture& c : lam.captures) {
        if (!c.is_default && c.by_ref && rngs.count(c.name) != 0 &&
            flagged.insert(c.name).second) {
          sink.emit(info_, *fn.file, lam.line, v.tok(lam.intro).column,
                    "RNG '" + c.name +
                        "' captured by reference into a ThreadPool worker "
                        "task — concurrent draws race and the draw order "
                        "depends on scheduling; fork a per-task stream "
                        "(rng.fork(stream)) instead");
        }
      }
      if (!lam.has_default_ref()) continue;
      const std::set<std::string> locals =
          declared_names(*fn.file, lam.body_begin, lam.body_end);
      for (std::size_t j = lam.body_begin + 1; j < lam.body_end; ++j) {
        const Token& t = v.tok(j);
        if (t.kind != TokenKind::Identifier || rngs.count(t.text) == 0)
          continue;
        if (v.prev_is_accessor(j)) continue;
        if (lam.params.count(t.text) != 0 || locals.count(t.text) != 0)
          continue;
        if (flagged.insert(t.text).second) {
          sink.emit(info_, *fn.file, t.line, t.column,
                    "RNG '" + t.text +
                        "' reaches a ThreadPool worker task through a "
                        "default by-reference capture — concurrent draws "
                        "race and the draw order depends on scheduling; "
                        "fork a per-task stream (rng.fork(stream)) instead");
        }
      }
    }
  }

  const AnalyzerConfig* cfg_;
  RuleInfo info_;
};

/// wallclock-in-sim: simulated time (simtime_dirs) must never observe host
/// time, directly or through calls — the determinism digests and the
/// paper's latency metrics are defined over sim::Time alone. Direct reads
/// are found token by token over the whole file; the transitive closure
/// comes from the call graph. The obs self-profiler reads host clocks by
/// design and never feeds digests, so clock reads in wallclock_exempt_paths
/// are not sources.
class WallclockInSimRule final : public Rule {
 public:
  explicit WallclockInSimRule(const AnalyzerConfig& cfg) : cfg_(&cfg) {
    info_ = {"wallclock-in-sim",
             "host clock read in or reachable from simulated-time code"};
  }
  [[nodiscard]] const RuleInfo& info() const override { return info_; }

  void check_file(const FileData& file, Sink& sink) override {
    if (!AnalyzerConfig::path_in(file.rel_path, cfg_->simtime_dirs)) return;
    const CodeView v(file);
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (const std::optional<ClockUse> use = clock_read_at(v, i)) {
        sink.emit(info_, file, use->line, use->column,
                  "host clock read " + use->what +
                      " in digest-sensitive simulated-time code — use "
                      "sim::Time, or move host timing into an obs "
                      "profiling scope");
      }
    }
  }

  void finish_program(const ProgramIndex& index, const CallGraph& graph,
                      Sink& sink) override {
    const std::vector<FunctionInfo>& fns = index.functions();
    std::vector<std::size_t> sources;
    for (std::size_t fi = 0; fi < fns.size(); ++fi) {
      if (!fns[fi].clock_uses.empty() &&
          !AnalyzerConfig::path_in(fns[fi].file->rel_path,
                                   cfg_->wallclock_exempt_paths)) {
        sources.push_back(fi);
      }
    }
    const CallGraph::ReverseReach rev = graph.reach_reverse(sources);

    for (std::size_t fi = 0; fi < fns.size(); ++fi) {
      const FunctionInfo& fn = fns[fi];
      // Direct readers were reported by check_file.
      if (!AnalyzerConfig::path_in(fn.file->rel_path, cfg_->simtime_dirs) ||
          !fn.clock_uses.empty() || rev.reached[fi] == 0 ||
          rev.via[fi] == nullptr) {
        continue;
      }
      // Follow the hop chain to the ultimate clock reader.
      std::size_t src = fi;
      while (rev.next[src] != CallGraph::npos) src = rev.next[src];
      const FunctionInfo& reader = fns[src];
      const ClockUse& use = reader.clock_uses.front();
      sink.emit(info_, *fn.file, rev.via[fi]->line, rev.via[fi]->column,
                "'" + fn.qualified +
                    "' is simulated-time code but reaches a host clock "
                    "read: " + graph.chain(rev, fi) + "; '" +
                    reader.qualified + "' reads " + use.what + " (" +
                    reader.file->rel_path + ":" + std::to_string(use.line) +
                    ") — use sim::Time, or move host timing into an obs "
                    "profiling scope");
    }
  }

 private:
  const AnalyzerConfig* cfg_;
  RuleInfo info_;
};

/// lock-discipline: a name written inside a ThreadPool worker task and
/// written again (in another task instance or outside the task) must hold
/// the same mutex at every write. The capability map comes from
/// std::lock_guard/scoped_lock/unique_lock/shared_lock sites; a write is
/// "shared" when it targets a member (trailing underscore) or a variable
/// captured by reference. Element-disjoint writes (results[slot] per unit)
/// are a legitimate pattern — prove the disjointness in a waiver.
class LockDisciplineRule final : public Rule {
 public:
  explicit LockDisciplineRule(const AnalyzerConfig& cfg) : cfg_(&cfg) {
    info_ = {"lock-discipline",
             "worker-task writes lack a common mutex guard"};
  }
  [[nodiscard]] const RuleInfo& info() const override { return info_; }

  void finish_program(const ProgramIndex& index, const CallGraph& graph,
                      Sink& sink) override {
    (void)graph;
    for (const FunctionInfo& fn : index.functions()) {
      bool has_worker = false;
      for (const LambdaInfo& lam : fn.lambdas) has_worker |= lam.worker;
      if (!has_worker) continue;

      // Lambda-local declarations, resolved lazily per lambda.
      std::map<int, std::set<std::string>> locals;
      auto lambda_locals = [&](int li) -> const std::set<std::string>& {
        auto it = locals.find(li);
        if (it == locals.end()) {
          const LambdaInfo& lam = fn.lambdas[static_cast<std::size_t>(li)];
          it = locals
                   .emplace(li, declared_names(*fn.file, lam.body_begin,
                                               lam.body_end))
                   .first;
        }
        return it->second;
      };

      std::map<std::string, std::vector<const WriteSite*>> by_target;
      for (const WriteSite& w : fn.writes) {
        if (w.in_worker && !is_shared(fn, w, lambda_locals)) continue;
        by_target[w.target].push_back(&w);
      }
      for (const auto& [target, writes] : by_target) {
        const WriteSite* first_worker = nullptr;
        std::size_t worker_writes = 0;
        for (const WriteSite* w : writes) {
          if (!w->in_worker) continue;
          ++worker_writes;
          if (first_worker == nullptr) first_worker = w;
        }
        if (first_worker == nullptr || writes.size() < 2) continue;
        // Intersect held mutexes across every write of the target.
        std::set<std::string> common = writes.front()->held_mutexes;
        for (const WriteSite* w : writes) {
          std::set<std::string> next;
          for (const std::string& m : w->held_mutexes) {
            if (common.count(m) != 0) next.insert(m);
          }
          common = std::move(next);
        }
        if (!common.empty()) continue;
        std::string lines;
        for (const WriteSite* w : writes) {
          if (!lines.empty()) lines += ", ";
          lines += std::to_string(w->line);
        }
        sink.emit(info_, *fn.file, first_worker->line, first_worker->column,
                  "'" + target + "' is written from a ThreadPool worker "
                      "task and again elsewhere (lines " + lines +
                      ") with no common mutex in '" + fn.qualified +
                      "' — guard every write with the same "
                      "std::scoped_lock, or prove the writes disjoint "
                      "(e.g. one pre-sized slot per task) and waive");
      }
    }
  }

 private:
  template <typename LambdaLocals>
  bool is_shared(const FunctionInfo& fn, const WriteSite& w,
                 LambdaLocals& lambda_locals) const {
    const std::string base = w.target.substr(0, w.target.find('.'));
    if (!base.empty() && base.back() == '_') return true;  // member
    if (w.lambda < 0) return true;
    const LambdaInfo& lam = fn.lambdas[static_cast<std::size_t>(w.lambda)];
    if (lam.captures_by_ref(base)) return true;
    if (lam.has_default_ref() && lam.params.count(base) == 0 &&
        lambda_locals(w.lambda).count(base) == 0) {
      return true;
    }
    return false;
  }

  const AnalyzerConfig* cfg_;
  RuleInfo info_;
};

}  // namespace

namespace detail {

std::unique_ptr<Rule> make_rng_discipline(const AnalyzerConfig& c) {
  return std::make_unique<RngDisciplineRule>(c);
}
std::unique_ptr<Rule> make_wallclock_in_sim(const AnalyzerConfig& c) {
  return std::make_unique<WallclockInSimRule>(c);
}
std::unique_ptr<Rule> make_lock_discipline(const AnalyzerConfig& c) {
  return std::make_unique<LockDisciplineRule>(c);
}

}  // namespace detail

}  // namespace alert::analysis_tools
