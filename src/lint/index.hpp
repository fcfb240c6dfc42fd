#pragma once

/// \file index.hpp
/// Cross-translation-unit symbol/scope indexer. One pass over each file's
/// token stream (pure per-file work — run in the parallel lex phase) finds
/// function definitions and collects per-function facts: call sites, lambda
/// captures, member/captured-state writes with the lock guards held at
/// each, and host clock reads. ProgramIndex assembles the per-file
/// slices into a program-wide view that whole-program rules query in their
/// serial finish_program() phase; the call graph over it lives in
/// lint/callgraph.hpp. Everything here is a token-level heuristic — no
/// semantic analysis — so rules built on it must tolerate (and the fixture
/// self-tests pin) the usual over/under-approximation trade-offs.

#include <cstddef>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "lint/file_data.hpp"

namespace alert::analysis_tools {

/// One entry of a lambda's capture list.
struct Capture {
  std::string name;         ///< empty for [&] / [=] defaults and `this`
  bool by_ref = false;
  bool is_default = false;  ///< a bare [&] or [=]
};

struct LambdaInfo {
  std::size_t intro = 0;       ///< code index of '['
  std::size_t body_begin = 0;  ///< code index of the body '{'
  std::size_t body_end = 0;    ///< code index of the matching '}'
  std::size_t line = 0;
  std::vector<Capture> captures;
  std::set<std::string> params;  ///< parameter names
  /// True when the lambda is an argument of a worker entry point
  /// (ThreadPool::submit / parallel_for) — its body runs on pool threads.
  bool worker = false;

  [[nodiscard]] bool captures_by_ref(const std::string& name) const {
    for (const Capture& c : captures) {
      if (!c.is_default && c.by_ref && c.name == name) return true;
    }
    return false;
  }
  [[nodiscard]] bool has_default_ref() const {
    for (const Capture& c : captures) {
      if (c.is_default && c.by_ref) return true;
    }
    return false;
  }
};

struct CallSite {
  std::string callee;     ///< bare callee name
  std::string qualifier;  ///< `Class` for Class::f, object name for o.f()
  bool scope_qualified = false;  ///< qualifier came via `::`
  std::size_t line = 0;
  std::size_t column = 0;
};

/// A write (assignment, ++/--, or mutating container call) to a member
/// chain. `target` has subscripts elided ("results[i].x = 1" -> "results")
/// so element writes to one container group under one name.
struct WriteSite {
  std::string target;
  std::size_t line = 0;
  std::size_t column = 0;
  int lambda = -1;        ///< index into FunctionInfo::lambdas, -1 = none
  bool in_worker = false;
  /// Mutexes held at the write: the operands of every std::lock_guard /
  /// scoped_lock / unique_lock / shared_lock in an enclosing scope.
  std::set<std::string> held_mutexes;
};

struct ClockUse {
  std::string what;  ///< "std::chrono::steady_clock::now()", "time()", ...
  std::size_t line = 0;
  std::size_t column = 0;
};

/// The host clock read at code token `j`, if any: `<clock>::now` on a
/// std::chrono system/steady/high-resolution clock, or a non-member call to
/// time(), clock(), gettimeofday(), clock_gettime(), localtime() or gmtime().
[[nodiscard]] std::optional<ClockUse> clock_read_at(const CodeView& v,
                                                    std::size_t j);

struct FunctionInfo {
  std::string name;       ///< bare name
  std::string qualified;  ///< "Class::name" when determinable, else name
  const FileData* file = nullptr;
  std::size_t line = 0;
  std::size_t body_begin = 0;  ///< code index of the body '{'
  std::size_t body_end = 0;    ///< code index of the matching '}'
  std::vector<CallSite> calls;
  std::vector<LambdaInfo> lambdas;
  std::vector<WriteSite> writes;
  std::vector<ClockUse> clock_uses;
};

/// Per-file slice of the program index. Pure function of one FileData, so
/// the analyzer builds slices inside the parallel per-file phase.
struct FileIndex {
  std::vector<FunctionInfo> functions;
  /// Variable names declared in this file with an RNG-engine type
  /// (util::Rng, std::mt19937, ...) or an unmistakably RNG-ish name.
  std::set<std::string> rng_vars;
};

/// Worker entry points assumed when none are supplied: util::ThreadPool's
/// submit() and parallel_for(). Mirrors AnalyzerConfig::worker_entry_points.
[[nodiscard]] const std::vector<std::string>& default_worker_entry_points();

[[nodiscard]] FileIndex index_file(const FileData& file);
[[nodiscard]] FileIndex index_file(
    const FileData& file, const std::vector<std::string>& worker_entry_points);

/// Names heuristically declared inside the code-token range [begin, end):
/// an identifier preceded by a type-ish token (identifier, '&', '*', '>')
/// and followed by '=', ';', ',', ':', ')', '{' or '('.
[[nodiscard]] std::set<std::string> declared_names(const FileData& file,
                                                  std::size_t begin,
                                                  std::size_t end);

/// Program-wide view: every function of every scanned file, with name and
/// qualified-name lookup. Built once per scan and shared by all rules.
class ProgramIndex {
 public:
  /// Assemble pre-built slices; `slices[i]` must be index_file(files[i]).
  ProgramIndex(const std::vector<FileData>& files,
               std::vector<FileIndex> slices);
  /// Serial convenience build (tests; callers without a thread pool).
  explicit ProgramIndex(const std::vector<FileData>& files);

  [[nodiscard]] const std::vector<FunctionInfo>& functions() const {
    return functions_;
  }
  /// Indices of functions with this bare name, in file/definition order.
  [[nodiscard]] const std::vector<std::size_t>& by_name(
      const std::string& name) const;
  /// Indices of functions whose qualified name is "Class::name".
  [[nodiscard]] const std::vector<std::size_t>& by_qualified(
      const std::string& qualified) const;
  /// RNG-typed variable names declared in `rel_path` (empty set if none).
  [[nodiscard]] const std::set<std::string>& rng_vars(
      const std::string& rel_path) const;

 private:
  std::vector<FunctionInfo> functions_;
  std::map<std::string, std::vector<std::size_t>> by_name_;
  std::map<std::string, std::vector<std::size_t>> by_qualified_;
  std::map<std::string, std::set<std::string>> rng_vars_;
};

}  // namespace alert::analysis_tools
