/// \file rules_ported.cpp
/// Token-based ports of the retired Python alert-lint rules. Behaviour is
/// pinned by tools/lint_fixtures/parity.expected: on the shared fixtures
/// these rules must produce exactly the findings the regex implementation
/// produced. Where the regex was blind (comments, strings, line splits),
/// the token versions are strictly more precise.

#include <cstddef>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lint/rule.hpp"
#include "lint/rules_detail.hpp"

namespace alert::analysis_tools {

namespace {

/// float-type: `float` in geometry/sim/net/routing/analysis — the 24-bit
/// mantissa drifts position/latency accumulation between compilers. The
/// Sink's dedup yields one report per line, as the regex rule produced.
class FloatTypeRule final : public Rule {
 public:
  explicit FloatTypeRule(const AnalyzerConfig& cfg) : cfg_(&cfg) {
    info_ = {"float-type",
             "float used where accumulation requires double"};
  }
  [[nodiscard]] const RuleInfo& info() const override { return info_; }

  void check_file(const FileData& file, Sink& sink) override {
    if (!AnalyzerConfig::path_in(file.rel_path, cfg_->float_dirs)) return;
    const CodeView v(file);
    for (std::size_t i = 0; i < v.size(); ++i) {
      const Token& t = v.tok(i);
      if (t.kind == TokenKind::Identifier && t.text == "float") {
        sink.emit(info_, file, t.line, 0,
                  "use double: float drifts in position/latency "
                  "accumulation");
      }
    }
  }

 private:
  const AnalyzerConfig* cfg_;
  RuleInfo info_;
};

/// raw-stdout: stdout writes outside util/logging and obs/ — stdout belongs
/// to the logging layer and the obs sinks so machine-readable output stays
/// parseable. stderr and owned FILE* streams are fine.
class RawStdoutRule final : public Rule {
 public:
  explicit RawStdoutRule(const AnalyzerConfig& cfg) : cfg_(&cfg) {
    info_ = {"raw-stdout",
             "stdout write outside util/logging and the obs sinks"};
  }
  [[nodiscard]] const RuleInfo& info() const override { return info_; }

  void check_file(const FileData& file, Sink& sink) override {
    if (AnalyzerConfig::path_in(file.rel_path, cfg_->stdout_exempt_paths))
      return;
    const CodeView v(file);
    for (std::size_t i = 0; i < v.size(); ++i) {
      const Token& t = v.tok(i);
      if (t.kind != TokenKind::Identifier) continue;
      if (t.text == "std" && v.is_punct(i + 1, "::") &&
          v.is_ident(i + 2, "cout")) {
        report(sink, file, t, "std::cout");
        continue;
      }
      if (i > 0 && (v.is_punct(i - 1, ".") || v.is_punct(i - 1, "->")))
        continue;
      const bool std_qualified =
          i > 1 && v.is_punct(i - 1, "::") && v.is_ident(i - 2, "std");
      if (i > 0 && v.is_punct(i - 1, "::") && !std_qualified) continue;
      if ((t.text == "printf" || t.text == "puts" || t.text == "putchar") &&
          v.is_punct(i + 1, "(")) {
        report(sink, file, t, t.text + "()");
      } else if ((t.text == "fprintf" || t.text == "vfprintf") &&
                 v.is_punct(i + 1, "(") && v.is_ident(i + 2, "stdout")) {
        report(sink, file, t, "fprintf(stdout, ...)");
      }
    }
  }

 private:
  void report(Sink& sink, const FileData& file, const Token& t,
              const std::string& what) {
    sink.emit(info_, file, t.line, t.column,
              what + ": stdout is reserved for util/logging and the obs "
                     "series/trace sinks (stderr is fine)");
  }
  const AnalyzerConfig* cfg_;
  RuleInfo info_;
};

/// iterator-invalidation: mutating a container inside a range-for over that
/// same container — classic UB inside event-loop callbacks.
class IteratorInvalidationRule final : public Rule {
 public:
  IteratorInvalidationRule() {
    info_ = {"iterator-invalidation",
             "container mutated inside a range-for over itself"};
  }
  [[nodiscard]] const RuleInfo& info() const override { return info_; }

  void check_file(const FileData& file, Sink& sink) override {
    static const std::set<std::string> kMutators{
        "erase",   "push_back",    "pop_back", "insert",
        "emplace", "emplace_back", "clear",    "resize"};
    const CodeView v(file);
    for (std::size_t i = 0; i + 1 < v.size(); ++i) {
      if (!(v.is_ident(i, "for") && v.is_punct(i + 1, "("))) continue;
      const std::size_t close = v.matching(i + 1, "(", ")");
      if (close == v.size()) continue;
      // Range-for: a ':' at parenthesis depth 1 (":: " is its own token,
      // so plain for(;;) loops can never false-match).
      std::size_t colon = v.size();
      std::size_t depth = 0;
      for (std::size_t j = i + 1; j < close; ++j) {
        const std::string& txt = v.tok(j).text;
        if (txt == "(" || txt == "[" || txt == "{") {
          ++depth;
        } else if (txt == ")" || txt == "]" || txt == "}") {
          --depth;
        } else if (txt == ":" && depth == 1) {
          colon = j;
          break;
        }
      }
      if (colon == v.size()) continue;
      // Container expression: a member chain filling the rest of the parens
      // (the regex rule only understood dotted chains; same here).
      std::vector<std::string> chain;
      const std::size_t chain_end = read_member_chain(v, colon + 1, &chain);
      if (chain.empty() || chain_end != close) continue;
      // Loop body: braced block or single statement.
      std::size_t body_begin = close + 1;
      std::size_t body_end;  // exclusive
      if (v.is_punct(body_begin, "{")) {
        body_end = v.matching(body_begin, "{", "}");
      } else {
        body_end = body_begin;
        std::size_t d = 0;
        while (body_end < v.size()) {
          const std::string& txt = v.tok(body_end).text;
          if (txt == "(" || txt == "[" || txt == "{") {
            ++d;
          } else if (txt == ")" || txt == "]" || txt == "}") {
            --d;
          } else if (txt == ";" && d == 0) {
            break;
          }
          ++body_end;
        }
      }
      scan_body(v, file, sink, chain, body_begin, body_end, kMutators);
    }
  }

 private:
  void scan_body(const CodeView& v, const FileData& file, Sink& sink,
                 const std::vector<std::string>& chain, std::size_t begin,
                 std::size_t end, const std::set<std::string>& mutators) {
    const std::size_t n = chain.size();
    for (std::size_t j = begin; j < end; ++j) {
      if (j + n + 2 >= end) break;
      if (j > 0 && (v.is_punct(j - 1, ".") || v.is_punct(j - 1, "->")))
        continue;
      bool match = true;
      for (std::size_t k = 0; k < n; ++k) {
        if (v.tok(j + k).text != chain[k]) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      // chain . mutator (
      if (!(v.is_punct(j + n, ".") || v.is_punct(j + n, "->"))) continue;
      const Token& m = v.tok(j + n + 1);
      if (mutators.count(m.text) == 0 || !v.is_punct(j + n + 2, "("))
        continue;
      std::string name;
      for (const std::string& part : chain) name += part;
      sink.emit(info_, file, v.tok(j).line, v.tok(j).column,
                "'" + name + "." + m.text + "()' inside a range-for over '" +
                    name + "' invalidates the loop iterator");
    }
  }
  RuleInfo info_;
};

}  // namespace

namespace detail {

std::unique_ptr<Rule> make_float_type(const AnalyzerConfig& c) {
  return std::make_unique<FloatTypeRule>(c);
}
std::unique_ptr<Rule> make_raw_stdout(const AnalyzerConfig& c) {
  return std::make_unique<RawStdoutRule>(c);
}
std::unique_ptr<Rule> make_iterator_invalidation() {
  return std::make_unique<IteratorInvalidationRule>();
}

}  // namespace detail

}  // namespace alert::analysis_tools
