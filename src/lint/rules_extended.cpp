/// \file rules_extended.cpp
/// The rules the retired regex linter could not express: include-graph
/// layering, ordering hazards (unordered-container iteration and raw
/// pointer comparisons feeding canonical output), generalized
/// exhaustive-enum switches, and mutable global state.

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lint/rule.hpp"
#include "lint/rules_detail.hpp"
#include "lint/structure.hpp"

namespace alert::analysis_tools {

namespace {

/// First path segment ("net/mac.hpp" -> "net"); empty for top-level files.
std::string module_of(const std::string& path) {
  const std::size_t slash = path.find('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

struct Include {
  std::string path;  ///< the quoted operand, verbatim
  std::size_t line = 0;
};

/// Quoted includes of a file, parsed from preprocessor tokens (angle
/// includes are system headers — outside the layering DAG by definition).
std::vector<Include> quoted_includes(const FileData& file) {
  std::vector<Include> out;
  for (const Token& t : file.tokens) {
    if (t.kind != TokenKind::Preprocessor) continue;
    std::size_t i = t.text.find_first_not_of(" \t", 1);  // skip '#'
    if (i == std::string::npos ||
        t.text.compare(i, 7, "include") != 0) {
      continue;
    }
    const std::size_t open = t.text.find('"', i + 7);
    if (open == std::string::npos) continue;
    const std::size_t close = t.text.find('"', open + 1);
    if (close == std::string::npos) continue;
    out.push_back({t.text.substr(open + 1, close - open - 1), t.line});
  }
  return out;
}

/// module-layering: quoted includes must follow the allowed dependency DAG
/// (config.module_deps), and the file-level include graph must be acyclic.
/// ALERT's anonymity guarantees — like ANODR's route pseudonymity — rest on
/// nothing above the RNG/digest layers reaching around them; the DAG is
/// where that discipline is written down.
class ModuleLayeringRule final : public Rule {
 public:
  explicit ModuleLayeringRule(const AnalyzerConfig& cfg) : cfg_(&cfg) {
    info_ = {"module-layering",
             "include edge violates the module dependency DAG"};
  }
  [[nodiscard]] const RuleInfo& info() const override { return info_; }

  void finish(const std::vector<FileData>& files, Sink& sink) override {
    std::map<std::string, const FileData*> by_path;
    for (const FileData& f : files) by_path[f.rel_path] = &f;

    // Edges resolved to scanned files, for cycle detection.
    std::map<std::string, std::vector<Include>> resolved;

    for (const FileData& f : files) {
      const std::string from = module_of(f.rel_path);
      for (const Include& inc : quoted_includes(f)) {
        // Root-relative is the repo convention; fall back to
        // include-relative for robustness.
        std::string target = inc.path;
        if (by_path.count(target) == 0) {
          const std::size_t slash = f.rel_path.rfind('/');
          const std::string sibling =
              slash == std::string::npos
                  ? inc.path
                  : f.rel_path.substr(0, slash + 1) + inc.path;
          if (by_path.count(sibling) != 0) target = sibling;
        }
        if (by_path.count(target) != 0) {
          resolved[f.rel_path].push_back({target, inc.line});
        }
        const std::string to = module_of(target);
        if (from.empty() || to.empty() || from == to) continue;
        const auto from_it = cfg_->module_deps.find(from);
        if (from_it == cfg_->module_deps.end()) {
          sink.emit(info_, f, inc.line, 1,
                    "module '" + from +
                        "' is not in the layering table — add it to the "
                        "dependency DAG (AnalyzerConfig::module_deps, "
                        "documented in docs/VERIFICATION.md)");
          continue;
        }
        if (cfg_->module_deps.count(to) == 0) {
          sink.emit(info_, f, inc.line, 1,
                    "included module '" + to +
                        "' is not in the layering table — add it to the "
                        "dependency DAG before depending on it");
          continue;
        }
        if (from_it->second.count(to) == 0) {
          std::vector<std::string> allowed(from_it->second.begin(),
                                           from_it->second.end());
          sink.emit(info_, f, inc.line, 1,
                    "layering violation: module '" + from +
                        "' may not include '" + to + "' (allowed: [" +
                        join(allowed) + "]) — this is a back-edge in the "
                        "dependency DAG");
        }
      }
    }

    // File-level cycle detection (DFS, three colours). A cycle inside one
    // module still breaks header self-sufficiency and rebuild sanity.
    std::map<std::string, int> colour;  // 0 white, 1 grey, 2 black
    std::vector<std::string> stack;
    for (const FileData& f : files) {
      dfs(f.rel_path, by_path, resolved, colour, stack, sink);
    }
  }

 private:
  void dfs(const std::string& node,
           const std::map<std::string, const FileData*>& by_path,
           const std::map<std::string, std::vector<Include>>& resolved,
           std::map<std::string, int>& colour,
           std::vector<std::string>& stack, Sink& sink) {
    if (colour[node] != 0) return;
    colour[node] = 1;
    stack.push_back(node);
    const auto it = resolved.find(node);
    if (it != resolved.end()) {
      for (const Include& edge : it->second) {
        if (colour[edge.path] == 1) {
          // Grey target: the stack from that node to here is a cycle.
          std::string cycle;
          bool in_cycle = false;
          for (const std::string& s : stack) {
            if (s == edge.path) in_cycle = true;
            if (in_cycle) cycle += s + " -> ";
          }
          cycle += edge.path;
          sink.emit(info_, *by_path.at(node), edge.line, 1,
                    "include cycle: " + cycle);
        } else {
          dfs(edge.path, by_path, resolved, colour, stack, sink);
        }
      }
    }
    stack.pop_back();
    colour[node] = 2;
  }

  const AnalyzerConfig* cfg_;
  RuleInfo info_;
};

/// Names declared in this file with std::unordered_* types (or, for
/// kPointerContainers below, sequence-of-pointer types). Token heuristic:
/// `unordered_map < ... > [&*const]* name`.
std::set<std::string> declared_container_names(
    const CodeView& v, const std::set<std::string>& type_names,
    bool require_pointer_element) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v.tok(i).kind != TokenKind::Identifier ||
        type_names.count(v.tok(i).text) == 0 || !v.is_punct(i + 1, "<")) {
      continue;
    }
    // Find the matching '>' (">>" closes two levels).
    std::size_t depth = 0;
    std::size_t j = i + 1;
    bool element_is_pointer = false;
    for (; j < v.size(); ++j) {
      const std::string& t = v.tok(j).text;
      if (t == "<") {
        ++depth;
      } else if (t == ">") {
        if (--depth == 0) break;
      } else if (t == ">>") {
        if (depth <= 2) { depth = 0; break; }
        depth -= 2;
      } else if (depth == 1 && t == "*") {
        element_is_pointer = true;
      }
    }
    if (j >= v.size()) continue;
    if (require_pointer_element && !element_is_pointer) continue;
    std::size_t k = j + 1;
    while (v.is_punct(k, "&") || v.is_punct(k, "*") ||
           v.is_ident(k, "const")) {
      ++k;
    }
    if (k < v.size() && v.tok(k).kind == TokenKind::Identifier) {
      names.insert(v.tok(k).text);
    }
  }
  return names;
}

/// unordered-iteration-ordering: range-for / iterator loops over
/// std::unordered_{map,set} in files that feed canonical or digest output
/// (scenario codec, experiment aggregation, manifests, cache keys) — hash
/// iteration order is implementation-defined, so it silently breaks
/// bit-reproducibility. Iterate a sorted copy or use an ordered container.
class UnorderedIterationRule final : public Rule {
 public:
  explicit UnorderedIterationRule(const AnalyzerConfig& cfg) : cfg_(&cfg) {
    info_ = {"unordered-iteration-ordering",
             "unordered-container iteration in a canonical-output path"};
  }
  [[nodiscard]] const RuleInfo& info() const override { return info_; }

  void check_file(const FileData& file, Sink& sink) override {
    if (!AnalyzerConfig::path_in(file.rel_path, cfg_->digest_sensitive_dirs))
      return;
    static const std::set<std::string> kUnordered{
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    const CodeView v(file);
    const std::set<std::string> names =
        declared_container_names(v, kUnordered, false);
    if (names.empty()) return;

    for (std::size_t i = 0; i + 1 < v.size(); ++i) {
      // Range-for whose sequence expression ends in a declared name.
      if (v.is_ident(i, "for") && v.is_punct(i + 1, "(")) {
        const std::size_t close = v.matching(i + 1, "(", ")");
        std::size_t depth = 0;
        for (std::size_t j = i + 1; j < close; ++j) {
          const std::string& t = v.tok(j).text;
          if (t == "(" || t == "[" || t == "{") {
            ++depth;
          } else if (t == ")" || t == "]" || t == "}") {
            --depth;
          } else if (t == ":" && depth == 1) {
            std::vector<std::string> chain;
            if (read_member_chain(v, j + 1, &chain) == close &&
                !chain.empty() && names.count(chain.back()) != 0) {
              sink.emit(info_, file, v.tok(i).line, v.tok(i).column,
                        "range-for over std::unordered_* '" + chain.back() +
                            "' feeds canonical/digest output — iteration "
                            "order is implementation-defined; iterate a "
                            "sorted copy or use an ordered container");
            }
            break;
          }
        }
      }
      // Explicit iterator loops / ordered extraction: name.begin()/cbegin().
      if (v.tok(i).kind == TokenKind::Identifier &&
          names.count(v.tok(i).text) != 0 && !v.prev_is_accessor(i) &&
          (v.is_punct(i + 1, ".") || v.is_punct(i + 1, "->")) &&
          (v.is_ident(i + 2, "begin") || v.is_ident(i + 2, "cbegin")) &&
          v.is_punct(i + 3, "(")) {
        sink.emit(info_, file, v.tok(i).line, v.tok(i).column,
                  "iterator over std::unordered_* '" + v.tok(i).text +
                      "' feeds canonical/digest output — iteration order "
                      "is implementation-defined; iterate a sorted copy "
                      "or use an ordered container");
      }
    }
  }

 private:
  const AnalyzerConfig* cfg_;
  RuleInfo info_;
};

/// pointer-ordering: sorts or ordered containers keyed on raw pointer
/// values. Pointer order is allocation order — it varies run to run, so
/// any output derived from it is nondeterministic (ASLR makes it worse).
class PointerOrderingRule final : public Rule {
 public:
  PointerOrderingRule() {
    info_ = {"pointer-ordering",
             "ordering keyed on raw pointer values"};
  }
  [[nodiscard]] const RuleInfo& info() const override { return info_; }

  void check_file(const FileData& file, Sink& sink) override {
    const CodeView v(file);
    static const std::set<std::string> kSequences{"vector", "array", "deque"};
    const std::set<std::string> ptr_sequences =
        declared_container_names(v, kSequences, true);

    for (std::size_t i = 0; i + 2 < v.size(); ++i) {
      if (!v.is_ident(i, "std") || !v.is_punct(i + 1, "::")) continue;
      const std::string& name = v.tok(i + 2).text;
      if ((name == "map" || name == "set" || name == "multimap" ||
           name == "multiset") &&
          v.is_punct(i + 3, "<")) {
        check_assoc(v, file, sink, i, name);
      } else if (name == "less" && v.is_punct(i + 3, "<")) {
        const std::vector<std::vector<std::string>> args =
            template_args(v, i + 3);
        if (!args.empty() && !args[0].empty() && args[0].back() == "*") {
          sink.emit(info_, file, v.tok(i).line, v.tok(i).column,
                    "std::less over a raw pointer type orders by address — "
                    "nondeterministic across runs; compare a stable id "
                    "instead");
        }
      } else if ((name == "sort" || name == "stable_sort") &&
                 v.is_punct(i + 3, "(")) {
        check_sort(v, file, sink, i, ptr_sequences);
      }
    }
  }

 private:
  /// Top-level template arguments of the list opening at `open_i` ('<'),
  /// each as its token texts.
  static std::vector<std::vector<std::string>> template_args(
      const CodeView& v, std::size_t open_i) {
    std::vector<std::vector<std::string>> args(1);
    std::size_t depth = 0;
    for (std::size_t j = open_i; j < v.size(); ++j) {
      const std::string& t = v.tok(j).text;
      if (t == "<") {
        if (depth++ != 0) args.back().push_back(t);
      } else if (t == ">" || t == ">>") {
        const std::size_t dec = t == ">" ? 1 : 2;
        if (depth <= dec) return args;
        depth -= dec;
        args.back().push_back(t);
      } else if (t == "," && depth == 1) {
        args.emplace_back();
      } else if (depth >= 1) {
        args.back().push_back(t);
      }
    }
    return {};
  }

  void check_assoc(const CodeView& v, const FileData& file, Sink& sink,
                   std::size_t i, const std::string& name) {
    const std::vector<std::vector<std::string>> args =
        template_args(v, i + 3);
    if (args.empty() || args[0].empty() || args[0].back() != "*") return;
    const std::size_t comparator_pos =
        (name == "map" || name == "multimap") ? 2 : 1;
    if (args.size() > comparator_pos) return;  // custom comparator given
    sink.emit(info_, file, v.tok(i).line, v.tok(i).column,
              "std::" + name +
                  " keyed on a raw pointer orders by address — iteration "
                  "is nondeterministic across runs; key on a stable id or "
                  "supply a comparator over stable fields");
  }

  void check_sort(const CodeView& v, const FileData& file, Sink& sink,
                  std::size_t i, const std::set<std::string>& ptr_sequences) {
    const std::size_t close = v.matching(i + 3, "(", ")");
    if (close == v.size()) return;
    // Default comparator = exactly one top-level comma (two arguments).
    std::size_t commas = 0;
    std::size_t depth = 0;
    for (std::size_t j = i + 3; j < close; ++j) {
      const std::string& t = v.tok(j).text;
      if (t == "(" || t == "[" || t == "{") {
        ++depth;
      } else if (t == ")" || t == "]" || t == "}") {
        --depth;
      } else if (t == "," && depth == 1) {
        ++commas;
      }
    }
    if (commas != 1) return;
    // First argument of the form <name>.begin() with a pointer-element
    // sequence container.
    const std::size_t a = i + 4;
    if (a < close && v.tok(a).kind == TokenKind::Identifier &&
        ptr_sequences.count(v.tok(a).text) != 0 &&
        (v.is_punct(a + 1, ".") || v.is_punct(a + 1, "->")) &&
        v.is_ident(a + 2, "begin")) {
      sink.emit(info_, file, v.tok(i).line, v.tok(i).column,
                "sorting a container of raw pointers with the default "
                "comparator orders by address — nondeterministic across "
                "runs; sort by a stable field instead");
    }
  }

  RuleInfo info_;
};

/// exhaustive-enum: any enum whose definition carries an
/// `// alert-lint: exhaustive-enum` tag (same line or the line above) —
/// net::DropReason among them — gets exhaustive switches: every switch
/// over it must name every enumerator and must not carry `default:`.
/// Tagged re-declarations must stay in sync with the first declaration,
/// headers read before sources: an enum's home is the header defining it.
class ExhaustiveEnumRule final : public Rule {
 public:
  ExhaustiveEnumRule() {
    info_ = {"exhaustive-enum",
             "non-exhaustive or defaulted switch over a tagged enum"};
  }
  [[nodiscard]] const RuleInfo& info() const override { return info_; }

  void finish(const std::vector<FileData>& files, Sink& sink) override {
    struct Decl {
      const FileData* file;
      std::size_t line;
      std::vector<std::string> enumerators;
    };
    std::map<std::string, Decl> tagged;

    std::vector<const FileData*> headers_first;
    for (const FileData& f : files) headers_first.push_back(&f);
    std::stable_partition(
        headers_first.begin(), headers_first.end(), [](const FileData* f) {
          return f->rel_path.ends_with(".hpp") || f->rel_path.ends_with(".h");
        });
    for (const FileData* fp : headers_first) {
      const FileData& f = *fp;
      std::set<std::size_t> tag_lines;
      for (const Token& t : f.tokens) {
        if ((t.kind == TokenKind::LineComment ||
             t.kind == TokenKind::BlockComment) &&
            t.text.find("alert-lint:") != std::string::npos &&
            t.text.find("exhaustive-enum") != std::string::npos &&
            t.text.find("allow") == std::string::npos) {
          tag_lines.insert(t.line);
        }
      }
      if (tag_lines.empty()) continue;
      const CodeView v(f);
      for (std::size_t i = 0; i < v.size(); ++i) {
        std::string name;
        std::vector<std::string> enumerators;
        std::size_t line = 0;
        if (!v.is_ident(i, "enum") ||
            !parse_enum_definition(v, i, &name, &enumerators, &line)) {
          continue;
        }
        if (tag_lines.count(line) == 0 && tag_lines.count(line - 1) == 0)
          continue;
        const auto it = tagged.find(name);
        if (it == tagged.end()) {
          tagged.emplace(name, Decl{&f, line, std::move(enumerators)});
        } else if (it->second.enumerators != enumerators) {
          sink.emit(info_, f, line, 1,
                    "tagged enum '" + name +
                        "' declares [" + join(enumerators) +
                        "] but its first declaration (" +
                        it->second.file->rel_path + ":" +
                        std::to_string(it->second.line) + ") declares [" +
                        join(it->second.enumerators) +
                        "] — keep tagged declarations in sync");
        }
      }
    }
    if (tagged.empty()) return;

    for (const FileData& f : files) {
      const CodeView v(f);
      for (const SwitchInfo& sw : collect_switches(v)) {
        // Which tagged enum (if any) does this switch handle?
        for (const auto& [name, decl] : tagged) {
          std::set<std::string> cases;
          for (const auto& [type, enumerator] : sw.cases) {
            if (type == name) cases.insert(enumerator);
          }
          if (cases.empty()) continue;
          if (sw.has_default) {
            sink.emit(info_, f, sw.line, sw.column,
                      "'default:' in a switch over tagged enum '" + name +
                          "' swallows newly added enumerators — enumerate "
                          "every case instead");
          }
          std::vector<std::string> missing;
          for (const std::string& e : decl.enumerators) {
            if (cases.count(e) == 0) missing.push_back(e);
          }
          if (!missing.empty()) {
            sink.emit(info_, f, sw.line, sw.column,
                      "switch over tagged enum '" + name +
                          "' is missing case(s): " + join(missing));
          }
        }
      }
    }
  }

 private:
  RuleInfo info_;
};

/// mutable-global: non-const namespace-scope variables, function-local
/// statics and static data members hold state that outlives a replication —
/// exactly what makes runs order-dependent and replications non-independent.
/// Sanctioned process-wide state (the log level, the check failure handler)
/// lives in allowlisted files; everything else needs a waiver or a fix.
class MutableGlobalRule final : public Rule {
 public:
  explicit MutableGlobalRule(const AnalyzerConfig& cfg) : cfg_(&cfg) {
    info_ = {"mutable-global",
             "mutable static-storage state outside the allowlist"};
  }
  [[nodiscard]] const RuleInfo& info() const override { return info_; }

  void check_file(const FileData& file, Sink& sink) override {
    if (AnalyzerConfig::path_in(file.rel_path,
                                cfg_->mutable_global_allowlist)) {
      return;
    }
    const CodeView v(file);
    std::vector<Ctx> stack{Ctx::Namespace};  // translation-unit scope
    std::vector<std::size_t> stmt;           // code-token indices
    std::size_t paren_depth = 0;

    auto contains = [&](const char* word) {
      return std::any_of(stmt.begin(), stmt.end(), [&](std::size_t k) {
        return v.tok(k).text == word;
      });
    };

    for (std::size_t i = 0; i < v.size(); ++i) {
      const std::string& t = v.tok(i).text;
      const bool in_init = stack.back() == Ctx::Init;
      if (t == "{") {
        if (in_init) {
          stack.push_back(Ctx::Init);  // nested braces of an initializer
          continue;
        }
        Ctx ctx = Ctx::Function;  // plain blocks behave like function bodies
        const bool control_tail =
            !stmt.empty() && (v.tok(stmt.back()).text == "do" ||
                              v.tok(stmt.back()).text == "else" ||
                              v.tok(stmt.back()).text == "try");
        if (contains("namespace")) {
          ctx = Ctx::Namespace;
        } else if (contains("class") || contains("struct") ||
                   contains("union") || contains("enum")) {
          ctx = Ctx::Class;
        } else if (control_tail || contains("(")) {
          ctx = Ctx::Function;
        } else if (!stmt.empty() &&
                   (contains("=") ||
                    v.tok(stmt.back()).kind == TokenKind::Identifier ||
                    v.tok(stmt.back()).text == ">")) {
          // Braced initializer: `T name{...}` / `T name = {...}`.
          stack.push_back(Ctx::Init);
          continue;  // the statement continues past the initializer
        }
        stack.push_back(ctx);
        stmt.clear();
        paren_depth = 0;
        continue;
      }
      if (t == "}") {
        const bool was_init = stack.back() == Ctx::Init;
        if (stack.size() > 1) stack.pop_back();
        if (!was_init) {
          stmt.clear();
          paren_depth = 0;
        }
        continue;
      }
      if (in_init) continue;  // initializer contents are not declarations
      if (t == "(") ++paren_depth;
      if (t == ")" && paren_depth > 0) --paren_depth;
      if (t == ";" && paren_depth == 0) {
        evaluate(v, file, sink, stack.back(), stmt);
        stmt.clear();
        continue;
      }
      stmt.push_back(i);
    }
  }

 private:
  enum class Ctx { Namespace, Class, Function, Init };

  void evaluate(const CodeView& v, const FileData& file, Sink& sink, Ctx ctx,
                const std::vector<std::size_t>& stmt) {
    if (stmt.empty()) return;
    static const std::set<std::string> kNotAVariable{
        "using",    "typedef",  "namespace", "class",   "struct",
        "union",    "enum",     "template",  "friend",  "extern",
        "operator", "concept",  "requires",  "public",  "private",
        "protected", "static_assert", "return", "goto", "case",
        "default",  "if",       "while",     "for",     "switch",
        "do",       "else",     "break",     "continue", "throw",
        "delete",   "new",      "co_return", "co_yield", "co_await"};
    // Declaration part: tokens before the first top-level '='.
    std::vector<std::size_t> decl;
    std::size_t depth = 0;
    for (const std::size_t k : stmt) {
      const std::string& t = v.tok(k).text;
      if (t == "(" || t == "[") ++depth;
      if ((t == ")" || t == "]") && depth > 0) --depth;
      if (t == "=" && depth == 0) break;
      decl.push_back(k);
    }
    bool has_const = false;
    bool has_static = false;
    bool has_paren = false;
    std::size_t name_tokens = 0;
    std::size_t last_name = v.size();
    for (const std::size_t k : decl) {
      const Token& tok = v.tok(k);
      if (tok.kind == TokenKind::Identifier) {
        if (kNotAVariable.count(tok.text) != 0) return;
        if (tok.text == "const" || tok.text == "constexpr" ||
            tok.text == "constinit") {
          has_const = true;
        } else if (tok.text == "static") {
          has_static = true;
        } else {
          ++name_tokens;
          last_name = k;
        }
      } else if (tok.text == "(") {
        has_paren = true;
      }
    }
    // `type name` minimum; parens mean a function declaration or a
    // call-style macro; const/constexpr state is fine anywhere.
    if (has_const || has_paren || name_tokens < 2 || last_name == v.size())
      return;
    const std::string name = v.tok(last_name).text;
    const Token& at = v.tok(stmt.front());
    if (ctx == Ctx::Namespace) {
      sink.emit(info_, file, at.line, at.column,
                "mutable namespace-scope state '" + name +
                    "' — globals couple replications and break run "
                    "independence; make it const/constexpr, move it into "
                    "an object threaded through callers, or waive "
                    "deliberate process-wide state");
    } else if (has_static) {
      sink.emit(info_, file, at.line, at.column,
                ctx == Ctx::Class
                    ? "mutable static data member '" + name +
                          "' — static members are process-wide state; "
                          "make it const/constexpr or move it into the "
                          "instance"
                    : "function-local static mutable state '" + name +
                          "' — survives across replications; hoist it "
                          "into an object threaded through callers or "
                          "waive it deliberately");
    }
  }

  const AnalyzerConfig* cfg_;
  RuleInfo info_;
};

}  // namespace

namespace detail {

std::unique_ptr<Rule> make_module_layering(const AnalyzerConfig& c) {
  return std::make_unique<ModuleLayeringRule>(c);
}
std::unique_ptr<Rule> make_unordered_iteration(const AnalyzerConfig& c) {
  return std::make_unique<UnorderedIterationRule>(c);
}
std::unique_ptr<Rule> make_pointer_ordering() {
  return std::make_unique<PointerOrderingRule>();
}
std::unique_ptr<Rule> make_exhaustive_enum() {
  return std::make_unique<ExhaustiveEnumRule>();
}
std::unique_ptr<Rule> make_mutable_global(const AnalyzerConfig& c) {
  return std::make_unique<MutableGlobalRule>(c);
}

}  // namespace detail

}  // namespace alert::analysis_tools
