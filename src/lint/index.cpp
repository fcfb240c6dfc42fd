/// \file index.cpp
/// Per-file symbol/scope indexing. Two passes per file: a scope walk that
/// finds function definitions (namespace- and class-scope brace bodies whose
/// statement head carries a parameter list), then a linear body scan per
/// function that records call sites, lambdas (captures + worker-ness),
/// writes with the held-mutex set, and clock reads. Both passes share the
/// statement-head machinery proven out by the mutable-global rule.

#include "lint/index.hpp"

#include <algorithm>
#include <optional>
#include <utility>

namespace alert::analysis_tools {

namespace {

const std::set<std::string>& keyword_set() {
  static const std::set<std::string> kKeywords{
      "alignas",  "alignof",  "auto",     "bool",       "break",
      "case",     "catch",    "char",     "class",      "co_await",
      "co_return", "co_yield", "concept", "const",      "constexpr",
      "constinit", "continue", "decltype", "default",   "delete",
      "do",       "double",   "else",     "enum",       "explicit",
      "extern",   "false",    "float",    "for",        "friend",
      "goto",     "if",       "inline",   "int",        "long",
      "mutable",  "namespace", "new",     "noexcept",   "nullptr",
      "operator", "private",  "protected", "public",    "register",
      "requires", "return",   "short",    "signed",     "sizeof",
      "static",   "static_assert", "struct", "switch",  "template",
      "this",     "throw",    "true",     "try",        "typedef",
      "typename", "union",    "unsigned", "using",      "virtual",
      "void",     "volatile", "while"};
  return kKeywords;
}

bool is_keyword(const std::string& text) {
  return keyword_set().count(text) != 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Names the token heads that make a following '(' a control construct or
/// operator rather than a named call / function definition.
bool is_control_callee(const std::string& text) {
  static const std::set<std::string> kControl{
      "if",     "for",    "while",  "switch",   "catch",  "return",
      "sizeof", "alignof", "alignas", "decltype", "static_assert",
      "noexcept", "throw", "assert"};
  return kControl.count(text) != 0;
}

/// Builtin type keywords that can open a declaration (shared by the
/// declaration tests in declared_names() and match_write()).
const std::set<std::string>& type_keywords() {
  static const std::set<std::string> kTypeKeywords{
      "auto", "bool",  "char",     "double",   "float", "int",
      "long", "short", "signed",   "unsigned", "void",  "wchar_t",
      "const"};
  return kTypeKeywords;
}

enum class Ctx { Namespace, Class, Function, Init };

struct Scope {
  Ctx ctx = Ctx::Namespace;
  std::string class_name;  ///< set for Ctx::Class
};

/// Name of the class/struct/union/enum declared by this statement head,
/// skipping a leading template parameter list.
std::string class_name_of(const CodeView& v,
                          const std::vector<std::size_t>& stmt) {
  std::size_t start = 0;
  if (!stmt.empty() && v.tok(stmt[0]).text == "template") {
    std::size_t depth = 0;
    for (std::size_t s = 1; s < stmt.size(); ++s) {
      const std::string& t = v.tok(stmt[s]).text;
      if (t == "<") {
        ++depth;
      } else if (t == ">") {
        if (--depth == 0) { start = s + 1; break; }
      } else if (t == ">>") {
        if (depth <= 2) { start = s + 1; break; }
        depth -= 2;
      }
    }
  }
  for (std::size_t s = start; s < stmt.size(); ++s) {
    const std::string& t = v.tok(stmt[s]).text;
    if (t != "class" && t != "struct" && t != "union" && t != "enum")
      continue;
    for (std::size_t n = s + 1; n < stmt.size(); ++n) {
      const Token& tok = v.tok(stmt[n]);
      if (tok.kind != TokenKind::Identifier) break;
      if (tok.text == "class" || tok.text == "struct" ||
          tok.text == "final" || tok.text == "alignas") {
        continue;
      }
      return tok.text;
    }
    break;
  }
  return {};
}

/// Try to read the statement head as a function signature: the identifier
/// immediately before the first top-level '(' names the function. Rejects
/// control constructs, destructors, operators and `=`-initialized heads.
bool signature_name(const CodeView& v, const std::vector<std::size_t>& stmt,
                    const std::string& class_ctx, FunctionInfo* out) {
  std::size_t open = stmt.size();
  for (std::size_t s = 0; s < stmt.size(); ++s) {
    const std::string& t = v.tok(stmt[s]).text;
    if (t == "=") return false;  // initialized declaration, not a signature
    if (is_control_callee(t)) return false;
    if (t == "(") { open = s; break; }
  }
  if (open == stmt.size() || open == 0) return false;
  const Token& name = v.tok(stmt[open - 1]);
  if (name.kind != TokenKind::Identifier || is_keyword(name.text))
    return false;
  if (open >= 2 && v.tok(stmt[open - 2]).text == "~") return false;
  out->name = name.text;
  out->line = name.line;
  if (open >= 3 && v.tok(stmt[open - 2]).text == "::" &&
      v.tok(stmt[open - 3]).kind == TokenKind::Identifier) {
    out->qualified = v.tok(stmt[open - 3]).text + "::" + name.text;
  } else if (!class_ctx.empty()) {
    out->qualified = class_ctx + "::" + name.text;
  } else {
    out->qualified = name.text;
  }
  return true;
}

/// Skip a template argument list opening at `i` ('<'); returns the index
/// one past the matching '>', or `i` when the list never closes.
std::size_t skip_template_args(const CodeView& v, std::size_t i) {
  std::size_t depth = 0;
  for (std::size_t j = i; j < v.size(); ++j) {
    const std::string& t = v.tok(j).text;
    if (t == "<") {
      ++depth;
    } else if (t == ">") {
      if (--depth == 0) return j + 1;
    } else if (t == ">>") {
      if (depth <= 2) return j + 1;
      depth -= 2;
    } else if (t == ";" || t == "{") {
      break;  // not a template argument list after all
    }
  }
  return i;
}

/// Collects the lambdas whose introducer '[' lies in (begin, end). A '[' is
/// a lambda when it is not a subscript (previous token is not an identifier,
/// ']' or ')') and a body '{' follows the capture list within a few tokens.
std::vector<LambdaInfo> scan_lambdas(const CodeView& v, std::size_t begin,
                                     std::size_t end) {
  std::vector<LambdaInfo> out;
  for (std::size_t i = begin + 1; i < end; ++i) {
    if (!v.is_punct(i, "[")) continue;
    if (i > 0) {
      const Token& prev = v.tok(i - 1);
      const bool subscript =
          (prev.kind == TokenKind::Identifier && !is_keyword(prev.text)) ||
          prev.text == "]" || prev.text == ")";
      if (subscript) continue;
      if (prev.text == "[") continue;  // inside an attribute
    }
    const std::size_t close = v.matching(i, "[", "]");
    if (close >= end) continue;

    LambdaInfo lam;
    lam.intro = i;
    lam.line = v.tok(i).line;
    // Capture list: top-level comma-separated entries.
    std::size_t item = i + 1;
    while (item < close) {
      std::size_t item_end = item;
      std::size_t depth = 0;
      for (; item_end < close; ++item_end) {
        const std::string& t = v.tok(item_end).text;
        if (t == "(" || t == "[" || t == "{" || t == "<") ++depth;
        if ((t == ")" || t == "]" || t == "}" || t == ">") && depth > 0)
          --depth;
        if (t == "," && depth == 0) break;
      }
      Capture c;
      std::size_t k = item;
      if (v.is_punct(k, "&")) {
        c.by_ref = true;
        ++k;
      } else if (v.is_punct(k, "=")) {
        c.is_default = true;
        ++k;
      } else if (v.is_punct(k, "*")) {
        ++k;  // *this
      }
      if (k < item_end && v.tok(k).kind == TokenKind::Identifier) {
        if (v.tok(k).text != "this") c.name = v.tok(k).text;
      } else if (c.by_ref && k >= item_end) {
        c.is_default = true;  // bare [&]
      }
      lam.captures.push_back(c);
      item = item_end + 1;
    }

    // Optional parameter list, then specifiers, then the body '{'.
    std::size_t j = close + 1;
    if (v.is_punct(j, "(")) {
      const std::size_t pclose = v.matching(j, "(", ")");
      if (pclose >= end) continue;
      // Parameter names: last identifier of each top-level comma piece,
      // before any '=' default argument.
      std::size_t depth = 0;
      std::string last_ident;
      bool saw_default = false;
      for (std::size_t p = j + 1; p <= pclose; ++p) {
        const std::string& t = v.tok(p).text;
        if (p == pclose || (t == "," && depth == 0)) {
          if (!last_ident.empty()) lam.params.insert(last_ident);
          last_ident.clear();
          saw_default = false;
          continue;
        }
        if (t == "(" || t == "[" || t == "{" || t == "<") ++depth;
        if ((t == ")" || t == "]" || t == "}" || t == ">") && depth > 0)
          --depth;
        if (t == "=" && depth == 0) saw_default = true;
        if (!saw_default && depth == 0 &&
            v.tok(p).kind == TokenKind::Identifier && !is_keyword(t)) {
          last_ident = t;
        }
      }
      j = pclose + 1;
    }
    bool found_body = false;
    for (std::size_t guard = 0; guard < 16 && j < end; ++guard, ++j) {
      if (v.is_punct(j, "{")) {
        found_body = true;
        break;
      }
      if (v.is_punct(j, ";") || v.is_punct(j, ")") || v.is_punct(j, ",") ||
          v.is_punct(j, "]")) {
        break;
      }
    }
    if (!found_body) continue;
    lam.body_begin = j;
    lam.body_end = v.matching(j, "{", "}");
    if (lam.body_end >= end) continue;
    out.push_back(std::move(lam));
  }
  return out;
}

/// Normalized text of a lock-guard constructor operand: tokens joined,
/// leading '&' and `this->` stripped. Empty for tag operands
/// (std::adopt_lock and friends).
std::string normalize_mutex(const CodeView& v, std::size_t begin,
                            std::size_t end) {
  std::string out;
  for (std::size_t k = begin; k < end; ++k) {
    const std::string& t = v.tok(k).text;
    if (t == "adopt_lock" || t == "defer_lock" || t == "try_to_lock")
      return {};
    if (out.empty() && (t == "&" || t == "std" || t == "::")) continue;
    if (out.empty() && t == "this") {
      if (k + 1 < end && v.tok(k + 1).text == "->") ++k;
      continue;
    }
    out += t;
  }
  return out;
}

struct BodyScanner {
  const CodeView& v;
  FunctionInfo& fn;
  const std::vector<std::string>& worker_entry_points;

  struct ParenFrame {
    std::string callee;
  };
  std::vector<ParenFrame> parens;
  /// Per open brace scope, the mutexes its lock guards acquired.
  std::vector<std::set<std::string>> braces;

  [[nodiscard]] std::set<std::string> held_mutexes() const {
    std::set<std::string> held;
    for (const std::set<std::string>& b : braces) {
      held.insert(b.begin(), b.end());
    }
    return held;
  }

  /// Innermost lambda whose body contains `j`, -1 when outside all.
  [[nodiscard]] int lambda_at(std::size_t j) const {
    int best = -1;
    for (std::size_t li = 0; li < fn.lambdas.size(); ++li) {
      const LambdaInfo& l = fn.lambdas[li];
      if (l.body_begin < j && j < l.body_end &&
          (best < 0 ||
           l.body_begin > fn.lambdas[static_cast<std::size_t>(best)]
                              .body_begin)) {
        best = static_cast<int>(li);
      }
    }
    return best;
  }

  /// True when `j` lies inside any worker lambda's body (nested lambdas
  /// inside a worker body still run on pool threads).
  [[nodiscard]] bool in_worker(std::size_t j) const {
    for (const LambdaInfo& l : fn.lambdas) {
      if (l.worker && l.body_begin < j && j < l.body_end) return true;
    }
    return false;
  }

  void record_call(std::size_t open) {
    // `ident (` — but `Type name(` declarations, control constructs,
    // keywords and `new Type(` constructor operands are not call sites.
    if (open == 0) return;
    const Token& callee = v.tok(open - 1);
    if (callee.kind != TokenKind::Identifier || is_keyword(callee.text) ||
        is_control_callee(callee.text)) {
      return;
    }
    std::size_t c = open - 1;
    if (c >= 1) {
      const Token& before = v.tok(c - 1);
      if (before.kind == TokenKind::Identifier && !is_keyword(before.text))
        return;  // `Type name(` declaration
      if (before.text == ">" || before.text == "*" || before.text == "&" ||
          before.text == "new") {
        return;  // `Type<..> name(` / `Type* name(` / `new Type(`
      }
    }
    CallSite site;
    site.callee = callee.text;
    site.line = callee.line;
    site.column = callee.column;
    if (c >= 2) {
      const std::string& acc = v.tok(c - 1).text;
      if ((acc == "::" || acc == "." || acc == "->") &&
          v.tok(c - 2).kind == TokenKind::Identifier) {
        site.qualifier = v.tok(c - 2).text;
        site.scope_qualified = acc == "::";
      }
    }
    fn.calls.push_back(std::move(site));
  }

  /// Parse a lock declaration at `j`; returns tokens consumed (0 = no
  /// match). Pattern: [std ::] lock_guard|scoped_lock|unique_lock|
  /// shared_lock [<...>] name ( operands ) — operands join the current
  /// brace scope's held set.
  std::size_t match_lock(std::size_t j) {
    static const std::set<std::string> kGuards{
        "lock_guard", "scoped_lock", "unique_lock", "shared_lock"};
    if (v.tok(j).kind != TokenKind::Identifier ||
        kGuards.count(v.tok(j).text) == 0) {
      return 0;
    }
    std::size_t k = j + 1;
    if (v.is_punct(k, "<")) {
      const std::size_t past = skip_template_args(v, k);
      if (past == k) return 0;
      k = past;
    }
    if (k >= v.size() || v.tok(k).kind != TokenKind::Identifier) return 0;
    ++k;  // guard variable name
    const bool paren = v.is_punct(k, "(");
    if (!paren && !v.is_punct(k, "{")) return 0;
    const std::size_t close =
        paren ? v.matching(k, "(", ")") : v.matching(k, "{", "}");
    if (close >= v.size()) return 0;

    std::set<std::string> mutexes;
    std::size_t item = k + 1;
    std::size_t depth = 0;
    for (std::size_t p = k + 1; p <= close; ++p) {
      const std::string& t = v.tok(p).text;
      if (p == close || (t == "," && depth == 0)) {
        std::string m = normalize_mutex(v, item, p);
        if (!m.empty()) mutexes.insert(std::move(m));
        item = p + 1;
        continue;
      }
      if (t == "(" || t == "[" || t == "{" || t == "<") ++depth;
      if ((t == ")" || t == "]" || t == "}" || t == ">") && depth > 0)
        --depth;
    }
    if (mutexes.empty()) return 0;
    if (!braces.empty()) braces.back().insert(mutexes.begin(), mutexes.end());
    return close - j + 1;
  }

  /// At an identifier starting an lvalue chain: follow `.x`, `->x` and
  /// `[...]` segments (subscripts elided from the target name); a trailing
  /// assignment/increment operator or mutating container call records a
  /// write.
  void match_write(std::size_t j) {
    static const std::set<std::string> kAssign{
        "=",  "+=", "-=", "*=", "/=", "%=",
        "|=", "&=", "^=", "<<=", ">>=", "++", "--"};
    static const std::set<std::string> kMutators{
        "push_back", "emplace_back", "emplace", "insert", "erase",
        "clear",     "resize",       "pop_back", "assign", "merge"};
    const Token& head = v.tok(j);
    if (head.kind != TokenKind::Identifier || is_keyword(head.text)) return;
    if (v.prev_is_accessor(j)) return;
    // A declaration initializer (`int total = 0;`, `Foo f = make();`) is
    // not a write for race purposes: the variable must exist before any
    // lambda can capture it, so the initialization happens-before every
    // worker task. Same type-position test as declared_names().
    if (j > 0) {
      const Token& prev = v.tok(j - 1);
      const bool type_prev =
          (prev.kind == TokenKind::Identifier &&
           (!is_keyword(prev.text) || type_keywords().count(prev.text) != 0)) ||
          prev.text == ">" || prev.text == "&" || prev.text == "*";
      if (type_prev) return;
    }

    std::string target = head.text;
    std::size_t k = j + 1;
    std::string method;  // trailing mutating-call name, if any
    while (k < v.size()) {
      if (v.is_punct(k, "[")) {
        const std::size_t close = v.matching(k, "[", "]");
        if (close >= v.size()) return;
        k = close + 1;
        continue;
      }
      if ((v.is_punct(k, ".") || v.is_punct(k, "->")) && k + 1 < v.size() &&
          v.tok(k + 1).kind == TokenKind::Identifier) {
        if (kMutators.count(v.tok(k + 1).text) != 0 &&
            v.is_punct(k + 2, "(")) {
          method = v.tok(k + 1).text;
          break;
        }
        target += "." + v.tok(k + 1).text;
        k += 2;
        continue;
      }
      break;
    }
    const bool pre_incremented =
        j > 0 && (v.tok(j - 1).text == "++" || v.tok(j - 1).text == "--");
    const bool assigned =
        pre_incremented ||
        (method.empty() && k < v.size() &&
         v.tok(k).kind == TokenKind::Punct &&
         kAssign.count(v.tok(k).text) != 0);
    if (!assigned && method.empty()) return;
    if (target == "this") return;

    WriteSite w;
    w.target = std::move(target);
    w.line = head.line;
    w.column = head.column;
    w.lambda = lambda_at(j);
    w.in_worker = in_worker(j);
    w.held_mutexes = held_mutexes();
    fn.writes.push_back(std::move(w));
  }

  void run() {
    braces.push_back({});  // the function body scope itself
    std::size_t j = fn.body_begin + 1;
    while (j < fn.body_end) {
      const std::string& t = v.tok(j).text;
      if (t == "{") {
        braces.push_back({});
        ++j;
        continue;
      }
      if (t == "}") {
        if (braces.size() > 1) braces.pop_back();
        ++j;
        continue;
      }
      if (t == "(") {
        std::string callee;
        if (j > 0 && v.tok(j - 1).kind == TokenKind::Identifier &&
            !is_keyword(v.tok(j - 1).text)) {
          callee = v.tok(j - 1).text;
        }
        record_call(j);
        parens.push_back({std::move(callee)});
        ++j;
        continue;
      }
      if (t == ")") {
        if (!parens.empty()) parens.pop_back();
        ++j;
        continue;
      }
      if (t == "[") {
        // Worker-ness: a lambda introducer whose innermost open paren was
        // opened by a worker entry point (pool.submit(...) /
        // parallel_for(n, ...)).
        for (LambdaInfo& l : fn.lambdas) {
          if (l.intro == j && !parens.empty()) {
            const std::string& callee = parens.back().callee;
            l.worker =
                std::find(worker_entry_points.begin(),
                          worker_entry_points.end(),
                          callee) != worker_entry_points.end();
          }
        }
        ++j;
        continue;
      }
      const std::size_t lock_len = match_lock(j);
      if (lock_len != 0) {
        j += lock_len;
        continue;
      }
      if (std::optional<ClockUse> use = clock_read_at(v, j)) {
        fn.clock_uses.push_back(std::move(*use));
      }
      match_write(j);
      ++j;
    }
  }
};

/// RNG-engine variable names declared in this file: `[util::|std::] EngineType
/// [&*const]* name`, plus identifiers literally named `rng` or `*_rng`.
std::set<std::string> collect_rng_vars(const CodeView& v) {
  static const std::set<std::string> kEngines{
      "Rng",          "mt19937",      "mt19937_64",
      "minstd_rand",  "minstd_rand0", "default_random_engine",
      "ranlux24",     "ranlux48",     "knuth_b"};
  std::set<std::string> out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const Token& t = v.tok(i);
    if (t.kind != TokenKind::Identifier) continue;
    if (t.text == "rng" || ends_with(t.text, "_rng")) {
      out.insert(t.text);
      continue;
    }
    if (kEngines.count(t.text) == 0) continue;
    std::size_t k = i + 1;
    while (v.is_punct(k, "&") || v.is_punct(k, "*") ||
           v.is_ident(k, "const")) {
      ++k;
    }
    if (k < v.size() && v.tok(k).kind == TokenKind::Identifier &&
        !is_keyword(v.tok(k).text)) {
      out.insert(v.tok(k).text);
    }
  }
  return out;
}

}  // namespace

std::optional<ClockUse> clock_read_at(const CodeView& v, std::size_t j) {
  static const std::set<std::string> kClockTypes{
      "system_clock", "steady_clock", "high_resolution_clock"};
  static const std::set<std::string> kClockCalls{
      "time", "clock", "gettimeofday", "clock_gettime", "localtime",
      "gmtime"};
  const Token& t = v.tok(j);
  if (t.kind != TokenKind::Identifier) return std::nullopt;
  if (kClockTypes.count(t.text) != 0 && v.is_punct(j + 1, "::") &&
      v.is_ident(j + 2, "now")) {
    return ClockUse{"std::chrono::" + t.text + "::now()", t.line, t.column};
  }
  if (kClockCalls.count(t.text) != 0 && v.is_punct(j + 1, "(") &&
      !v.prev_is_accessor(j)) {
    return ClockUse{t.text + "()", t.line, t.column};
  }
  return std::nullopt;
}

std::set<std::string> declared_names(const FileData& file, std::size_t begin,
                                     std::size_t end) {
  const CodeView v(file);
  std::set<std::string> out;
  const std::size_t stop = std::min(end, v.size());
  for (std::size_t i = begin + 1; i < stop; ++i) {
    const Token& t = v.tok(i);
    if (t.kind != TokenKind::Identifier || is_keyword(t.text)) continue;
    const Token& prev = v.tok(i - 1);
    const bool type_prev =
        (prev.kind == TokenKind::Identifier &&
         (!is_keyword(prev.text) || type_keywords().count(prev.text) != 0)) ||
        prev.text == ">" || prev.text == "&" || prev.text == "*";
    if (!type_prev) continue;
    if (prev.kind == TokenKind::Identifier && v.prev_is_accessor(i - 1))
      continue;  // member chain `a.b c`? no — `a.b` then ident: not a decl
    if (i + 1 < v.size()) {
      const std::string& next = v.tok(i + 1).text;
      if (next == "=" || next == ";" || next == "," || next == ")" ||
          next == "{" || next == "(" || next == "[" || next == ":") {
        out.insert(t.text);
      }
    }
  }
  return out;
}

const std::vector<std::string>& default_worker_entry_points() {
  static const std::vector<std::string> kDefaults{"submit", "parallel_for"};
  return kDefaults;
}

FileIndex index_file(const FileData& file) {
  return index_file(file, default_worker_entry_points());
}

FileIndex index_file(const FileData& file,
                     const std::vector<std::string>& worker_entry_points) {
  FileIndex out;
  const CodeView v(file);
  out.rng_vars = collect_rng_vars(v);

  std::vector<Scope> stack{{Ctx::Namespace, {}}};
  std::vector<std::size_t> stmt;
  std::size_t paren_depth = 0;

  auto contains = [&](const char* word) {
    return std::any_of(stmt.begin(), stmt.end(), [&](std::size_t k) {
      return v.tok(k).text == word;
    });
  };

  for (std::size_t i = 0; i < v.size(); ++i) {
    const std::string& t = v.tok(i).text;
    const bool in_init = stack.back().ctx == Ctx::Init;
    if (t == "{") {
      if (in_init) {
        stack.push_back({Ctx::Init, {}});
        continue;
      }
      const bool control_tail =
          !stmt.empty() && (v.tok(stmt.back()).text == "do" ||
                            v.tok(stmt.back()).text == "else" ||
                            v.tok(stmt.back()).text == "try");
      if (contains("namespace")) {
        stack.push_back({Ctx::Namespace, {}});
      } else if (contains("class") || contains("struct") ||
                 contains("union") || contains("enum")) {
        stack.push_back({Ctx::Class, class_name_of(v, stmt)});
      } else if (control_tail || contains("(")) {
        const Ctx here = stack.back().ctx;
        if (!control_tail &&
            (here == Ctx::Namespace || here == Ctx::Class)) {
          FunctionInfo fn;
          if (signature_name(v, stmt, stack.back().class_name, &fn)) {
            fn.file = &file;
            fn.body_begin = i;
            fn.body_end = v.matching(i, "{", "}");
            if (fn.body_end < v.size()) out.functions.push_back(std::move(fn));
          }
        }
        stack.push_back({Ctx::Function, {}});
      } else if (!stmt.empty() &&
                 (contains("=") ||
                  v.tok(stmt.back()).kind == TokenKind::Identifier ||
                  v.tok(stmt.back()).text == ">")) {
        stack.push_back({Ctx::Init, {}});
        continue;  // the statement continues past the initializer
      } else {
        stack.push_back({Ctx::Function, {}});
      }
      stmt.clear();
      paren_depth = 0;
      continue;
    }
    if (t == "}") {
      const bool was_init = stack.back().ctx == Ctx::Init;
      if (stack.size() > 1) stack.pop_back();
      if (!was_init) {
        stmt.clear();
        paren_depth = 0;
      }
      continue;
    }
    if (in_init) continue;
    if (t == "(") ++paren_depth;
    if (t == ")" && paren_depth > 0) --paren_depth;
    if (t == ";" && paren_depth == 0) {
      stmt.clear();
      continue;
    }
    stmt.push_back(i);
  }

  for (FunctionInfo& fn : out.functions) {
    fn.lambdas = scan_lambdas(v, fn.body_begin, fn.body_end);
    BodyScanner scanner{v, fn, worker_entry_points, {}, {}};
    scanner.run();
  }
  return out;
}

ProgramIndex::ProgramIndex(const std::vector<FileData>& files,
                           std::vector<FileIndex> slices) {
  for (std::size_t i = 0; i < files.size() && i < slices.size(); ++i) {
    if (!slices[i].rng_vars.empty()) {
      rng_vars_[files[i].rel_path] = std::move(slices[i].rng_vars);
    }
    for (FunctionInfo& fn : slices[i].functions) {
      functions_.push_back(std::move(fn));
    }
  }
  for (std::size_t fi = 0; fi < functions_.size(); ++fi) {
    by_name_[functions_[fi].name].push_back(fi);
    by_qualified_[functions_[fi].qualified].push_back(fi);
  }
}

ProgramIndex::ProgramIndex(const std::vector<FileData>& files)
    : ProgramIndex(files, [&files] {
        std::vector<FileIndex> slices;
        slices.reserve(files.size());
        for (const FileData& f : files) slices.push_back(index_file(f));
        return slices;
      }()) {}

const std::vector<std::size_t>& ProgramIndex::by_name(
    const std::string& name) const {
  static const std::vector<std::size_t> kEmpty;
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? kEmpty : it->second;
}

const std::vector<std::size_t>& ProgramIndex::by_qualified(
    const std::string& qualified) const {
  static const std::vector<std::size_t> kEmpty;
  const auto it = by_qualified_.find(qualified);
  return it == by_qualified_.end() ? kEmpty : it->second;
}

const std::set<std::string>& ProgramIndex::rng_vars(
    const std::string& rel_path) const {
  static const std::set<std::string> kEmpty;
  const auto it = rng_vars_.find(rel_path);
  return it == rng_vars_.end() ? kEmpty : it->second;
}

}  // namespace alert::analysis_tools
