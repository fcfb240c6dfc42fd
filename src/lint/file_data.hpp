#pragma once

/// \file file_data.hpp
/// Per-file analysis input: the lexed token stream, an index of code tokens
/// (comments/preprocessor filtered out) for structural matching, the inline
/// waiver map parsed from alert-lint allow comments (syntax in
/// docs/VERIFICATION.md), and small token-pattern helpers shared by the
/// rules.

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint/token.hpp"

namespace alert::analysis_tools {

struct FileData {
  std::string rel_path;  ///< forward-slash path relative to the scan root
  std::string source;
  TokenStream tokens;
  /// Indices into `tokens` of code tokens only, in order.
  std::vector<std::size_t> code;
  /// line -> rules waived on that line.
  std::map<std::size_t, std::set<std::string>> waivers;

  [[nodiscard]] bool waived(std::size_t line, const std::string& rule) const {
    const auto it = waivers.find(line);
    return it != waivers.end() && it->second.count(rule) != 0;
  }
};

/// Lex `source` and derive the code index and waiver map.
[[nodiscard]] FileData build_file_data(std::string rel_path,
                                       std::string source);

/// View over the code tokens of a file: rules match structure against this
/// (i < size() indexes code tokens, not raw tokens).
class CodeView {
 public:
  explicit CodeView(const FileData& f) : file_(&f) {}

  [[nodiscard]] std::size_t size() const { return file_->code.size(); }
  [[nodiscard]] const Token& tok(std::size_t i) const {
    return file_->tokens[file_->code[i]];
  }
  [[nodiscard]] bool is_ident(std::size_t i, std::string_view text) const {
    return i < size() && tok(i).kind == TokenKind::Identifier &&
           tok(i).text == text;
  }
  [[nodiscard]] bool is_punct(std::size_t i, std::string_view text) const {
    return i < size() && tok(i).kind == TokenKind::Punct &&
           tok(i).text == text;
  }

  /// Index of the punct matching the opener at `open_i` (e.g. "(" -> ")"),
  /// or size() when unbalanced. `open_i` must hold `open`.
  [[nodiscard]] std::size_t matching(std::size_t open_i,
                                     std::string_view open,
                                     std::string_view close) const;

  /// True when the code token before `i` is one of the member/scope
  /// accessors that disqualify a bare-identifier match (".", "->", "::").
  [[nodiscard]] bool prev_is_accessor(std::size_t i) const {
    if (i == 0) return false;
    const std::string& p = tok(i - 1).text;
    return p == "." || p == "->" || p == "::";
  }

 private:
  const FileData* file_;
};

/// If the code tokens starting at `i` form a member chain
/// `ident ((. | ->) ident)*`, return the index one past its end and append
/// the chain's token texts (identifiers and accessors) to `out`; otherwise
/// return `i`.
std::size_t read_member_chain(const CodeView& v, std::size_t i,
                              std::vector<std::string>* out);

}  // namespace alert::analysis_tools
