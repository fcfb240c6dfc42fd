#include "lint/file_data.hpp"

#include <utility>

#include "lint/lexer.hpp"

namespace alert::analysis_tools {

namespace {

/// Parse a waiver out of one comment token's text (the alert-lint tag, then
/// allow and a parenthesised, comma-separated rule list) and record the
/// rules for the comment's line. The syntax is inherited from the retired
/// Python alert-lint so existing waivers keep working.
void parse_waiver(const Token& comment,
                  std::map<std::size_t, std::set<std::string>>* waivers) {
  static constexpr std::string_view kTag = "alert-lint:";
  const std::string& text = comment.text;
  const std::size_t tag = text.find(kTag);
  if (tag == std::string::npos) return;
  std::size_t i = text.find("allow", tag + kTag.size());
  if (i == std::string::npos) return;
  i = text.find('(', i);
  if (i == std::string::npos) return;
  const std::size_t close = text.find(')', i);
  if (close == std::string::npos) return;
  std::set<std::string>& rules = (*waivers)[comment.line];
  std::string cur;
  for (std::size_t j = i + 1; j <= close; ++j) {
    const char c = text[j];
    if (c == ',' || c == ')') {
      if (!cur.empty()) rules.insert(cur);
      cur.clear();
    } else if (c != ' ' && c != '\t') {
      cur.push_back(c);
    }
  }
}

}  // namespace

FileData build_file_data(std::string rel_path, std::string source) {
  FileData f;
  f.rel_path = std::move(rel_path);
  f.source = std::move(source);
  f.tokens = lex(f.source);
  f.code.reserve(f.tokens.size());
  for (std::size_t i = 0; i < f.tokens.size(); ++i) {
    const Token& t = f.tokens[i];
    if (t.kind == TokenKind::Preprocessor) {
      // A trailing comment on a directive line is part of the raw
      // Preprocessor token, so waivers on #include lines live here.
      parse_waiver(t, &f.waivers);
    } else if (is_code(t)) {
      f.code.push_back(i);
    } else if (t.kind == TokenKind::LineComment ||
               t.kind == TokenKind::BlockComment) {
      parse_waiver(t, &f.waivers);
    }
  }
  return f;
}

std::size_t CodeView::matching(std::size_t open_i, std::string_view open,
                               std::string_view close) const {
  std::size_t depth = 0;
  for (std::size_t i = open_i; i < size(); ++i) {
    const std::string& t = tok(i).text;
    if (t == open) {
      ++depth;
    } else if (t == close) {
      if (--depth == 0) return i;
    }
  }
  return size();
}

std::size_t read_member_chain(const CodeView& v, std::size_t i,
                              std::vector<std::string>* out) {
  if (i >= v.size() || v.tok(i).kind != TokenKind::Identifier) return i;
  std::vector<std::string> chain{v.tok(i).text};
  std::size_t j = i + 1;
  while (j + 1 < v.size() &&
         (v.is_punct(j, ".") || v.is_punct(j, "->")) &&
         v.tok(j + 1).kind == TokenKind::Identifier) {
    chain.push_back(v.tok(j).text);
    chain.push_back(v.tok(j + 1).text);
    j += 2;
  }
  out->insert(out->end(), chain.begin(), chain.end());
  return j;
}

}  // namespace alert::analysis_tools
