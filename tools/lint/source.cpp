#include "lint/source.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace pfact_lint {

namespace {

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Multi-character punctuators, longest-match-first. Only the ones a rule
// could care to see as one token; everything else falls through to single
// characters.
const char* kPunct3[] = {"<<=", ">>=", "...", "->*"};
const char* kPunct2[] = {"::", "->", "<<", ">>", "<=", ">=", "==", "!=",
                         "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=",
                         "|=", "^=", "++", "--", "##"};

struct Cursor {
  const std::string& s;
  std::size_t i = 0;
  int line = 1;

  bool done() const { return i >= s.size(); }
  char at(std::size_t off = 0) const {
    return i + off < s.size() ? s[i + off] : '\0';
  }
  void advance() {
    if (s[i] == '\n') ++line;
    ++i;
  }
};

}  // namespace

void tokenize(const std::string& text, SourceFile& out) {
  out.text = text;
  out.scrub = text;
  out.tokens.clear();
  out.includes.clear();
  Cursor c{text};

  auto blank_scrub = [&](std::size_t from, std::size_t to) {
    for (std::size_t k = from; k < to; ++k) {
      if (out.scrub[k] != '\n') out.scrub[k] = ' ';
    }
  };
  auto push = [&](TokKind kind, std::size_t begin, std::size_t end,
                  int line) {
    out.tokens.push_back(
        {kind, text.substr(begin, end - begin), begin, end, line});
  };

  bool at_line_start = true;  // only whitespace seen since the last newline
  while (!c.done()) {
    const char ch = c.at();

    // Preprocessor directive: recognize #include and extract its path; the
    // directive's tokens are then emitted like ordinary code so macro call
    // sites inside #define bodies stay visible to the rules.
    if (ch == '#' && at_line_start) {
      std::size_t j = c.i + 1;
      while (j < text.size() && (text[j] == ' ' || text[j] == '\t')) ++j;
      std::size_t k = j;
      while (k < text.size() && is_ident_char(text[k])) ++k;
      const std::string directive = text.substr(j, k - j);
      if (directive == "include") {
        while (k < text.size() && (text[k] == ' ' || text[k] == '\t')) ++k;
        if (k < text.size() && (text[k] == '"' || text[k] == '<')) {
          const char close = text[k] == '"' ? '"' : '>';
          const std::size_t p0 = k + 1;
          std::size_t p1 = p0;
          while (p1 < text.size() && text[p1] != close && text[p1] != '\n')
            ++p1;
          out.includes.push_back(
              {text.substr(p0, p1 - p0), close == '>', c.line});
        }
      }
      // Fall through: the '#' itself becomes a punct token and the rest of
      // the line tokenizes normally.
    }
    at_line_start = at_line_start && (ch == ' ' || ch == '\t');
    if (ch == '\n') at_line_start = true;

    if (ch == '/' && c.at(1) == '/') {
      const std::size_t begin = c.i;
      while (!c.done() && c.at() != '\n') c.advance();
      blank_scrub(begin, c.i);
      continue;
    }
    if (ch == '/' && c.at(1) == '*') {
      const std::size_t begin = c.i;
      c.advance();
      c.advance();
      while (!c.done() && !(c.at() == '*' && c.at(1) == '/')) c.advance();
      if (!c.done()) {
        c.advance();
        c.advance();
      }
      blank_scrub(begin, c.i);
      continue;
    }

    // Raw string literal: R"delim( ... )delim". The scrub keeps it (string
    // contents are data some rules read), tokens carry the full literal.
    if (ch == 'R' && c.at(1) == '"' &&
        (out.tokens.empty() ||
         !(out.tokens.back().kind == TokKind::kIdent &&
           out.tokens.back().end == c.i))) {
      const std::size_t begin = c.i;
      const int line = c.line;
      std::size_t j = c.i + 2;
      std::string delim;
      while (j < text.size() && text[j] != '(') delim += text[j++];
      const std::string closer = ")" + delim + "\"";
      const std::size_t close = text.find(closer, j);
      const std::size_t end =
          close == std::string::npos ? text.size() : close + closer.size();
      while (c.i < end && !c.done()) c.advance();
      push(TokKind::kString, begin, c.i, line);
      continue;
    }

    if (ch == '"' || ch == '\'') {
      const std::size_t begin = c.i;
      const int line = c.line;
      const char quote = ch;
      c.advance();
      while (!c.done() && c.at() != quote) {
        if (c.at() == '\\' && c.i + 1 < text.size()) c.advance();
        if (c.at() == '\n') break;  // unterminated: stop at the line end
        c.advance();
      }
      if (!c.done() && c.at() == quote) c.advance();
      push(quote == '"' ? TokKind::kString : TokKind::kChar, begin, c.i,
           line);
      continue;
    }

    if (is_ident_start(ch)) {
      const std::size_t begin = c.i;
      const int line = c.line;
      while (!c.done() && is_ident_char(c.at())) c.advance();
      push(TokKind::kIdent, begin, c.i, line);
      continue;
    }

    if (std::isdigit(static_cast<unsigned char>(ch))) {
      const std::size_t begin = c.i;
      const int line = c.line;
      // pp-number: digits, idents, dots, and exponent signs.
      while (!c.done() &&
             (is_ident_char(c.at()) || c.at() == '.' ||
              ((c.at() == '+' || c.at() == '-') &&
               (text[c.i - 1] == 'e' || text[c.i - 1] == 'E' ||
                text[c.i - 1] == 'p' || text[c.i - 1] == 'P')))) {
        c.advance();
      }
      push(TokKind::kNumber, begin, c.i, line);
      continue;
    }

    if (std::isspace(static_cast<unsigned char>(ch))) {
      c.advance();
      continue;
    }

    // Punctuator: longest match.
    {
      const std::size_t begin = c.i;
      const int line = c.line;
      std::size_t len = 1;
      for (const char* p : kPunct3) {
        if (text.compare(c.i, 3, p) == 0) {
          len = 3;
          break;
        }
      }
      if (len == 1) {
        for (const char* p : kPunct2) {
          if (text.compare(c.i, 2, p) == 0) {
            len = 2;
            break;
          }
        }
      }
      for (std::size_t k = 0; k < len; ++k) c.advance();
      push(TokKind::kPunct, begin, c.i, line);
    }
  }

  // --- function-definition scan over the token stream -----------------------
  const std::vector<Token>& t = out.tokens;
  auto is_punct = [&](std::size_t i, const char* p) {
    return i < t.size() && t[i].kind == TokKind::kPunct && t[i].text == p;
  };
  auto match_back = [&](std::size_t close) -> std::ptrdiff_t {
    // Index of the '(' matching the ')' at `close`, or -1.
    int depth = 0;
    for (std::ptrdiff_t i = static_cast<std::ptrdiff_t>(close); i >= 0; --i) {
      if (is_punct(static_cast<std::size_t>(i), ")")) ++depth;
      if (is_punct(static_cast<std::size_t>(i), "(") && --depth == 0)
        return i;
    }
    return -1;
  };
  auto match_fwd = [&](std::size_t open) -> std::ptrdiff_t {
    int depth = 0;
    for (std::size_t i = open; i < t.size(); ++i) {
      if (is_punct(i, "{")) ++depth;
      if (is_punct(i, "}") && --depth == 0)
        return static_cast<std::ptrdiff_t>(i);
    }
    return -1;
  };
  static const char* kNotAFunction[] = {"if",     "for",   "while", "switch",
                                        "catch",  "do",    "else",  "return",
                                        "sizeof", "alignof"};

  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_punct(i, "{")) continue;
    // Walk back over trailing qualifiers to the parameter list's ')'.
    std::ptrdiff_t j = static_cast<std::ptrdiff_t>(i) - 1;
    while (j >= 0 && t[j].kind == TokKind::kIdent &&
           (t[j].text == "const" || t[j].text == "noexcept" ||
            t[j].text == "override" || t[j].text == "final" ||
            t[j].text == "mutable")) {
      --j;
    }
    if (j < 0 || !is_punct(static_cast<std::size_t>(j), ")")) continue;

    // Hop left across constructor-initializer entries `, name(args)` /
    // `: name(args)` to the parameter list itself.
    std::ptrdiff_t open = match_back(static_cast<std::size_t>(j));
    for (int hops = 0; hops < 64 && open > 0; ++hops) {
      const std::ptrdiff_t name_at = open - 1;
      if (name_at <= 0 || t[name_at].kind != TokKind::kIdent) break;
      const std::ptrdiff_t before = name_at - 1;
      if (before < 0) break;
      const bool init_sep = is_punct(static_cast<std::size_t>(before), ",") ||
                            is_punct(static_cast<std::size_t>(before), ":");
      const bool colon_pair =
          before >= 1 && is_punct(static_cast<std::size_t>(before), ":") &&
          is_punct(static_cast<std::size_t>(before) - 1, "::");
      if (!init_sep || colon_pair) break;
      if (before < 1 || !is_punct(static_cast<std::size_t>(before) - 1, ")"))
        break;
      open = match_back(static_cast<std::size_t>(before) - 1);
    }
    if (open <= 0) continue;
    const std::ptrdiff_t name_at = open - 1;
    if (t[name_at].kind != TokKind::kIdent) continue;
    const std::string& name = t[name_at].text;
    bool skip = false;
    for (const char* kw : kNotAFunction) {
      if (name == kw) skip = true;
    }
    if (skip) continue;

    std::string qual;
    if (name_at >= 2 && is_punct(name_at - 1, "::") &&
        t[name_at - 2].kind == TokKind::kIdent) {
      qual = t[name_at - 2].text;
    }
    const std::ptrdiff_t close = match_fwd(i);
    if (close < 0) continue;
    out.funcs.push_back({name, qual, static_cast<std::size_t>(name_at), i,
                         static_cast<std::size_t>(close), t[name_at].line});
  }
}

const SourceFile::Func* SourceFile::enclosing(std::size_t tok) const {
  const Func* best = nullptr;
  for (const Func& f : funcs) {
    if (f.open_tok < tok && tok < f.close_tok) {
      if (best == nullptr ||
          f.close_tok - f.open_tok < best->close_tok - best->open_tok) {
        best = &f;
      }
    }
  }
  return best;
}

const SourceFile::Func* SourceFile::find_func(const std::string& name) const {
  for (const Func& f : funcs) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

namespace {

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

SourceTree SourceTree::load(const std::string& root) {
  namespace fs = std::filesystem;
  SourceTree tree;
  tree.root = root;
  std::error_code ec;
  if (!fs::is_directory(root, ec) || ec) {
    tree.io_error = true;
    return tree;
  }

  auto rel_of = [&](const fs::path& p) {
    return fs::path(p).lexically_relative(root).generic_string();
  };

  const fs::path src = fs::path(root) / "src";
  if (fs::is_directory(src, ec) && !ec) {
    for (auto it = fs::recursive_directory_iterator(src, ec);
         !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
      if (!it->is_regular_file()) continue;
      const std::string ext = it->path().extension().string();
      if (ext != ".h" && ext != ".cpp") continue;
      SourceFile f;
      f.relpath = rel_of(it->path());
      tokenize(slurp(it->path()), f);
      tree.files.emplace(f.relpath, std::move(f));
    }
  }
  for (const char* dir : {"tests", "bench"}) {
    const fs::path d = fs::path(root) / dir;
    if (!fs::is_directory(d, ec) || ec) continue;
    for (auto it = fs::recursive_directory_iterator(d, ec);
         !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
      if (!it->is_regular_file()) continue;
      const std::string ext = it->path().extension().string();
      if (ext != ".h" && ext != ".cpp") continue;
      tree.aux_texts.emplace(rel_of(it->path()), slurp(it->path()));
    }
  }
  return tree;
}

const SourceFile* SourceTree::find(const std::string& rel) const {
  const auto it = files.find(rel);
  return it == files.end() ? nullptr : &it->second;
}

}  // namespace pfact_lint
