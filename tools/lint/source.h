#pragma once
// pfact_lint structural layer: a C++ tokenizer plus a per-file token-stream
// index over the repository tree.
//
// The tokenizer strips // and /* */ comments, understands string, char and
// raw-string literals (so a brace or a "case" inside a literal can never
// confuse a rule), and is preprocessor-aware: #include directives are
// extracted into a per-file include list, and other directive lines are
// tokenized like ordinary code so macro-based call sites (PFACT_COUNT and
// friends) remain visible to rules.
//
// Two views of every file are maintained:
//   * tokens  — the token stream, for structural rules (PL014–PL018)
//   * scrub   — the raw text with comments blanked to spaces (newlines and
//               string literals preserved), for the regex scans of the
//               counter and signal rules (see scrape.h)
//
// Nothing here links against the pfact library: the linter reads the tree
// as text, so it runs on fixture trees that could never compile.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace pfact_lint {

enum class TokKind {
  kIdent,   // identifiers and keywords
  kNumber,  // numeric literals (pp-numbers, good enough for linting)
  kString,  // "..." or R"...(...)..." — text holds the full literal
  kChar,    // '...'
  kPunct,   // every operator / punctuator, one token each ("::" is one)
};

struct Token {
  TokKind kind;
  std::string text;
  std::size_t begin = 0;  // byte offsets into SourceFile::text
  std::size_t end = 0;
  int line = 1;
};

struct Include {
  std::string path;  // as written between the delimiters
  bool system = false;  // <...> vs "..."
  int line = 1;
};

struct SourceFile {
  std::string relpath;  // repo-relative, '/'-separated
  std::string text;     // raw bytes
  std::string scrub;    // comments blanked to spaces, all else verbatim
  std::vector<Token> tokens;
  std::vector<Include> includes;

  // A free- or member-function definition: `name` is the terminal
  // identifier (member functions drop their class qualifier into `qual`),
  // and [open_tok, close_tok] bracket the brace-matched body. Constructor
  // initializer lists are walked through, so a ctor body is attributed to
  // the constructor, not to its last initializer.
  struct Func {
    std::string name;
    std::string qual;  // "Frontend" for Frontend::event_loop, else empty
    std::size_t name_tok = 0;
    std::size_t open_tok = 0;   // index of '{'
    std::size_t close_tok = 0;  // index of matching '}'
    int line = 1;
  };
  std::vector<Func> funcs;

  // The innermost named function whose body contains token `tok`, or
  // nullptr when the token sits at namespace/class scope.
  const Func* enclosing(std::size_t tok) const;

  // First function with this terminal name, or nullptr.
  const Func* find_func(const std::string& name) const;
};

// Tokenizes `text` into `out` (tokens, scrub, includes, funcs).
void tokenize(const std::string& text, SourceFile& out);

// The loaded repository slice the rules run over.
//
//   files      src/**/*.{h,cpp}, fully tokenized
//   aux_texts  tests/** and bench/** sources, raw text only (rules only
//              grep these for mentions, so tokenizing them is wasted work)
//
// Both maps are keyed by repo-relative path. Loading never fails on a
// missing subtree (a fixture tree holds only the files its violation
// needs); `io_error` is set only when the root itself is unreadable.
struct SourceTree {
  std::string root;
  bool io_error = false;
  std::map<std::string, SourceFile> files;
  std::map<std::string, std::string> aux_texts;

  static SourceTree load(const std::string& root);

  // The tokenized file at `rel`, or nullptr.
  const SourceFile* find(const std::string& rel) const;
};

}  // namespace pfact_lint
