// pfact_lint — structural consistency linter for the pfact tree.
//
// This is the thin CLI driver; the engine lives in tools/lint/ (tokenizer,
// source tree, one rules_*.cpp module per rule family). It deliberately
// does NOT link against pfact: it reads the tree as text, so it keeps
// working even when the tree under inspection does not compile — which is
// exactly when a structural linter earns its keep.
//
//   pfact_lint --root <repo-root> [--json]
//   pfact_lint --list-rules
//
// Exit codes (aligned with pfact_soak): 0 clean, 1 findings, 2 usage or
// I/O error. Text findings print one per line:
//
//   pfact_lint: PL017 counter-dead: <message>                     (tree-wide)
//   pfact_lint: src/a/b.cpp:17: PL014 blocking-call-undeadlined: <message>
//
// The located form matches the GitHub problem matcher committed under
// .github/, so findings annotate PR diffs in place. --json emits the same
// findings as a machine-readable document on stdout (CI uploads it as an
// artifact).

#include <iostream>
#include <string>

#include "lint/engine.h"

namespace {

int usage() {
  std::cerr << "usage: pfact_lint --root <repo-root> [--json] | "
               "--list-rules\n";
  return 2;
}

void print_text(const pfact_lint::Context& ctx, const std::string& root) {
  for (const pfact_lint::Finding& f : ctx.findings) {
    std::cout << "pfact_lint: ";
    if (!f.file.empty()) std::cout << f.file << ":" << f.line << ": ";
    std::cout << f.rule << " " << f.slug << ": " << f.message << "\n";
  }
  if (ctx.findings.empty()) {
    std::cout << "pfact_lint: clean (" << root << ")\n";
  } else {
    std::cout << "pfact_lint: " << ctx.findings.size() << " finding(s)\n";
  }
}

void print_json(const pfact_lint::Context& ctx, const std::string& root) {
  using pfact_lint::json_escape;
  std::cout << "{\n  \"root\": \"" << json_escape(root) << "\",\n"
            << "  \"count\": " << ctx.findings.size() << ",\n"
            << "  \"findings\": [";
  bool first = true;
  for (const pfact_lint::Finding& f : ctx.findings) {
    std::cout << (first ? "\n" : ",\n");
    first = false;
    std::cout << "    {\"rule\": \"" << json_escape(f.rule)
              << "\", \"slug\": \"" << json_escape(f.slug)
              << "\", \"file\": \"" << json_escape(f.file)
              << "\", \"line\": " << f.line << ", \"message\": \""
              << json_escape(f.message) << "\"}";
  }
  std::cout << (ctx.findings.empty() ? "]\n" : "\n  ]\n") << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string root;
  bool json = false;
  bool list_rules = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else {
      return usage();
    }
  }

  if (list_rules) {
    for (const pfact_lint::RuleInfo& r : pfact_lint::rule_catalogue()) {
      std::cout << r.id << " " << r.slug << "  " << r.summary << "\n";
    }
    return 0;
  }
  if (root.empty()) {
    std::cerr << "pfact_lint: --root is required\n";
    return 2;
  }
  const pfact_lint::SourceTree tree = pfact_lint::SourceTree::load(root);
  pfact_lint::Context ctx(tree);

  pfact_lint::run_all_rules(ctx);
  if (tree.io_error) return 2;

  if (json) {
    print_json(ctx, root);
  } else {
    print_text(ctx, root);
  }
  return ctx.findings.empty() ? 0 : 1;
}
