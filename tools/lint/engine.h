#pragma once
// The pfact_lint engine: findings, the rule-run context, and the rule
// catalogue.
//
// A rule is a free function `void check_xxx(Context&)` living in one
// rules_*.cpp module per family (see rules.h). The driver loads a SourceTree
// once, runs every rule over the shared Context, and renders the findings
// (text or --json). Rule IDs are stable and documented in the catalogue
// below; the fixture meta-test insists on one violating fixture per rule.

#include <string>
#include <vector>

#include "lint/source.h"

namespace pfact_lint {

struct Finding {
  std::string rule;     // "PL017"
  std::string slug;     // "counter-dead"
  std::string message;  // what and why
  std::string file;     // repo-relative location, empty for tree-wide rules
  int line = 0;         // 1-based; 0 when no precise anchor exists
};

struct Context {
  const SourceTree& tree;
  std::vector<Finding> findings;

  explicit Context(const SourceTree& t) : tree(t) {}

  void report(const std::string& rule, const std::string& slug,
              const std::string& message);
  void report_at(const std::string& rule, const std::string& slug,
                 const std::string& file, int line,
                 const std::string& message);

  // The tokenized file, or nullptr. No error on a miss: the rules scan
  // whatever subset of the tree exists, so a violation fixture only carries
  // the files its seeded drift needs.
  const SourceFile* file(const std::string& relpath) const;
};

struct RuleInfo {
  const char* id;
  const char* slug;
  const char* summary;
};

// Every rule the engine can emit, in ID order.
const std::vector<RuleInfo>& rule_catalogue();

// Runs every rule.
void run_all_rules(Context& ctx);

// JSON string escaping for --json output.
std::string json_escape(const std::string& s);

}  // namespace pfact_lint
