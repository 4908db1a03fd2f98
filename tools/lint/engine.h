#pragma once
// The pfact_lint engine: findings, the rule-run context, the rule catalogue,
// and the committed checkpoint manifest.
//
// A rule is a free function `void check_xxx(Context&)` living in one
// rules_*.cpp module per family (see rules.h). The driver loads a SourceTree
// once, runs every rule over the shared Context, and renders the findings
// (text or --json). Rule IDs are stable and documented in the catalogue
// below — the manifest records them so the fixture meta-test can insist on
// one violating fixture per rule.

#include <optional>
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
  bool io_error = false;

  explicit Context(const SourceTree& t) : tree(t) {}

  void report(const std::string& rule, const std::string& slug,
              const std::string& message);
  void report_at(const std::string& rule, const std::string& slug,
                 const std::string& file, int line,
                 const std::string& message);

  // The scrubbed text of a tracked source file. A miss prints a cannot-read
  // diagnostic and sets io_error (exit 2): the checkpoint rules treat
  // src/robustness/checkpoint.h as required.
  const std::string& scrub(const std::string& relpath);

  // The tokenized file, or nullptr. No error on a miss: the structural
  // rules (PL013–PL017) scan whatever subset of the tree exists, so a
  // violation fixture only carries the files its seeded drift needs.
  const SourceFile* file(const std::string& relpath) const;
};

struct RuleInfo {
  const char* id;
  const char* slug;
  const char* summary;
};

// Every rule the engine can emit, in ID order.
const std::vector<RuleInfo>& rule_catalogue();

// --- checkpoint schema + manifest (PL006–PL008 state, and --update-manifest)

struct CheckpointSchema {
  std::vector<std::string> tags;  // as parsed, declaration order
  std::optional<long> version;
};

CheckpointSchema parse_checkpoint_schema(Context& ctx);

struct Manifest {
  std::optional<long> version;
  std::vector<std::string> tags;  // sorted
  bool present = false;
};

Manifest read_manifest(const std::string& path);

// Writes version + sorted tags + one `rule <id> <slug>` line per catalogue
// entry (the committed record that every rule is fixture-covered; unknown
// keys are ignored by read_manifest, so old manifests stay parsable).
bool write_manifest(const std::string& path, const CheckpointSchema& s);

// Runs every rule. `manifest_path` feeds PL007/PL008.
void run_all_rules(Context& ctx, const std::string& manifest_path);

// JSON string escaping for --json output.
std::string json_escape(const std::string& s);

}  // namespace pfact_lint
