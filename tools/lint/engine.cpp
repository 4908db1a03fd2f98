#include "lint/engine.h"

#include <cstdio>

#include "lint/rules.h"

namespace pfact_lint {

void Context::report(const std::string& rule, const std::string& slug,
                     const std::string& message) {
  findings.push_back({rule, slug, message, "", 0});
}

void Context::report_at(const std::string& rule, const std::string& slug,
                        const std::string& file, int line,
                        const std::string& message) {
  findings.push_back({rule, slug, message, file, line});
}

const SourceFile* Context::file(const std::string& relpath) const {
  return tree.find(relpath);
}

const std::vector<RuleInfo>& rule_catalogue() {
  static const std::vector<RuleInfo> kRules = {
      {"PL014", "blocking-call-undeadlined",
       "raw read/write/recv/send/accept/poll in src/serve/ outside an "
       "audited deadline-wrapper function"},
      {"PL015", "signal-unsafe-handler",
       "a registered signal handler reaches a call outside the "
       "async-signal-safe allowlist"},
      {"PL016", "layering-violation",
       "an #include edge that points up (or sideways) in the module layer "
       "map — a back edge in the include DAG"},
      {"PL017", "counter-dead",
       "a registered Counter/Histogram enumerator that is never incremented "
       "in src/, or never observed by any test or bench source"},
      {"PL018", "adhoc-backoff",
       "a sleep in src/serve/ whose duration never flowed through "
       "RetryPolicy::backoff — hand-rolled pacing outside the seeded retry "
       "schedule"},
  };
  return kRules;
}

void run_all_rules(Context& ctx) {
  check_blocking_io(ctx);
  check_signal_safety(ctx);
  check_layering(ctx);
  check_counter_liveness(ctx);
  check_adhoc_backoff(ctx);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace pfact_lint
