#include "lint/engine.h"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <regex>
#include <sstream>

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

const std::string& Context::scrub(const std::string& relpath) {
  static const std::string kEmpty;
  const SourceFile* f = tree.find(relpath);
  if (f == nullptr) {
    std::cerr << "pfact_lint: cannot read " << tree.root << "/" << relpath
              << "\n";
    io_error = true;
    return kEmpty;
  }
  return f->scrub;
}

const SourceFile* Context::file(const std::string& relpath) const {
  return tree.find(relpath);
}

const std::vector<RuleInfo>& rule_catalogue() {
  static const std::vector<RuleInfo> kRules = {
      {"PL006", "checkpoint-tag-duplicate",
       "two field_tag<T>() specializations return the same tag string"},
      {"PL007", "checkpoint-version-stale",
       "the field-tag set changed but kCheckpointVersion was not bumped "
       "against the committed manifest"},
      {"PL008", "checkpoint-manifest-outdated",
       "the committed manifest does not match the current (version, tag "
       "set); regenerate with --update-manifest"},
      {"PL011", "sparse-tag-unregistered",
       "sparse_field_tag<T>() without a dense counterpart, off the sparse- "
       "naming law, or unswept"},
      {"PL013", "codec-asymmetry",
       "an encode_X/decode_X pair's ByteWriter put_* and ByteReader "
       "get_*/take_* field sequences disagree in width or order"},
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

CheckpointSchema parse_checkpoint_schema(Context& ctx) {
  CheckpointSchema schema;
  const std::string& src = ctx.scrub("src/robustness/checkpoint.h");
  if (src.empty()) return schema;
  const std::regex tag(
      "field_tag<[^>]+>\\(\\)\\s*\\{\\s*return\\s*\"([^\"]+)\"");
  for (auto it = std::sregex_iterator(src.begin(), src.end(), tag);
       it != std::sregex_iterator(); ++it) {
    schema.tags.push_back((*it)[1].str());
  }
  const std::regex ver("kCheckpointVersion\\s*=\\s*([0-9]+)");
  std::smatch m;
  if (std::regex_search(src, m, ver)) schema.version = std::stol(m[1].str());
  return schema;
}

Manifest read_manifest(const std::string& path) {
  Manifest m;
  std::ifstream in(path);
  if (!in) return m;
  m.present = true;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key, value;
    ls >> key >> value;
    if (key == "version") m.version = std::stol(value);
    if (key == "tag") m.tags.push_back(value);
  }
  std::sort(m.tags.begin(), m.tags.end());
  return m;
}

bool write_manifest(const std::string& path, const CheckpointSchema& s) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "# pfact_lint checkpoint manifest — the committed record of the\n"
         "# \"PFCK\" blob schema. Regenerate ONLY together with a\n"
         "# kCheckpointVersion bump:  pfact_lint --root . --update-manifest\n";
  out << "version " << (s.version ? *s.version : 0) << "\n";
  std::vector<std::string> tags = s.tags;
  std::sort(tags.begin(), tags.end());
  for (const std::string& t : tags) out << "tag " << t << "\n";
  out << "# Rule registry: every ID below must keep >= 1 violating fixture\n"
         "# under tests/staticcheck/fixtures/ (pinned by the lint CLI\n"
         "# meta-test).\n";
  for (const RuleInfo& r : rule_catalogue()) {
    out << "rule " << r.id << " " << r.slug << "\n";
  }
  return static_cast<bool>(out);
}

void run_all_rules(Context& ctx, const std::string& manifest_path) {
  const CheckpointSchema schema = parse_checkpoint_schema(ctx);
  check_tag_uniqueness(ctx, schema);
  check_sparse_tags(ctx);
  check_manifest(ctx, schema, manifest_path);
  check_codec_symmetry(ctx);
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
