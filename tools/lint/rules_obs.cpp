// PL017 counter-dead: the counter taxonomy must stay LIVE at both ends.
// Every registered Counter/Histogram enumerator must be (a) incremented
// somewhere in src/ or bench/ — a counter nothing bumps measures nothing —
// and (b) observed by at least one test or bench source (by enumerator or
// by its kebab name), because an unasserted counter silently rots: the
// instrumentation it summarizes can break and no lane goes red.
//
// The increment leg deliberately excludes src/obs/counters.{h,cpp}: the
// enum definition and the name rows mention every enumerator by
// construction and prove nothing about liveness.

#include <map>
#include <regex>
#include <set>
#include <string>

#include "lint/rules.h"
#include "lint/scrape.h"

namespace pfact_lint {

namespace {

int line_of_first(const std::string& text, const std::string& ident) {
  const std::regex word("\\b" + ident + "\\b");
  std::smatch m;
  if (!std::regex_search(text, m, word)) return 1;
  int line = 1;
  for (std::size_t i = 0; i < static_cast<std::size_t>(m.position()); ++i) {
    if (text[i] == '\n') ++line;
  }
  return line;
}

// Enumerators bumped in `text`: macro call sites and qualified mentions.
void collect_increments(const std::string& text, std::set<std::string>& out) {
  static const std::regex bump(
      R"((?:PFACT_COUNT|PFACT_COUNT_N|PFACT_HISTO)\s*\(\s*(k\w+)|(?:Counter|Histogram)::(k\w+))");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), bump);
       it != std::sregex_iterator(); ++it) {
    const std::string id = (*it)[1].matched ? (*it)[1].str() : (*it)[2].str();
    out.insert(id);
  }
}

}  // namespace

void check_counter_liveness(Context& ctx) {
  const SourceFile* counters = ctx.file("src/obs/counters.h");
  if (counters == nullptr) {
    ctx.report("PL017", "counter-dead",
               "src/obs/counters.h not found — the Counter/Histogram "
               "taxonomy cannot be checked for liveness");
    return;
  }

  // Kebab names from the kCounterRows/kHistogramRows rows of counters.cpp,
  // `{Counter::kX, "x"}`, for the observed leg.
  std::map<std::string, std::string> kebab;  // enumerator -> name
  if (const SourceFile* impl = ctx.file("src/obs/counters.cpp")) {
    static const std::regex row(
        R"re(\{\s*(?:Counter|Histogram)::(k\w+)\s*,\s*"([^"]*)")re");
    for (auto it = std::sregex_iterator(impl->scrub.begin(),
                                        impl->scrub.end(), row);
         it != std::sregex_iterator(); ++it) {
      kebab[(*it)[1].str()] = (*it)[2].str();
    }
  }

  // Increment leg: src/ (minus the definition files) plus bench/ sources.
  std::set<std::string> incremented;
  for (const auto& [rel, file] : ctx.tree.files) {
    if (rel == "src/obs/counters.h" || rel == "src/obs/counters.cpp")
      continue;
    collect_increments(file.scrub, incremented);
  }
  for (const auto& [rel, text] : ctx.tree.aux_texts) {
    if (rel.rfind("bench/", 0) == 0) collect_increments(text, incremented);
  }

  // Observed leg: enumerator tokens and quoted strings across tests+bench.
  std::set<std::string> observed_ids;
  std::set<std::string> observed_names;
  static const std::regex enum_tok(R"(\bk[A-Z]\w*\b)");
  static const std::regex quoted_str("\"([a-z0-9-]+)\"");
  for (const auto& [rel, text] : ctx.tree.aux_texts) {
    // Lint fixtures are inputs to the linter, not tests: a counter named
    // only there is observed by nothing that runs.
    if (rel.rfind("tests/staticcheck/fixtures/", 0) == 0) continue;
    for (auto it = std::sregex_iterator(text.begin(), text.end(), enum_tok);
         it != std::sregex_iterator(); ++it) {
      observed_ids.insert(it->str());
    }
    for (auto it = std::sregex_iterator(text.begin(), text.end(), quoted_str);
         it != std::sregex_iterator(); ++it) {
      observed_names.insert((*it)[1].str());
    }
  }

  for (const char* taxon : {"Counter", "Histogram"}) {
    for (const std::string& id : parse_enum(counters->scrub, taxon)) {
      const bool inc = incremented.count(id) != 0;
      const auto name = kebab.find(id);
      const bool obs =
          observed_ids.count(id) != 0 ||
          (name != kebab.end() && observed_names.count(name->second) != 0);
      if (inc && obs) continue;
      std::string what;
      if (!inc) {
        what = "is never incremented in src/ or bench/ — it measures "
               "nothing";
      }
      if (!obs) {
        if (!what.empty()) what += ", and ";
        what +=
            "is not asserted or recorded by any test or bench source — it "
            "can silently rot";
      }
      ctx.report_at("PL017", "counter-dead", "src/obs/counters.h",
                    line_of_first(counters->scrub, id),
                    std::string(taxon) + "::" + id + " " + what);
    }
  }
}

}  // namespace pfact_lint
