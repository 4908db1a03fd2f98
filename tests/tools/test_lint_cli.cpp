// The pfact_lint CLI contract, pinned end to end: exit 0 with "clean" on a
// clean tree, exit 1 with "N finding(s)" on findings, exit 2 on usage or
// I/O errors; --json emits a well-formed findings document; --list-rules
// enumerates the catalogue. The meta-test at the bottom keeps the rule
// registry honest: every advertised rule ID must have at least one seeded
// violation fixture that actually produces it — a rule nobody can trip is
// a rule nobody maintains.
//
// The binary is exercised as a subprocess (not a linked library) because
// the exit status IS the contract: CI gates on it.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include <unistd.h>

namespace {

namespace fs = std::filesystem;

struct LintResult {
  int exit_code = -1;
  std::string output;
};

LintResult run_lint(const std::string& args) {
  const std::string cmd = std::string(PFACT_LINT_BIN) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "popen failed for: " << cmd;
  LintResult res;
  if (pipe == nullptr) return res;
  std::array<char, 4096> buf;
  while (std::fgets(buf.data(), buf.size(), pipe) != nullptr) {
    res.output += buf.data();
  }
  const int status = pclose(pipe);
  res.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return res;
}

// A tree private to this test and process: ctest runs every test as its own
// process, possibly in parallel, so a directory keyed by the overlay alone
// would be removed and rewritten by another test mid-lint. Trees are
// deleted when the process exits.
fs::path fixture_tree_dir(const std::string& overlay) {
  struct Trees {
    std::vector<fs::path> paths;
    ~Trees() {
      std::error_code ec;
      for (const fs::path& p : paths) fs::remove_all(p, ec);
    }
  };
  static Trees trees;
  const testing::TestInfo* test =
      testing::UnitTest::GetInstance()->current_test_info();
  const std::string key = overlay + "_" + test->test_suite_name() + "." +
                          test->name() + "_" + std::to_string(getpid());
  trees.paths.push_back(fs::path(testing::TempDir()) /
                        ("pfact_lint_cli_" + key));
  return trees.paths.back();
}

fs::path materialize(const std::string& overlay) {
  const fs::path fixtures(PFACT_LINT_FIXTURES);
  const fs::path dst = fixture_tree_dir(overlay);
  fs::remove_all(dst);
  fs::copy(fixtures / "base", dst, fs::copy_options::recursive);
  if (!overlay.empty() && overlay != "base") {
    fs::copy(fixtures / overlay, dst,
             fs::copy_options::recursive | fs::copy_options::overwrite_existing);
  }
  return dst;
}

TEST(LintCli, CleanTreeExitsZero) {
  const fs::path root = materialize("base");
  const LintResult res = run_lint("--root " + root.string());
  EXPECT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("pfact_lint: clean"), std::string::npos)
      << res.output;
}

TEST(LintCli, FindingsExitOneAndCount) {
  const fs::path root = materialize("dead_counter");
  const LintResult res = run_lint("--root " + root.string());
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find("finding(s)"), std::string::npos) << res.output;
}

TEST(LintCli, UnknownFlagExitsTwoWithUsage) {
  const LintResult res = run_lint("--no-such-flag");
  EXPECT_EQ(res.exit_code, 2) << res.output;
  EXPECT_NE(res.output.find("usage:"), std::string::npos) << res.output;
}

TEST(LintCli, MissingRootExitsTwo) {
  const LintResult res = run_lint("--json");
  EXPECT_EQ(res.exit_code, 2) << res.output;
}

TEST(LintCli, UnreadableRootExitsTwo) {
  const LintResult res = run_lint(
      "--root " +
      (fs::path(testing::TempDir()) / "lint_cli_no_such_tree").string());
  EXPECT_EQ(res.exit_code, 2) << res.output;
}

// --json on a clean tree: count 0, empty findings array, root echoed.
TEST(LintCli, JsonCleanDocument) {
  const fs::path root = materialize("base");
  const LintResult res = run_lint("--root " + root.string() + " --json");
  EXPECT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("\"count\": 0"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("\"findings\": []"), std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find(root.filename().string()), std::string::npos)
      << res.output;
}

// --json with findings: every finding object carries the five keys the CI
// artifact consumers rely on, braces/brackets balance, and the count field
// agrees with the number of finding objects.
TEST(LintCli, JsonFindingsDocumentIsWellFormed) {
  const fs::path root = materialize("dead_counter");
  const LintResult res = run_lint("--root " + root.string() + " --json");
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find("\"count\": 1"), std::string::npos) << res.output;
  for (const char* key :
       {"\"rule\":", "\"slug\":", "\"file\":", "\"line\":", "\"message\":"}) {
    EXPECT_NE(res.output.find(key), std::string::npos)
        << "missing " << key << " in:\n" << res.output;
  }
  EXPECT_NE(res.output.find("\"PL017\""), std::string::npos) << res.output;
  int braces = 0;
  int brackets = 0;
  for (const char c : res.output) {
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
  }
  EXPECT_EQ(braces, 0) << res.output;
  EXPECT_EQ(brackets, 0) << res.output;
}

// --list-rules prints one `PLxxx slug  summary` line per rule, exit 0.
TEST(LintCli, ListRulesEnumeratesTheCatalogue) {
  const LintResult res = run_lint("--list-rules");
  EXPECT_EQ(res.exit_code, 0) << res.output;
  std::istringstream lines(res.output);
  std::string line;
  std::size_t rules = 0;
  const std::regex shape(R"(^PL\d{3} [a-z0-9-]+  \S.*$)");
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    EXPECT_TRUE(std::regex_match(line, shape)) << "bad line: " << line;
    ++rules;
  }
  EXPECT_GE(rules, 5u) << res.output;
}

// The registry meta-test: for every rule ID the binary advertises, some
// committed violation fixture actually produces a finding with that ID
// (run each overlay once, union the IDs seen).
TEST(LintCli, EveryAdvertisedRuleHasAFixture) {
  const LintResult listing = run_lint("--list-rules");
  ASSERT_EQ(listing.exit_code, 0) << listing.output;
  std::map<std::string, std::string> advertised;  // id -> slug
  {
    std::istringstream lines(listing.output);
    std::string id, slug;
    std::string rest;
    while (lines >> id >> slug && std::getline(lines, rest)) {
      advertised[id] = slug;
    }
  }
  ASSERT_GE(advertised.size(), 5u) << listing.output;

  std::set<std::string> produced;
  const std::regex finding_id(R"(\b(PL\d{3})\b)");
  for (const auto& entry : fs::directory_iterator(PFACT_LINT_FIXTURES)) {
    if (!entry.is_directory()) continue;
    const std::string overlay = entry.path().filename().string();
    if (overlay == "base") continue;
    const fs::path root = materialize(overlay);
    const LintResult res = run_lint("--root " + root.string());
    EXPECT_EQ(res.exit_code, 1)
        << "violation fixture " << overlay << " did not fail:\n"
        << res.output;
    for (auto it = std::sregex_iterator(res.output.begin(), res.output.end(),
                                        finding_id);
         it != std::sregex_iterator(); ++it) {
      produced.insert(it->str());
    }
  }

  for (const auto& [id, slug] : advertised) {
    EXPECT_NE(produced.count(id), 0u)
        << id << " (" << slug
        << ") has no violating fixture that produces it — a rule nobody can "
           "trip is a rule nobody maintains";
  }
}

}  // namespace
