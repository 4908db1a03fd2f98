// The pfact_lint contract, pinned end to end: the clean fixture (and the
// repo itself) pass with exit 0, and every seeded-violation fixture fails
// with a nonzero exit naming its precise rule ID. Fixtures are overlays:
// each violation directory holds only the file(s) that differ from base/,
// and the test materializes base + overlay into a temp tree before linting
// it — so a fixture documents exactly the drift it seeds.
//
// The binary is exercised as a subprocess (not a linked library) because
// the exit status IS part of the contract: CI gates on it. The taxonomy-gap
// and checkpoint-schema tests at the end run the compiler as a subprocess
// the same way: the gaps the retired taxonomy and checkpoint rules reported
// are compile errors now. The retired codec rule's tests pin golden bytes.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include <unistd.h>

#include "circuit/builders.h"
#include "matrix/sparse.h"
#include "robustness/checkpoint.h"
#include "serve/frontend.h"
#include "serve/result_cache.h"
#include "serve/wire.h"

namespace {

namespace fs = std::filesystem;

struct RunResult {
  int exit_code = -1;
  std::string output;
};

// Runs `cmd` with stderr merged into the captured output.
RunResult run_command(std::string cmd) {
  cmd += " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "popen failed for: " << cmd;
  RunResult res;
  if (pipe == nullptr) return res;
  std::array<char, 4096> buf;
  while (std::fgets(buf.data(), buf.size(), pipe) != nullptr) {
    res.output += buf.data();
  }
  const int status = pclose(pipe);
  res.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return res;
}

RunResult run_lint(const std::string& args) {
  return run_command(std::string(PFACT_LINT_BIN) + " " + args);
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
  trees.paths.push_back(fs::path(testing::TempDir()) / ("pfact_lint_" + key));
  return trees.paths.back();
}

// Materializes base/ plus the named overlay into a fresh temp tree and
// returns its path.
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

TEST(PfactLint, CleanFixturePasses) {
  const fs::path root = materialize("base");
  const RunResult res = run_lint("--root " + root.string());
  EXPECT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("clean"), std::string::npos) << res.output;
}

// The acceptance bar for every commit: HEAD itself lints clean.
TEST(PfactLint, RepositoryHeadIsClean) {
  const RunResult res = run_lint(std::string("--root ") + PFACT_REPO_ROOT);
  EXPECT_EQ(res.exit_code, 0) << res.output;
}

TEST(PfactLint, UndeadlinedReadFailsPL014) {
  const fs::path root = materialize("undeadlined_read");
  const RunResult res = run_lint("--root " + root.string());
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find("PL014"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("raw ::read()"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("drain_fd()"), std::string::npos) << res.output;
  // The located form carries the file so the problem matcher can anchor it.
  EXPECT_NE(res.output.find("src/serve/poller.cpp:"), std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find("1 finding(s)"), std::string::npos) << res.output;
}

TEST(PfactLint, StaleWaiverFailsPL014) {
  const fs::path root = materialize("stale_waiver");
  const RunResult res = run_lint("--root " + root.string());
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find("PL014"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("stale waiver: read_exact()"), std::string::npos)
      << res.output;
  // write_frame still contains its ::write, so its waiver stays quiet.
  EXPECT_NE(res.output.find("1 finding(s)"), std::string::npos) << res.output;
}

TEST(PfactLint, UnsafeSignalHandlerFailsPL015) {
  const fs::path root = materialize("unsafe_signal_handler");
  const RunResult res = run_lint("--root " + root.string());
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find("PL015"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("on_usr1"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("fprintf"), std::string::npos) << res.output;
  // The base fixture's own handler (atomic store + ::write self-pipe) must
  // stay clean, so the seeded handler is the only finding.
  EXPECT_NE(res.output.find("1 finding(s)"), std::string::npos) << res.output;
}

TEST(PfactLint, LayeringBackEdgeFailsPL016) {
  const fs::path root = materialize("layering_back_edge");
  const RunResult res = run_lint("--root " + root.string());
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find("PL016"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("serve/frontend.h"), std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find("rank 6"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("1 finding(s)"), std::string::npos) << res.output;
}

TEST(PfactLint, DeadCounterFailsPL017) {
  const fs::path root = materialize("dead_counter");
  const RunResult res = run_lint("--root " + root.string());
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find("PL017"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("Counter::kOrphanEvents"), std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find("never incremented"), std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find("not asserted or recorded"), std::string::npos)
      << res.output;
  // Fully registered (enum + name row): the dead counter is the only
  // finding, located in the enum header.
  EXPECT_NE(res.output.find("src/obs/counters.h:"), std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find("1 finding(s)"), std::string::npos) << res.output;
}

// Without the enum header there is no taxonomy to check for liveness: PL017
// says so instead of passing silently.
TEST(PfactLint, MissingCountersHeaderFailsPL017) {
  const fs::path root = materialize("base");
  fs::remove(root / "src" / "obs" / "counters.h");
  const RunResult res = run_lint("--root " + root.string());
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find("PL017"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("src/obs/counters.h not found"),
            std::string::npos)
      << res.output;
}

// Fixture trees under tests/staticcheck/fixtures/ are linter inputs, not
// tests: a counter named only there is still unobserved.
TEST(PfactLint, FixtureTextDoesNotObserveACounterPL017) {
  const fs::path root = materialize("dead_counter");
  const fs::path nested = root / "tests" / "staticcheck" / "fixtures" / "x";
  fs::create_directories(nested);
  std::ofstream(nested / "mention.cpp")
      << "EXPECT_GT(d[Counter::kOrphanEvents], 0u);  // \"orphan-events\"\n";
  const RunResult res = run_lint("--root " + root.string());
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find("not asserted or recorded"), std::string::npos)
      << res.output;
}

TEST(PfactLint, AdhocRetrySleepFailsPL018) {
  const fs::path root = materialize("adhoc_retry_sleep");
  const RunResult res = run_lint("--root " + root.string());
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find("PL018"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("usleep() in redial()"), std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find("RetryPolicy::backoff"), std::string::npos)
      << res.output;
  // usleep is not a PL014 syscall and the file includes nothing project-
  // side, so the ad-hoc pacing is the only finding.
  EXPECT_NE(res.output.find("1 finding(s)"), std::string::npos) << res.output;
}

TEST(PfactLint, StaleBackoffWaiverFailsPL018) {
  const fs::path root = materialize("stale_backoff_waiver");
  const RunResult res = run_lint("--root " + root.string());
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find("PL018"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("stale waiver: run_attempt()"), std::string::npos)
      << res.output;
  // The fixture client.cpp has neither raw syscalls nor the PL014-waived
  // functions, so the stale PL018 entry is the only finding.
  EXPECT_NE(res.output.find("1 finding(s)"), std::string::npos) << res.output;
}

TEST(PfactLint, MissingRootIsAUsageError) {
  const RunResult res = run_lint("");
  EXPECT_EQ(res.exit_code, 2) << res.output;
}

TEST(PfactLint, UnreadableTreeIsAnIoError) {
  const RunResult res =
      run_lint("--root " + (fs::path(testing::TempDir()) /
                            "pfact_lint_does_not_exist").string());
  EXPECT_EQ(res.exit_code, 2) << res.output;
}

// --- Taxonomy gaps, now compile errors ---------------------------------------
// PL001-PL005, PL009, PL010, PL012 and PL019 found gaps in the closed
// taxonomies by scraping their switches and sweep lists. Each taxonomy is
// now a row table under static_assert(obs::is_row_table(rows))
// (src/obs/taxonomy.h), so the compiler finds those gaps, and these tests
// keep the rules' names. Each seeds its gap into a copy of the real source
// file and compiles it as the taxonomy TUs build. A missing row, or a row
// whose id is not its slot's enumerator (a sweep list is the id column),
// fails the table's static_assert. A row without its Diagnostic,
// FailureKind or counter is a -Werror=missing-field-initializers error.

// An edit of a source file's text. It returns false when its anchor is
// missing, so a reformatted file fails the test instead of compiling clean.
using Edit = std::function<bool(std::string&)>;

// Replaces the first `from` after the first `anchor` with `to`.
Edit replace_after(std::string anchor, std::string from, std::string to) {
  return [=](std::string& text) {
    const std::size_t a = text.find(anchor);
    const std::size_t at = a == std::string::npos ? a : text.find(from, a);
    if (at == std::string::npos) return false;
    text.replace(at, from.size(), to);
    return true;
  };
}

// A new enumerator just before `taxonomy`'s kCount_ sentinel.
Edit add_enumerator(const std::string& taxonomy, const std::string& name) {
  return replace_after("enum class " + taxonomy, "  kCount_,",
                       "  " + name + ",\n  kCount_,");
}

// A new last row of `table`.
Edit append_row(const std::string& table, const std::string& row) {
  return replace_after(table + " = ", "  }};", "      " + row + ",\n  }};");
}

// The row of enumerator `id` carries `other` as its id instead.
Edit reid_row(const std::string& id, const std::string& other) {
  return replace_after("", "{" + id + ",", "{" + other + ",");
}

// [begin, end) of the braces of enumerator `id`'s row; begin is npos when
// there is no such row.
std::pair<std::size_t, std::size_t> find_row(const std::string& text,
                                             const std::string& id) {
  const std::size_t begin = text.find("{" + id + ",");
  int depth = 0;
  for (std::size_t i = begin; begin != std::string::npos && i < text.size();
       ++i) {
    if (text[i] == '{') ++depth;
    if (text[i] == '}' && --depth == 0) return {begin, i + 1};
  }
  return {std::string::npos, 0};
}

// Enumerator `id`'s row is gone, with its trailing comma.
Edit drop_row(const std::string& id) {
  return [=](std::string& text) {
    auto [begin, end] = find_row(text, id);
    if (begin == std::string::npos) return false;
    if (end < text.size() && text[end] == ',') ++end;
    text.erase(begin, end - begin);
    return true;
  };
}

// Enumerator `id`'s row loses its last column.
Edit drop_last_column(const std::string& id) {
  return [=](std::string& text) {
    const auto [begin, end] = find_row(text, id);
    if (begin == std::string::npos) return false;
    const std::size_t comma = text.rfind(',', end - 1);
    text.erase(comma, end - 1 - comma);
    return true;
  };
}

// Compiles `unit` (a .cpp under src/, or a header that a one-line probe
// includes) with src/`file` replaced by a copy that has `edits` applied.
// The copy sits in a private tree ahead of the real src/ on the include
// path; PFACT_TAXONOMY_CXX carries the taxonomy TUs' warnings.
RunResult compile_with_gap(const std::string& file,
                           const std::vector<Edit>& edits,
                           const std::string& unit) {
  const fs::path real = fs::path(PFACT_REPO_ROOT) / "src";
  const fs::path tree = fixture_tree_dir("taxonomy_gap");
  fs::remove_all(tree);
  fs::create_directories((tree / "src" / file).parent_path());
  std::ifstream in(real / file);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  for (const Edit& edit : edits) {
    if (!edit(text)) {
      ADD_FAILURE() << "an edit found no anchor in src/" << file;
      return {};
    }
  }
  std::ofstream(tree / "src" / file) << text;
  fs::path tu = tree / "src" / unit;
  if (tu.extension() == ".h") {
    tu = tree / "probe.cpp";
    std::ofstream(tu) << "#include \"" << unit << "\"\n";
  } else if (!fs::exists(tu)) {
    tu = real / unit;
  }
  return run_command(std::string(PFACT_TAXONOMY_CXX) +
                     " -fsyntax-only -fdiagnostics-color=never -I" +
                     (tree / "src").string() + " -I" + real.string() + " " +
                     tu.string());
}

// The gap fails the build on `table`'s own static_assert.
void expect_static_assert(const RunResult& res, const std::string& table) {
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find("static assertion failed"), std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find("is_row_table(" + table + ")"), std::string::npos)
      << "expected " << table << "'s static_assert in:\n" << res.output;
}

// The gap fails the build on a row of `file` that is short of a column.
void expect_missing_column(const RunResult& res, const std::string& file) {
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find("missing-field-initializers"), std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find(file + ":"), std::string::npos)
      << "expected the error in " << file << ":\n" << res.output;
}

// Counter::kRowUpdates has no name: its row is gone.
TEST(PfactLint, UnnamedCounterFailsPL001) {
  expect_static_assert(
      compile_with_gap("obs/counters.cpp", {drop_row("Counter::kRowUpdates")},
                       "obs/counters.cpp"),
      "kCounterRows");
}

// Two counters share one JSON key: kRowUpdates is named "elim-steps" too.
TEST(PfactLint, NameCollisionFailsPL002) {
  expect_static_assert(
      compile_with_gap("obs/counters.cpp",
                       {replace_after("{Counter::kRowUpdates,",
                                      "\"row-updates\"", "\"elim-steps\"")},
                       "obs/counters.cpp"),
      "kCounterRows");
}

// Histogram::kSpread joins the enum, but no row names it.
TEST(PfactLint, UnnamedHistogramFailsPL003) {
  expect_static_assert(
      compile_with_gap("obs/counters.h", {add_enumerator("Histogram", "kSpread")},
                       "obs/counters.cpp"),
      "kHistogramRows");
}

// FaultClass::kRoundingFlip is named but left out of the sweep the
// robustness suite injects.
TEST(PfactLint, UnhandledFaultClassFailsPL004) {
  expect_static_assert(
      compile_with_gap(
          "robustness/fault_injector.h",
          {reid_row("FaultClass::kRoundingFlip", "FaultClass::kPivotTie")},
          "robustness/fault_injector.h"),
      "kFaultClassRows");
}

// Diagnostic::kMystery is named, but the retry loop has no FailureKind for
// it.
TEST(PfactLint, UnclassifiedDiagnosticFailsPL005) {
  expect_missing_column(
      compile_with_gap("robustness/diagnostics.h",
                       {add_enumerator("Diagnostic", "kMystery"),
                        append_row("kDiagnosticRows", "{kMystery, \"mystery\"}")},
                       "robustness/diagnostics.h"),
      "robustness/diagnostics.h");
}

// WorkerExit::kMystery is named, but has no Diagnostic.
TEST(PfactLint, UnmappedWorkerExitFailsPL009) {
  expect_missing_column(
      compile_with_gap(
          "serve/warm_pool.h",
          {add_enumerator("WorkerExit", "kMystery"),
           append_row("kWorkerExitRows",
                      "{WorkerExit::kMystery, \"mystery\"}")},
          "serve/warm_pool.h"),
      "serve/warm_pool.h");
}

// all_worker_exits() leaves out kForkFailure.
TEST(PfactLint, UnsweptWorkerExitFailsPL009) {
  expect_static_assert(
      compile_with_gap(
          "serve/warm_pool.h",
          {reid_row("WorkerExit::kForkFailure", "WorkerExit::kProtocolError")},
          "serve/warm_pool.h"),
      "kWorkerExitRows");
}

// Admission::kShedShutdown is named and swept, but has no Diagnostic.
TEST(PfactLint, UnmappedAdmissionFailsPL010) {
  expect_missing_column(
      compile_with_gap("serve/queue.h",
                       {drop_last_column("Admission::kShedShutdown")},
                       "serve/queue.h"),
      "serve/queue.h");
}

// all_cache_probes() leaves out kEnvelopeRejected.
TEST(PfactLint, UnsweptCacheProbeFailsPL010) {
  expect_static_assert(
      compile_with_gap("serve/result_cache.h",
                       {reid_row("CacheProbe::kEnvelopeRejected",
                                 "CacheProbe::kCorruptEntry")},
                       "serve/result_cache.h"),
      "kCacheProbeRows");
}

// FrontendStatus::kDraining is named, diagnosed and swept, but has no
// counter.
TEST(PfactLint, UncountedFrontendStatusFailsPL012) {
  expect_missing_column(
      compile_with_gap("serve/frontend.h",
                       {drop_last_column("FrontendStatus::kDraining")},
                       "serve/frontend.h"),
      "serve/frontend.h");
}

// all_frontend_statuses() leaves out kConnReset.
TEST(PfactLint, UnsweptFrontendStatusFailsPL012) {
  expect_static_assert(
      compile_with_gap("serve/frontend.h",
                       {reid_row("FrontendStatus::kConnReset",
                                 "FrontendStatus::kDeadline")},
                       "serve/frontend.h"),
      "kFrontendStatusRows");
}

// all_shard_statuses() leaves out kUnresponsive.
TEST(PfactLint, UnsweptShardStatusFailsPL019) {
  expect_static_assert(
      compile_with_gap(
          "serve/shard.h",
          {reid_row("ShardStatus::kUnresponsive", "ShardStatus::kServing")},
          "serve/shard.h"),
      "kShardStatusRows");
}

// RouterStatus::kBrownoutShed is named, diagnosed and swept, but has no
// counter.
TEST(PfactLint, UncountedRouterStatusFailsPL019) {
  expect_missing_column(
      compile_with_gap("serve/router.h",
                       {drop_last_column("RouterStatus::kBrownoutShed")},
                       "serve/router.h"),
      "serve/router.h");
}

// --- Checkpoint schema gaps, now compile errors -----------------------------
// PL006, PL007, PL008 and PL011 scraped src/robustness/checkpoint.h and
// compared it with a committed manifest. The field tags are now one row
// per scalar field under static_assert(is_tag_table(kFieldTagRows)), and
// the version ratchet is the kCheckpointSchemaRows table under
// static_assert(schema_row_matches(...)). These tests keep the rules'
// names and seed each gap into a copy of the real header.

// The PFCK schema ratchet fails the build: `what` is the static_assert.
void expect_schema_assert(const RunResult& res, const std::string& what) {
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find("static assertion failed"), std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find(what), std::string::npos)
      << "expected " << what << " in:\n" << res.output;
}

RunResult compile_checkpoint_gap(const std::vector<Edit>& edits) {
  return compile_with_gap("robustness/checkpoint.h", edits,
                          "robustness/checkpoint.h");
}

// The row for version 2, as committed: the fingerprint of today's table.
std::string committed_schema_row() {
  std::ifstream in(fs::path(PFACT_REPO_ROOT) / "src" / "robustness" /
                   "checkpoint.h");
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const std::size_t at = text.find("    {2, 0x");
  if (at == std::string::npos) return "";
  return text.substr(at, text.find('}', at) - at + 1);
}

// softfloat24 reuses softfloat53's tags.
TEST(PfactLint, DuplicateCheckpointTagFailsPL006) {
  expect_schema_assert(
      compile_checkpoint_gap({replace_after(
          "kFieldTagRows", "{\"softfloat24\", \"sparse-softfloat24\"}",
          "{\"softfloat53\", \"sparse-softfloat53\"}")}),
      "is_tag_table(kFieldTagRows)");
}

// long double's tags are renamed and kCheckpointVersion stays at 2.
TEST(PfactLint, StaleVersionFailsPL007) {
  expect_schema_assert(
      compile_checkpoint_gap({replace_after(
          "kFieldTagRows", "{\"long-double\", \"sparse-long-double\"}",
          "{\"extended\", \"sparse-extended\"}")}),
      "schema_row_matches");
}

// kCheckpointVersion is bumped, but kCheckpointSchemaRows has no row for 3.
TEST(PfactLint, OutdatedManifestFailsPL008) {
  expect_schema_assert(
      compile_checkpoint_gap({replace_after(
          "", "kCheckpointVersion = 2;", "kCheckpointVersion = 3;")}),
      "schema_row_matches");
}

// The same bump with its row compiles: the sanctioned way to change the
// format.
TEST(PfactLint, SchemaRowRepairsVersionBumpPL008) {
  const std::string row = committed_schema_row();
  ASSERT_FALSE(row.empty());
  std::string next = row;
  next.replace(next.find("{2,"), 3, "{3,");
  const RunResult res = compile_checkpoint_gap(
      {replace_after("", "kCheckpointVersion = 2;", "kCheckpointVersion = 3;"),
       replace_after("kCheckpointSchemaRows", row, row + ",\n" + next)});
  EXPECT_EQ(res.exit_code, 0) << res.output;
}

// double's sparse tag breaks the "sparse-" + dense naming law.
TEST(PfactLint, OrphanSparseTagFailsPL011) {
  expect_schema_assert(
      compile_checkpoint_gap({replace_after(
          "kFieldTagRows", "\"sparse-double\"", "\"csr-double\"")}),
      "is_tag_table(kFieldTagRows)");
}

// float gets a scalar codec and joins the checkpoint fields, but no tag
// row: its row of the table is left empty.
TEST(PfactLint, UnsweptSparseTagFailsPL011) {
  expect_schema_assert(
      compile_checkpoint_gap(
          {replace_after("using CheckpointFields", "numeric::Float24>",
                         "numeric::Float24, float>"),
           replace_after("struct ScalarCodec;", "\n",
                         "\ntemplate <>\nstruct ScalarCodec<float> {\n"
                         "  static void encode(ByteWriter& w, const float& v) "
                         "{ w.put_u32(std::bit_cast<std::uint32_t>(v)); }\n"
                         "  static void decode(ByteReader& r, float& v) "
                         "{ v = std::bit_cast<float>(r.get_u32()); }\n};\n")}),
      "is_tag_table(kFieldTagRows)");
}

// --- Codec symmetry, now golden bytes ----------------------------------------
// PL013 checked that each hand-written encoder and decoder put and got the
// same fields. Each record is now one field list run both ways (src/
// robustness/fields.h), so that pair cannot disagree; what can still drift
// is the list itself. golden_records.txt holds the bytes of one sample of
// every PFRM payload and PFCK blob type as the hand-paired encoders wrote
// them. A width flip, a dropped or an added field changes those bytes.

pfact::factor::PivotTrace sample_trace() {
  using pfact::factor::PivotAction;
  pfact::factor::PivotTrace t;
  t.record({0, 0, 0, PivotAction::kKeep});
  t.record({1, 3, 4, PivotAction::kSwap});
  t.record({2, 2, 1, PivotAction::kShift});
  t.record({3, 3, 3, PivotAction::kSkip});
  return t;
}

pfact::robustness::RunReport sample_report() {
  pfact::robustness::RunReport rep;
  rep.diagnostic = pfact::robustness::Diagnostic::kOk;
  rep.value = true;
  rep.algorithm = "GEMS";
  rep.order = 17;
  rep.decoded_entry = -0.375;
  rep.steps_used = 12;
  rep.offending_col = 5;
  rep.detail = "detail text";
  rep.pivot_excerpt = "4 events";
  rep.injection = "none";
  rep.trace = sample_trace();
  return rep;
}

// One encoder and one decoder per golden line, over one sample record.
struct GoldenRecord {
  std::string name;
  std::function<std::string()> encode;
  // Decodes the bytes and encodes what came out.
  std::function<bool(const std::string&, std::string&)> round_trip;
};

template <class R>
GoldenRecord golden(std::string name, R sample,
                    std::function<std::string(const R&)> encode,
                    std::function<bool(std::string_view, R&)> decode) {
  return {std::move(name), [=] { return encode(sample); },
          [=](const std::string& bytes, std::string& again) {
            R back;
            if (!decode(bytes, back)) return false;
            again = encode(back);
            return true;
          }};
}

template <class Storage>
GoldenRecord golden_blob(std::string name,
                         pfact::robustness::StorageCheckpoint<Storage> c) {
  using namespace pfact::robustness;
  return golden<StorageCheckpoint<Storage>>(
      std::move(name), std::move(c),
      [](const StorageCheckpoint<Storage>& r) { return encode_checkpoint(r); },
      [](std::string_view b, StorageCheckpoint<Storage>& r) {
        return decode_storage_checkpoint(b, r) == CheckpointStatus::kOk;
      });
}

std::vector<GoldenRecord> golden_records() {
  namespace rb = pfact::robustness;
  namespace sv = pfact::serve;
  sv::TaskRequest req;
  req.task.algorithm = rb::Algorithm::kGems;
  req.task.instance =
      pfact::circuit::CvpInstance{pfact::circuit::xor_circuit(), {true, false}};
  req.task.u = 2;
  req.task.w = -1;
  req.task.depth = 9;
  req.task.backend = rb::Backend::kSparse;
  req.substrate = rb::Substrate::kSoftFloat53;
  req.limits.max_steps = 77;
  req.limits.timeout = std::chrono::milliseconds(1234);
  req.limits.max_order = 4096;
  req.limits.decode_tolerance = 1e-9;
  req.checkpoint_every = 3;
  req.resume_step = 42;
  req.resume_blob = "resume";
  req.fault.fault = rb::FaultClass::kTornWrite;
  req.fault.seed = 17;
  req.fault.rounding = pfact::numeric::SoftFloatRounding::kTowardZero;
  req.kill.mode = sv::KillPlan::Mode::kSigsegv;
  req.kill.after_saves = 5;
  req.rlimits.address_space_bytes = 1u << 30;
  req.rlimits.cpu_seconds = 9;

  sv::TaskRequest chain;
  chain.task.algorithm = rb::Algorithm::kGqr;
  chain.task.u = 1;
  chain.task.w = -1;
  chain.task.depth = 6;
  chain.kill.mode = sv::KillPlan::Mode::kSpin;

  sv::FrontendResponse resp;
  resp.status = sv::FrontendStatus::kAccepted;
  resp.admission = sv::Admission::kAccepted;
  resp.from_cache = true;
  resp.certified = true;
  resp.value = false;
  resp.certified_by = rb::Substrate::kRational;
  resp.report = sample_report();

  rb::FactorCheckpoint<double> dense;
  dense.algorithm = "GEM";
  dense.strategy = 1;
  dense.next_step = 2;
  dense.matrix = pfact::Matrix<double>(3, 3);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      dense.matrix(i, j) = 0.5 * static_cast<double>(i) -
                           1.25 * static_cast<double>(j);
  dense.has_perm = true;
  dense.perm = pfact::Permutation(std::vector<std::size_t>{2, 0, 1});
  dense.trace = sample_trace();
  const std::string dense_blob = rb::encode_checkpoint(dense);

  pfact::sparse::TripletBuilder<double> tb(4, 5);
  tb.add(0, 1, 2.5);
  tb.add(0, 4, -1.0);
  tb.add(2, 0, 0.125);
  tb.add(3, 3, 7.0);
  rb::StorageCheckpoint<pfact::sparse::SparseMatrix<double>> sparse;
  sparse.algorithm = "GEMS";
  sparse.strategy = 2;
  sparse.next_step = 1;
  sparse.matrix = pfact::sparse::SparseMatrix<double>(tb.build());
  sparse.trace = sample_trace();

  struct Frame {
    std::uint64_t step = 0;
    std::string blob;
  };

  sv::CacheEntry entry;
  entry.value = true;
  entry.substrate = rb::Substrate::kSoftFloat53;
  entry.final_checkpoint = dense_blob;

  return {
      golden<sv::TaskRequest>("request_circuit", req, sv::encode_request,
                              sv::decode_request),
      golden<sv::TaskRequest>("request_empty", chain, sv::encode_request,
                              sv::decode_request),
      golden<rb::RunReport>("result", sample_report(), sv::encode_result,
                            sv::decode_result),
      golden<sv::FrontendResponse>("response", resp, sv::encode_response,
                                   sv::decode_response),
      golden_blob("pfck_dense_double", dense),
      golden_blob("pfck_sparse_double", sparse),
      golden<Frame>(
          "checkpoint_frame", Frame{7, dense_blob},
          [](const Frame& f) {
            return sv::encode_checkpoint_frame(f.step, f.blob);
          },
          [](std::string_view b, Frame& f) {
            return sv::decode_checkpoint_frame(b, f.step, f.blob);
          }),
      golden<sv::CacheEntry>(
          "cache_entry", entry,
          [](const sv::CacheEntry& e) {
            return rb::detail::encode_fields(e);
          },
          [](std::string_view b, sv::CacheEntry& e) {
            return rb::detail::decode_fields(b, e);
          }),
  };
}

// name -> bytes, from tests/staticcheck/golden_records.txt.
std::map<std::string, std::string> committed_goldens() {
  std::map<std::string, std::string> out;
  std::ifstream in(fs::path(PFACT_REPO_ROOT) / "tests" / "staticcheck" /
                   "golden_records.txt");
  std::string name, hex;
  while (in >> name) {
    if (name[0] == '#') {
      std::getline(in, hex);
      continue;
    }
    in >> hex;
    std::string bytes;
    for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
      bytes += static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16));
    out[name] = bytes;
  }
  return out;
}

// Each record type writes exactly the committed bytes.
TEST(PfactLint, CodecWidthMismatchFailsPL013) {
  const auto goldens = committed_goldens();
  const auto records = golden_records();
  ASSERT_EQ(goldens.size(), records.size());
  for (const GoldenRecord& r : records) {
    ASSERT_EQ(goldens.count(r.name), 1u) << r.name;
    EXPECT_EQ(r.encode(), goldens.at(r.name)) << r.name;
  }
}

// Each record type reads the committed bytes to their end and writes back
// the same bytes.
TEST(PfactLint, CodecUnpairedFieldFailsPL013) {
  const auto goldens = committed_goldens();
  for (const GoldenRecord& r : golden_records()) {
    std::string again;
    ASSERT_TRUE(r.round_trip(goldens.at(r.name), again)) << r.name;
    EXPECT_EQ(again, goldens.at(r.name)) << r.name;
  }
}

}  // namespace
