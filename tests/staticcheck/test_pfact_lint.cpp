// The pfact_lint contract, pinned end to end: the clean fixture (and the
// repo itself) pass with exit 0, and every seeded-violation fixture fails
// with a nonzero exit naming its precise rule ID. Fixtures are overlays:
// each violation directory holds only the file(s) that differ from base/,
// and the test materializes base + overlay into a temp tree before linting
// it — so a fixture documents exactly the drift it seeds.
//
// The binary is exercised as a subprocess (not a linked library) because
// the exit status IS part of the contract: CI gates on it.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
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

void expect_violation(const std::string& overlay, const std::string& rule,
                      const std::string& symbol) {
  const fs::path root = materialize(overlay);
  const LintResult res = run_lint("--root " + root.string());
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find(rule), std::string::npos)
      << "expected " << rule << " in:\n" << res.output;
  EXPECT_NE(res.output.find(symbol), std::string::npos)
      << "expected mention of " << symbol << " in:\n" << res.output;
}

TEST(PfactLint, CleanFixturePasses) {
  const fs::path root = materialize("base");
  const LintResult res = run_lint("--root " + root.string());
  EXPECT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("clean"), std::string::npos) << res.output;
}

// The acceptance bar for every commit: HEAD itself lints clean.
TEST(PfactLint, RepositoryHeadIsClean) {
  const LintResult res = run_lint(std::string("--root ") + PFACT_REPO_ROOT);
  EXPECT_EQ(res.exit_code, 0) << res.output;
}

TEST(PfactLint, UnnamedCounterFailsPL001) {
  expect_violation("unnamed_counter", "PL001", "Counter::kRowUpdates");
}

TEST(PfactLint, NameCollisionFailsPL002) {
  expect_violation("name_collision", "PL002", "elim-steps");
}

TEST(PfactLint, UnhandledFaultClassFailsPL004) {
  expect_violation("unhandled_fault_class", "PL004",
                   "FaultClass::kRoundingFlip");
}

TEST(PfactLint, UnclassifiedDiagnosticFailsPL005) {
  expect_violation("unclassified_diagnostic", "PL005",
                   "Diagnostic::kMystery");
}

TEST(PfactLint, DuplicateCheckpointTagFailsPL006) {
  const fs::path root = materialize("duplicate_checkpoint_tag");
  const LintResult res = run_lint("--root " + root.string());
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find("PL006"), std::string::npos) << res.output;
  // The duplicate fires alone: the fixture manifest matches the duplicated
  // tag multiset, so no version/manifest rule piggybacks on the finding.
  EXPECT_EQ(res.output.find("PL007"), std::string::npos) << res.output;
  EXPECT_EQ(res.output.find("PL008"), std::string::npos) << res.output;
}

TEST(PfactLint, StaleVersionFailsPL007) {
  expect_violation("stale_version", "PL007", "long-double");
}

TEST(PfactLint, OutdatedManifestFailsPL008) {
  expect_violation("outdated_manifest", "PL008", "--update-manifest");
}

TEST(PfactLint, UnmappedWorkerExitFailsPL009) {
  expect_violation("unmapped_worker_exit", "PL009", "WorkerExit::kMystery");
}

TEST(PfactLint, UnsweptWorkerExitFailsPL009) {
  const fs::path root = materialize("unswept_worker_exit");
  const LintResult res = run_lint("--root " + root.string());
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find("PL009"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("all_worker_exits"), std::string::npos)
      << res.output;
  // kMystery IS named and diagnosed in this overlay, so the sweep gap is
  // the only finding — the rule localizes, not shotgun-blasts.
  EXPECT_EQ(res.output.find("diagnose_worker_exit()"), std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find("1 finding(s)"), std::string::npos) << res.output;
}

TEST(PfactLint, UnmappedAdmissionFailsPL010) {
  const fs::path root = materialize("unmapped_admission");
  const LintResult res = run_lint("--root " + root.string());
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find("PL010"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("Admission::kShedShutdown"), std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find("diagnose_admission"), std::string::npos)
      << res.output;
  // kShedShutdown IS named and swept in this overlay: one finding only.
  EXPECT_NE(res.output.find("1 finding(s)"), std::string::npos) << res.output;
}

TEST(PfactLint, UnsweptCacheProbeFailsPL010) {
  const fs::path root = materialize("unswept_cache_probe");
  const LintResult res = run_lint("--root " + root.string());
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find("PL010"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("CacheProbe::kEnvelopeRejected"),
            std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find("all_cache_probes"), std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find("1 finding(s)"), std::string::npos) << res.output;
}

TEST(PfactLint, UnsweptSparseTagFailsPL011) {
  const fs::path root = materialize("unswept_sparse_tag");
  const LintResult res = run_lint("--root " + root.string());
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find("PL011"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("sparse_field_tag<float>"), std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find("all_sparse_field_tags"), std::string::npos)
      << res.output;
  // The tag is lawfully named and the tag set matches the manifest, so the
  // sweep gap is the only finding.
  EXPECT_NE(res.output.find("1 finding(s)"), std::string::npos) << res.output;
}

TEST(PfactLint, OrphanSparseTagFailsPL011) {
  const fs::path root = materialize("orphan_sparse_tag");
  const LintResult res = run_lint("--root " + root.string());
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find("PL011"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("sparse_field_tag<int>"), std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find("field_tag<int>"), std::string::npos)
      << res.output;
  // The fixture manifest includes sparse-int and the orphan is swept, so
  // the missing dense counterpart is the only finding.
  EXPECT_NE(res.output.find("1 finding(s)"), std::string::npos) << res.output;
}

TEST(PfactLint, UncountedFrontendStatusFailsPL012) {
  const fs::path root = materialize("uncounted_frontend_status");
  const LintResult res = run_lint("--root " + root.string());
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find("PL012"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("FrontendStatus::kDraining"), std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find("frontend_status_counter"), std::string::npos)
      << res.output;
  // kDraining IS named, diagnosed, and swept in this overlay: the missing
  // counter is the only finding.
  EXPECT_NE(res.output.find("1 finding(s)"), std::string::npos) << res.output;
}

TEST(PfactLint, UnsweptFrontendStatusFailsPL012) {
  const fs::path root = materialize("unswept_frontend_status");
  const LintResult res = run_lint("--root " + root.string());
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find("PL012"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("FrontendStatus::kConnReset"), std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find("all_frontend_statuses"), std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find("1 finding(s)"), std::string::npos) << res.output;
}

TEST(PfactLint, UnnamedHistogramFailsPL003) {
  expect_violation("unnamed_histogram", "PL003", "Histogram::kSpread");
}

TEST(PfactLint, CodecWidthMismatchFailsPL013) {
  const fs::path root = materialize("codec_width_mismatch");
  const LintResult res = run_lint("--root " + root.string());
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find("PL013"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("encode_frame/decode_frame"), std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find("encoder puts 'u64' but decoder reads 'u32'"),
            std::string::npos)
      << res.output;
  // The rest of the pair mirrors, so the width flip is the only finding.
  EXPECT_NE(res.output.find("1 finding(s)"), std::string::npos) << res.output;
}

TEST(PfactLint, CodecUnpairedFieldFailsPL013) {
  const fs::path root = materialize("codec_unpaired_field");
  const LintResult res = run_lint("--root " + root.string());
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find("PL013"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("unpaired trailing 'u64'"), std::string::npos)
      << res.output;
  // The extra field sits BEFORE the payload trailer, so the trailer idiom
  // must not excuse it.
  EXPECT_NE(res.output.find("1 finding(s)"), std::string::npos) << res.output;
}

TEST(PfactLint, UndeadlinedReadFailsPL014) {
  const fs::path root = materialize("undeadlined_read");
  const LintResult res = run_lint("--root " + root.string());
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
  const LintResult res = run_lint("--root " + root.string());
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find("PL014"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("stale waiver: read_exact()"), std::string::npos)
      << res.output;
  // write_frame still contains its ::write, so its waiver stays quiet.
  EXPECT_NE(res.output.find("1 finding(s)"), std::string::npos) << res.output;
}

TEST(PfactLint, UnsafeSignalHandlerFailsPL015) {
  const fs::path root = materialize("unsafe_signal_handler");
  const LintResult res = run_lint("--root " + root.string());
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
  const LintResult res = run_lint("--root " + root.string());
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find("PL016"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("serve/frontend.h"), std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find("rank 6"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("1 finding(s)"), std::string::npos) << res.output;
}

TEST(PfactLint, DeadCounterFailsPL017) {
  const fs::path root = materialize("dead_counter");
  const LintResult res = run_lint("--root " + root.string());
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find("PL017"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("Counter::kOrphanEvents"), std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find("never incremented"), std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find("not asserted or recorded"), std::string::npos)
      << res.output;
  // Fully registered (enum + name case): PL001/PL002 stay quiet and the
  // dead counter is the only finding, located in the enum header.
  EXPECT_NE(res.output.find("src/obs/counters.h:"), std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find("1 finding(s)"), std::string::npos) << res.output;
}

TEST(PfactLint, AdhocRetrySleepFailsPL018) {
  const fs::path root = materialize("adhoc_retry_sleep");
  const LintResult res = run_lint("--root " + root.string());
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
  const LintResult res = run_lint("--root " + root.string());
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find("PL018"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("stale waiver: run_attempt()"), std::string::npos)
      << res.output;
  // The fixture client.cpp has neither raw syscalls nor the PL014-waived
  // functions, so the stale PL018 entry is the only finding.
  EXPECT_NE(res.output.find("1 finding(s)"), std::string::npos) << res.output;
}

TEST(PfactLint, UnsweptShardStatusFailsPL019) {
  const fs::path root = materialize("unswept_shard_status");
  const LintResult res = run_lint("--root " + root.string());
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find("PL019"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("ShardStatus::kUnresponsive"), std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find("all_shard_statuses"), std::string::npos)
      << res.output;
  // kUnresponsive IS named, diagnosed, and counted in this overlay, and the
  // RouterStatus taxonomy is untouched: the sweep gap is the only finding.
  EXPECT_NE(res.output.find("1 finding(s)"), std::string::npos) << res.output;
}

TEST(PfactLint, UncountedRouterStatusFailsPL019) {
  const fs::path root = materialize("uncounted_router_status");
  const LintResult res = run_lint("--root " + root.string());
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find("PL019"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("RouterStatus::kBrownoutShed"), std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find("router_status_counter"), std::string::npos)
      << res.output;
  // kBrownoutShed IS named, diagnosed, and swept in this overlay: the
  // missing counter is the only finding.
  EXPECT_NE(res.output.find("1 finding(s)"), std::string::npos) << res.output;
}

// --update-manifest is the sanctioned way out of PL007/PL008: after a
// legitimate schema change plus version bump, regenerating the manifest
// returns the tree to clean.
TEST(PfactLint, UpdateManifestRepairsOutdatedManifest) {
  const fs::path root = materialize("outdated_manifest");
  const LintResult regen =
      run_lint("--root " + root.string() + " --update-manifest");
  EXPECT_EQ(regen.exit_code, 0) << regen.output;
  const LintResult res = run_lint("--root " + root.string());
  EXPECT_EQ(res.exit_code, 0) << res.output;
}

TEST(PfactLint, MissingRootIsAUsageError) {
  const LintResult res = run_lint("");
  EXPECT_EQ(res.exit_code, 2) << res.output;
}

TEST(PfactLint, UnreadableTreeIsAnIoError) {
  const LintResult res =
      run_lint("--root " + (fs::path(testing::TempDir()) /
                            "pfact_lint_does_not_exist").string());
  EXPECT_EQ(res.exit_code, 2) << res.output;
}

}  // namespace
