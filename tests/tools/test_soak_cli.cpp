// The pfact_soak command-line contract, pinned end to end for every row of
// the soak's mode table: one full shape rotation exits 0; ANY violation —
// including a fabricated one through the --inject-violation seam — exits 1,
// prints the seed and the mode flag, and leaves that campaign's evidence in
// --fail-dir, so a red CI run is always replayable from its last output
// line; and a command line the soak cannot run exits 2 with the usage line.
// The binary is exercised as a subprocess (not a linked library) because the
// exit status IS the contract: CI gates on it.

#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct SoakResult {
  int exit_code = -1;
  std::string output;
};

SoakResult run_soak(const std::string& args) {
  const fs::path log =
      fs::path(testing::TempDir()) / "pfact_soak_cli_log.txt";
  const std::string cmd = std::string(PFACT_SOAK_BIN) + " --log " +
                          log.string() + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "popen failed for: " << cmd;
  SoakResult res;
  if (pipe == nullptr) return res;
  std::array<char, 4096> buf;
  while (std::fgets(buf.data(), buf.size(), pipe) != nullptr) {
    res.output += buf.data();
  }
  const int status = pclose(pipe);
  res.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return res;
}

// The soak's modes, as tools/pfact_soak.cpp's kModes lists them.
struct SoakMode {
  const char* flag;      // "" for the in-process default
  const char* name;      // the word in this suite's test names
  const char* evidence;  // prefix of a failing campaign's evidence file
  int rotation;          // campaigns in one full rotation of its shapes
};

// The in-process mode draws its shapes at random; 3 campaigns keep it short.
constexpr SoakMode kModes[] = {
    {"", "Default", "", 3},
    {"--kill-only", "Kill", "kill-only_", 5},
    {"--serve", "Serve", "serve_", 7},
    {"--net", "Net", "net_", 7},
    {"--shard", "Shard", "shard_", 6},
};

std::string with_mode(const SoakMode& mode, const std::string& args) {
  return std::string(mode.flag) + " " + args;
}

// Kept to one rotation: the fork modes create and destroy real workers and
// shard processes in every campaign.
void clean_rotation_exits_zero(const SoakMode& mode) {
  const SoakResult res = run_soak(with_mode(
      mode, "--campaigns " + std::to_string(mode.rotation) + " --seed 5"));
  EXPECT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("held the contract"), std::string::npos)
      << res.output;
}

// The fabricated violation takes the one failure path every real violation
// takes, so this pins, per mode, the exit status, the replay handle and the
// --fail-dir evidence.
void injected_violation_fails(const SoakMode& mode) {
  const fs::path dir =
      fs::path(testing::TempDir()) / ("pfact_soak_cli_" + std::string(mode.name) +
                                       "_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const SoakResult res = run_soak(with_mode(
      mode, "--campaigns 3 --seed 77 --inject-violation 1 --fail-dir " +
                dir.string()));
  EXPECT_EQ(res.exit_code, 1) << res.output;
  const std::string handle =
      std::string("FAILED seed=77") + (*mode.flag ? " " : "") + mode.flag;
  EXPECT_NE(res.output.find(handle), std::string::npos)
      << "a failing soak must print its seed and mode for replay:\n"
      << res.output;
  EXPECT_TRUE(fs::exists(dir / (std::string(mode.evidence) + "campaign1.txt")))
      << res.output;
  fs::remove_all(dir);
}

// Values that are not whole numbers, a zero campaign count, a missing value
// and a second mode flag: each exits 2 with the usage line before any
// campaign runs.
void malformed_lines_exit_two(const SoakMode& mode) {
  std::vector<std::string> lines = {
      "--campaigns abc", "--campaigns 0",        "--campaigns -3",
      "--campaigns 5x",  "--seed abc",           "--seed -1",
      "--campaigns",     "--inject-violation x", "--inject-violation"};
  if (*mode.flag != '\0') {
    for (const SoakMode& other : kModes) {
      if (*other.flag != '\0') lines.push_back(other.flag);
    }
  }
  for (const std::string& line : lines) {
    const std::string args = with_mode(mode, line);
    const SoakResult res = run_soak(args);
    EXPECT_EQ(res.exit_code, 2) << args << "\n" << res.output;
    EXPECT_NE(res.output.find("usage:"), std::string::npos)
        << args << "\n" << res.output;
  }
}

class SoakModeTest : public testing::Test {
 public:
  SoakModeTest(void (*body)(const SoakMode&), const SoakMode& mode)
      : body_(body), mode_(mode) {}
  void TestBody() override { body_(mode_); }

 private:
  void (*body_)(const SoakMode&);
  SoakMode mode_;
};

// Three tests per mode, registered from the table under the suite's
// existing names: CleanShort<Name>SoakExitsZero (the in-process mode's has
// no word), InjectedViolationFails<Name>Mode, and
// MalformedCommandLinesExitTwoIn<Name>Mode.
[[maybe_unused]] const bool kRegistered = [] {
  auto add = [](const std::string& name, void (*body)(const SoakMode&),
                const SoakMode& mode) {
    testing::RegisterTest("SoakCli", name.c_str(), nullptr, nullptr, __FILE__,
                          __LINE__, [=]() -> testing::Test* {
                            return new SoakModeTest(body, mode);
                          });
  };
  for (const SoakMode& mode : kModes) {
    const std::string word = *mode.flag ? mode.name : "";
    add("CleanShort" + word + "SoakExitsZero", clean_rotation_exits_zero,
        mode);
    add(std::string("InjectedViolationFails") + mode.name + "Mode",
        injected_violation_fails, mode);
    add(std::string("MalformedCommandLinesExitTwoIn") + mode.name + "Mode",
        malformed_lines_exit_two, mode);
  }
  return true;
}();

TEST(SoakCli, UnknownFlagExitsTwoWithUsage) {
  // --verbose is retired: every line it printed is in --log.
  for (const char* flag : {"--no-such-flag", "--verbose"}) {
    const SoakResult res = run_soak(flag);
    EXPECT_EQ(res.exit_code, 2) << flag << "\n" << res.output;
    EXPECT_NE(res.output.find("usage:"), std::string::npos) << res.output;
  }
}

}  // namespace
