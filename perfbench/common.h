#pragma once
// Shared plumbing of the pfbench driver: run options, the answer checker,
// order statistics, the metric sink, and seeded hashing.
//
// pfbench is the compiled half of the benchmark (run.py is the other half:
// it builds this program, runs it in its own process group, and checks that
// nothing it spawned survives). Every workload reads only the options below
// and reports through Report, so the three workloads print one schema.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

inline Clock::time_point deadline_after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

// Every untraced workload runs its own operations this long, checked but
// untimed, between set-up and the timed loop: on a shared host the first
// seconds of load after an idle spell run measurably slower.
inline double warmup_seconds(bool smoke) { return smoke ? 0.0 : 3.0; }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Directory (relative to the working directory) for every socket file the
  // run creates; run.py checks it is empty when the run ends.
  std::string sock_dir = ".";
  // Shrinks every fixed-size rig and set-up repetition for the smoke test.
  bool smoke = false;
  // Inverts the verdict of the checker's first check, so a test can prove
  // that a wrong answer fails the run (the program itself is untouched).
  bool plant_wrong = false;
  // Print the stream digest and mix, then exit without running anything.
  bool digest_only = false;
};

// Checks answers. The first failure is recorded with the operation that
// produced it and stops every loop (ok() turns false); main() then tears the
// run down and exits non-zero naming workload, seed, and operation.
class Checker {
 public:
  explicit Checker(const Options& opt) : opt_(opt), planted_(!opt.plant_wrong) {}

  // Checks an answer: returns `good` as judged; false records a failure
  // of `op`.
  bool check(bool good, const std::string& op) {
    if (!planted_.exchange(true)) good = !good;
    return require(good, op);
  }

  // Checks a precondition of the run (a fleet came up, a socket bound). The
  // planted inversion never lands here: it must hit an answer.
  bool require(bool good, const std::string& op) {
    if (good) return true;
    std::lock_guard<std::mutex> lock(mu_);
    if (first_failure_.empty()) first_failure_ = op;
    failed_.store(true);
    return false;
  }

  bool ok() const { return !failed_.load(); }

  // Prints the failure line (stderr); no-op when every check passed.
  void report() const {
    std::lock_guard<std::mutex> lock(mu_);
    if (!first_failure_.empty()) {
      std::fprintf(stderr,
                   "pfbench: WRONG ANSWER workload=%s seed=%llu op=%s\n",
                   opt_.workload.c_str(),
                   static_cast<unsigned long long>(opt_.seed),
                   first_failure_.c_str());
    }
  }

 private:
  const Options& opt_;
  std::atomic<bool> planted_;
  std::atomic<bool> failed_{false};
  mutable std::mutex mu_;
  std::string first_failure_;
};

// --- order statistics ------------------------------------------------------

inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// The highest percentile (at most p99) that still has at least ten samples
// above it: p = 1 - 10/n, clamped to [0.5, 0.99].
struct Tail {
  double value = 0;
  double percentile = 0;
  std::size_t samples = 0;
};

inline Tail tail_latency(const std::vector<double>& v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  const double n = static_cast<double>(v.size());
  t.percentile = std::clamp(1.0 - 10.0 / n, 0.5, 0.99);
  t.value = quantile(v, t.percentile);
  return t;
}

// --- the metric sink -------------------------------------------------------

// Collects name -> (value, unit) and informational lines, then prints the
// info lines followed by the one-line JSON result run.py forwards.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  void info(const std::string& line) { info_.push_back(line); }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  // Only a run whose every answer checked prints a result.
  void print() const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::vector<std::string> info_;
};

// --- seeded hashing --------------------------------------------------------

// splitmix64 finalizer: the per-index generators draw every instance from
// mix(seed, index, salt) so request i is a pure function of (seed, i).
inline std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}
inline std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c = 0) {
  return mix(mix(mix(a) ^ b) ^ c);
}

// FNV-1a 64: the stream digest.
class Digest {
 public:
  void add(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001B3ull;
    }
  }
  void add(const std::string& s) { add(s.data(), s.size()); }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

// --- workloads -------------------------------------------------------------

// Untraced: the workload's closed loop and every end-to-end metric.
// Traced: the workload's top-level operation with tracing off and on (the
// tracing gap), then the whole layer suite. Each returns normally; answer
// failures go to the checker.
void run_served(const Options& opt, Checker& check, Report& out);
void run_factor_dense(const Options& opt, Checker& check, Report& out);

// Layer suites shared by every traced run (see README.md for the stacking).
void served_layers(const Options& opt, Checker& check, Report& out);
void kernel_layers(const Options& opt, Checker& check, Report& out);

// Prints the digest and mix lines of the workload's generated inputs.
void describe_inputs(const Options& opt, Report& out);
// Digest and shape of the in-process workload's matrices (kernels.cpp).
std::string kernel_input_digest(const Options& opt, std::string* mix_line);

}  // namespace pfbench
