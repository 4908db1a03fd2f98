// pfbench: the compiled driver of the pfact benchmark.
//
//   pfbench --workload reduce-fresh|reduce-repeat|factor-dense
//           --seed N --seconds S --trace 0|1 --sock-dir DIR
//           [--smoke] [--plant-wrong] [--digest-only]
//
// Prints informational "pfbench: ..." lines, then one JSON line:
//   {"correct": true, "attempted": N, "failed": F,
//    "metrics": {"name": {"value": V, "unit": "U"}, ...}}
// Untraced runs report the end-to-end metrics of the workload's closed loop;
// traced runs report the tracing gap of that loop and the whole layer suite.
// A wrong answer prints the failing operation on stderr and exits 1 without
// a result line. Normally started through run.py, which builds this program
// and runs it in its own process group.

#include <sys/resource.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common.h"
#include "obs/trace.h"
#include "stream.h"

namespace pfbench {

void Report::print() const {
  for (const std::string& line : info_) std::printf("pfbench: %s\n", line.c_str());
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    // A non-finite value prints as NaN, which run.py rejects.
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", name.c_str());
    if (std::isfinite(v.value)) {
      std::printf("%.17g", v.value);
    } else {
      std::printf("NaN");
    }
    std::printf(", \"unit\": \"%s\"}", v.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void describe_inputs(const Options& opt, Report& out) {
  std::map<std::string, int> mix;
  std::string digest, mix_line;
  if (opt.workload == "reduce-fresh") {
    digest = stream_digest(FreshStream(opt.seed), &mix);
  } else if (opt.workload == "reduce-repeat") {
    digest = stream_digest(RepeatStream(opt.seed), &mix);
  } else {
    digest = kernel_input_digest(opt, &mix_line);
  }
  for (const auto& [family, n] : mix) {
    mix_line += (mix_line.empty() ? "" : ",") + family + "=" + std::to_string(n);
  }
  out.info("stream-digest " + digest);
  out.info("stream-mix " + mix_line);
}

}  // namespace pfbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: pfbench --workload W --seed N --seconds S --trace 0|1 "
               "--sock-dir DIR [--smoke] [--plant-wrong] [--digest-only]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--sock-dir" && has_value) {
      opt.sock_dir = argv[++i];
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--plant-wrong") {
      opt.plant_wrong = true;
    } else if (arg == "--digest-only") {
      opt.digest_only = true;
    } else {
      return usage();
    }
  }
  const bool served =
      opt.workload == "reduce-fresh" || opt.workload == "reduce-repeat";
  if (!served && opt.workload != "factor-dense") return usage();

  Checker check(opt);
  Report out;
  describe_inputs(opt, out);
  if (opt.digest_only) {
    out.print();
    return 0;
  }
  out.info(std::string("host nproc=") +
           std::to_string(std::thread::hardware_concurrency()) +
           " build=" PFBENCH_BUILD_TYPE " PFACT_OBS=" +
           (PFBENCH_OBS ? "ON" : "OFF"));

  if (served) {
    run_served(opt, check, out);
  } else {
    run_factor_dense(opt, check, out);
  }
  if (opt.trace && check.ok()) {
    pfact::obs::set_tracing_enabled(true);
    served_layers(opt, check, out);
    kernel_layers(opt, check, out);
    pfact::obs::set_tracing_enabled(false);
  }
  if (!check.ok()) {
    check.report();
    return 1;
  }
  if (!opt.trace) {
    rusage self{}, children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    const double self_mb = self.ru_maxrss / 1024.0;
    const double children_mb = children.ru_maxrss / 1024.0;
    // The driver's own peak. The children's peak (shards and their workers)
    // is set by the single largest request a run happens to draw, so it is
    // printed but not gated.
    out.metric("peak_rss_mb", self_mb, "MB");
    out.info("peak_rss_mb self=" + std::to_string(self_mb) +
             " children=" + std::to_string(children_mb));
  }
  out.print();
  return 0;
}
