#include "serve/worker.h"

#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "robustness/checkpoint.h"
#include "robustness/escalation.h"
#include "robustness/guarded_run.h"
#include "serve/wire.h"

namespace pfact::serve {

namespace {

// Opaque nonzero near-null address: a store through it is a *genuine* wild
// write (SIGSEGV from the MMU, not a cooperative abort), which is exactly
// what the soak harness wants to contain. Volatile + global keeps the
// optimizer from proving the store away or turning it into __builtin_trap.
volatile std::uintptr_t g_wild_address = 16;

[[noreturn]] void execute_kill(KillPlan::Mode mode) {
  switch (mode) {
    case KillPlan::Mode::kSigkill:
      ::raise(SIGKILL);
      break;
    case KillPlan::Mode::kSigsegv:
      *reinterpret_cast<volatile int*>(g_wild_address) = 42;
      break;
    case KillPlan::Mode::kExit:
      ::_exit(kKillPlanExitCode);
    case KillPlan::Mode::kSpin:
      for (volatile std::uint64_t burn = 0;;) {
        burn = burn + 1;
      }
    case KillPlan::Mode::kNone:
    case KillPlan::Mode::kCount_:
      break;
  }
  // SIGKILL/SIGSEGV cannot return; if the kernel somehow delivered neither,
  // die loudly rather than continue as a half-killed worker.
  ::_exit(kKillPlanExitCode);
}

void apply_rlimits(const WorkerLimits& limits) {
  if (limits.address_space_bytes != 0) {
    struct rlimit rl;
    rl.rlim_cur = static_cast<rlim_t>(limits.address_space_bytes);
    rl.rlim_max = static_cast<rlim_t>(limits.address_space_bytes);
    ::setrlimit(RLIMIT_AS, &rl);  // best-effort: a refused limit just means
                                  // the sandbox is wider, never wrong results
  }
  if (limits.cpu_seconds != 0) {
    struct rlimit rl;
    // Soft limit delivers SIGXCPU (default action: terminate, so the
    // supervisor sees WTERMSIG == SIGXCPU and classifies kCpuLimit); the
    // hard limit two seconds later is the kernel's SIGKILL backstop in case
    // a future worker ever catches SIGXCPU.
    rl.rlim_cur = static_cast<rlim_t>(limits.cpu_seconds);
    rl.rlim_max = static_cast<rlim_t>(limits.cpu_seconds + 2);
    ::setrlimit(RLIMIT_CPU, &rl);
  }
}

// One guarded job: sandbox, (maybe) die on schedule, run, ship the result.
// Returns the process exit code contribution (0 = result frame delivered).
int run_one_request(TaskRequest req, int response_fd) {
  apply_rlimits(req.rlimits);

  // A kill scheduled "after 0 saves" fires before the reduction starts —
  // the degenerate boundary of the kill-at-every-checkpoint sweep.
  if (req.kill.mode != KillPlan::Mode::kNone && req.kill.after_saves == 0) {
    execute_kill(req.kill.mode);
  }

  // The worker's private store: seeded with the supervisor's verified blob
  // (cross-process resume handoff), then refilled by this run's own saves.
  // Validation of the seed blob happens inside the guarded driver's
  // restore path — a blob that fails CRC/field/shape checks surfaces as
  // kCheckpointCorrupt in the result, never as a silent fresh start.
  // That restore, at the start of the run, is the store's only reader, so
  // it keeps just the newest blob; the supervisor files every shipped save.
  robustness::CheckpointStore store;
  if (!req.resume_blob.empty()) {
    store.put(req.resume_step, std::move(req.resume_blob));
  }

  std::uint64_t saves_shipped = 0;
  robustness::CheckpointConfig ckpt;
  ckpt.every = req.checkpoint_every;
  ckpt.store = &store;
  ckpt.resume = true;
  ckpt.on_save = [&](std::uint64_t step, std::string_view blob) {
    // Stream the frame FIRST, then (maybe) die: a kill "after save j"
    // guarantees the supervisor holds save j, which is what makes the
    // kill-at-every-boundary equivalence suite deterministic.
    write_checkpoint_frame(response_fd, step, blob);
    ++saves_shipped;
    // The hook files this blob right after we return; dropping the older
    // ones lets it reuse their pages instead of faulting in fresh ones.
    store.clear();
    if (req.kill.mode != KillPlan::Mode::kNone &&
        saves_shipped >= req.kill.after_saves) {
      execute_kill(req.kill.mode);
    }
  };

  const robustness::RunReport rep = robustness::run_on_substrate(
      req.task, req.substrate, req.limits, req.fault, ckpt);

  if (write_frame(response_fd, FrameType::kResult, encode_result(rep)) !=
      WireStatus::kOk) {
    return kWorkerExitResultWriteFailed;
  }
  return 0;
}

}  // namespace

int worker_loop_main(int request_fd, int response_fd) {
  // The supervisor may die first; a SIGPIPE on the response pipe must
  // surface as a write error, not kill the worker with an unclassifiable
  // signal.
  ::signal(SIGPIPE, SIG_IGN);

  for (;;) {
    FrameType type = FrameType::kRequest;
    std::string payload;
    const WireStatus st = read_frame(request_fd, type, payload);
    // A clean EOF between jobs is the pool closing the request pipe to
    // retire this slot: the planned, classifiable way a warm worker ends.
    if (st == WireStatus::kEof) return 0;
    if (st != WireStatus::kOk || type != FrameType::kRequest) {
      return kWorkerExitBadRequestFrame;
    }
    TaskRequest req;
    if (!decode_request(payload, req)) return kWorkerExitBadRequestBody;
    const int rc = run_one_request(std::move(req), response_fd);
    if (rc != 0) return rc;
  }
}

}  // namespace pfact::serve
