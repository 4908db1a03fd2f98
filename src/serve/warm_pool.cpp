#include "serve/warm_pool.h"

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "obs/counters.h"
#include "obs/trace.h"
#include "serve/worker.h"

namespace pfact::serve {

namespace {

// Reaps the child, blocking until it is gone. Callers guarantee the child
// is already dead or on an unconditional path to death (EOF on its request
// pipe, or SIGKILL), so this cannot hang.
int reap(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return status;
}

void set_cloexec(int fd) { ::fcntl(fd, F_SETFD, FD_CLOEXEC); }

// Closes every fd in [lo, hi].
void close_fd_range(unsigned lo, unsigned hi) {
#if defined(__linux__) && defined(SYS_close_range)
  if (::syscall(SYS_close_range, lo, hi, 0u) == 0) return;
#endif
  const long max_fd = ::sysconf(_SC_OPEN_MAX);
  const unsigned end = std::min<unsigned long>(
      hi, static_cast<unsigned long>(max_fd > 0 ? max_fd : 1024) - 1);
  for (unsigned fd = lo; fd <= end; ++fd) ::close(static_cast<int>(fd));
}

}  // namespace

void close_inherited_fds(std::initializer_list<int> keep) {
  // Runs between fork and the child's real work, so no allocation: visit
  // the kept fds in ascending order and close the gaps between them.
  int next = 3;  // stdio stays
  for (;;) {
    int lowest = -1;
    for (const int fd : keep) {
      if (fd >= next && (lowest < 0 || fd < lowest)) lowest = fd;
    }
    if (lowest < 0) break;
    if (lowest > next) close_fd_range(next, lowest - 1);
    next = lowest + 1;
  }
  close_fd_range(next, ~0u);
}

void classify_wait_status(int status, bool watchdog_fired,
                          std::chrono::milliseconds watchdog, WorkerRun& run) {
  if (watchdog_fired) {
    run.exit = WorkerExit::kWatchdog;
    run.term_signal = SIGKILL;
    run.detail = "watchdog deadline (" + std::to_string(watchdog.count()) +
                 "ms) expired; worker SIGKILLed";
  } else if (WIFEXITED(status)) {
    run.exit_code = WEXITSTATUS(status);
    if (run.exit_code == 0) {
      run.exit = run.has_result ? WorkerExit::kCompleted
                                : WorkerExit::kProtocolError;
      if (!run.has_result && run.detail.empty()) {
        run.detail = "worker exited 0 without a result frame";
      }
    } else {
      run.exit = WorkerExit::kNonzeroExit;
      run.detail = "worker exited with status " +
                   std::to_string(run.exit_code);
    }
  } else if (WIFSIGNALED(status)) {
    run.term_signal = WTERMSIG(status);
    if (run.term_signal == SIGXCPU) {
      run.exit = WorkerExit::kCpuLimit;
      run.detail = "worker hit RLIMIT_CPU (SIGXCPU)";
    } else {
      run.exit = WorkerExit::kSignalled;
      run.detail = "worker killed by signal " +
                   std::to_string(run.term_signal) + " (" +
                   ::strsignal(run.term_signal) + ")";
    }
  } else {
    run.exit = WorkerExit::kProtocolError;
    run.detail = "unrecognized waitpid status " + std::to_string(status);
  }
}

WarmPool::WarmPool(WarmPoolOptions options,
                   std::function<pid_t()> fork_for_testing)
    : options_(options), fork_fn_(std::move(fork_for_testing)) {
  if (options_.workers == 0) options_.workers = 1;
  // A worker dying mid-conversation turns the request pipe into a broken
  // pipe, and EPIPE — not SIGPIPE — is the classifiable outcome.
  ::signal(SIGPIPE, SIG_IGN);
  par::MutexLock lock(mu_);
  slots_.resize(options_.workers);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    spawn_slot(i);  // best-effort: a failed slot is respawned at first lease
  }
}

WarmPool::~WarmPool() {
  par::MutexLock lock(mu_);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].alive) retire_slot(i);
  }
}

bool WarmPool::spawn_slot(std::size_t idx) {
  Slot& slot = slots_[idx];
  int to[2];    // parent writes requests
  int from[2];  // child writes checkpoints + results
  if (::pipe(to) != 0) {
    PFACT_COUNT(kServeForkFailures);
    return false;
  }
  if (::pipe(from) != 0) {
    ::close(to[0]);
    ::close(to[1]);
    PFACT_COUNT(kServeForkFailures);
    return false;
  }
  set_cloexec(to[0]);
  set_cloexec(to[1]);
  set_cloexec(from[0]);
  set_cloexec(from[1]);

  const pid_t pid = fork_fn_ ? fork_fn_() : ::fork();
  if (pid < 0) {
    // EAGAIN/ENOMEM: the machine is out of processes or memory RIGHT NOW.
    ::close(to[0]);
    ::close(to[1]);
    ::close(from[0]);
    ::close(from[1]);
    PFACT_COUNT(kServeForkFailures);
    return false;
  }
  if (pid == 0) {
    // Child: the fork rule, then the job loop. The guarded drivers are
    // single-threaded, so the child never waits on threads it did not
    // inherit.
    close_inherited_fds({to[0], from[1]});
    ::_exit(worker_loop_main(to[0], from[1]));
  }

  // Parent.
  ::close(to[0]);
  ::close(from[1]);
  slot.pid = pid;
  slot.to_wr = to[1];
  slot.from_rd = from[0];
  slot.jobs_done = 0;
  slot.alive = true;
  ++stats_.spawned;
  PFACT_COUNT(kWorkerSpawns);
  return true;
}

int WarmPool::retire_slot(std::size_t idx) {
  Slot& slot = slots_[idx];
  // Closing the request pipe is the retirement signal: worker_loop_main
  // reads EOF at the next job boundary and exits 0. A child that is instead
  // already dead (death path: the caller SIGKILLed it) reaps just the same.
  ::close(slot.to_wr);
  ::close(slot.from_rd);
  slot.to_wr = -1;
  slot.from_rd = -1;
  const int status = reap(slot.pid);
  slot.pid = -1;
  slot.alive = false;
  return status;
}

WarmPool::Stats WarmPool::stats() const {
  par::MutexLock lock(mu_);
  return stats_;
}

std::size_t WarmPool::live_workers() const {
  par::MutexLock lock(mu_);
  std::size_t n = 0;
  for (const Slot& s : slots_) {
    if (s.alive) ++n;
  }
  return n;
}

WorkerRun WarmPool::run_task(const TaskRequest& request,
                             robustness::CheckpointStore* store,
                             std::chrono::milliseconds watchdog) {
  PFACT_SPAN("serve.warm-worker");
  WorkerRun run;

  // Lease a slot: prefer a free live one, resurrect a dead one otherwise,
  // block until a peer releases one if neither exists.
  std::size_t idx = 0;
  pid_t pid = -1;
  int to_wr = -1;
  int from_rd = -1;
  {
    par::MutexLock lock(mu_);
    for (;;) {
      bool found = false;
      for (std::size_t i = 0; i < slots_.size() && !found; ++i) {
        if (slots_[i].alive && !slots_[i].busy) {
          idx = i;
          found = true;
        }
      }
      for (std::size_t i = 0; i < slots_.size() && !found; ++i) {
        if (!slots_[i].alive && !slots_[i].busy && spawn_slot(i)) {
          idx = i;
          found = true;
        }
      }
      if (found) break;
      bool any_pending = false;
      for (const Slot& s : slots_) any_pending |= s.busy;
      if (!any_pending) {
        // Every slot is dead and none could be respawned: the machine is
        // out of processes. kForkFailure maps to kResourceExhausted —
        // transient, retried with backoff — because no worker ran, so
        // nothing was refuted.
        run.exit = WorkerExit::kForkFailure;
        run.detail = "warm pool: no slot could be (re)spawned";
        return run;
      }
      lock.wait(slot_free_);
    }
    Slot& slot = slots_[idx];
    slot.busy = true;
    pid = slot.pid;
    to_wr = slot.to_wr;
    from_rd = slot.from_rd;
    ++stats_.jobs;
  }
  PFACT_COUNT(kServeWarmJobs);

  // Ship the request. The child is already blocked in read_frame, so a
  // request larger than the pipe buffer (a dense resume blob) cannot
  // deadlock; a child that died between jobs turns this write into EPIPE
  // (SIGPIPE is ignored) and the pump below sees EOF — waitpid then tells
  // the truth about the death.
  const WireStatus sent =
      write_frame(to_wr, FrameType::kRequest, encode_request(request));
  if (sent != WireStatus::kOk) {
    run.detail =
        std::string("request write failed: ") + wire_status_name(sent);
  }

  auto deadline = watchdog.count() > 0
                      ? std::chrono::steady_clock::now() + watchdog
                      : std::chrono::steady_clock::time_point{};
  bool watchdog_fired = false;
  bool stream_broke = sent != WireStatus::kOk;

  // The pump. A decoded result frame ends the JOB, not the worker — the
  // child loops back to read the next request and the slot stays warm.
  while (!run.has_result && !stream_broke) {
    FrameType type = FrameType::kResult;
    std::string payload;
    const WireStatus st = read_frame(from_rd, type, payload, deadline);
    if (st == WireStatus::kTimeout) {
      // The watchdog: the worker overran its wall-clock budget. SIGKILL is
      // deliberate — a wedged worker may not honor anything gentler.
      watchdog_fired = true;
      ::kill(pid, SIGKILL);
      PFACT_COUNT(kWorkerWatchdogKills);
      // Drop the expired deadline: the worker is dead, so the drain ends
      // at EOF — re-polling against the past would spin.
      deadline = std::chrono::steady_clock::time_point{};
      continue;  // drain frames already in flight, then hit EOF below
    }
    if (st == WireStatus::kEof) {
      stream_broke = true;  // the worker died (it never closes its end)
      break;
    }
    if (st != WireStatus::kOk) {
      if (run.detail.empty()) {
        run.detail =
            std::string("response stream broke: ") + wire_status_name(st);
      }
      stream_broke = true;  // desynchronized: this worker cannot be reused
      break;
    }
    if (type == FrameType::kCheckpoint) {
      std::uint64_t step = 0;
      std::string blob;
      if (decode_checkpoint_frame(payload, step, blob) &&
          robustness::validate_checkpoint_envelope(blob) ==
              robustness::CheckpointStatus::kOk) {
        ++run.checkpoints_received;
        if (store != nullptr) store->put(step, std::move(blob));
      } else {
        // A blob that does not hash is never filed — the fault injector's
        // torn writes (and real torn pipe writes) stop here.
        ++run.checkpoints_rejected;
        PFACT_COUNT(kCheckpointRejects);
      }
    } else if (type == FrameType::kResult) {
      if (decode_result(payload, run.result)) {
        run.has_result = true;
      } else {
        if (run.detail.empty()) run.detail = "result frame did not decode";
        stream_broke = true;
      }
    } else {
      if (run.detail.empty()) run.detail = "unexpected frame type from worker";
      stream_broke = true;
    }
  }

  const bool job_completed = run.has_result && !watchdog_fired && !stream_broke;

  par::MutexLock lock(mu_);
  Slot& slot = slots_[idx];
  if (job_completed) {
    run.exit = WorkerExit::kCompleted;
    run.exit_code = 0;
    ++slot.jobs_done;
    ++stats_.completed;
    // Planned retirement: the job quota, or a job whose request made the
    // process unsafe to reuse — rlimit sandboxes are cumulative (RLIMIT_CPU
    // cannot be raised back), and a survived kill plan is an armed trigger
    // this pool cannot prove disarmed.
    const bool tainted = request.rlimits.address_space_bytes != 0 ||
                         request.rlimits.cpu_seconds != 0 ||
                         request.kill.mode != KillPlan::Mode::kNone;
    const bool quota_reached = options_.recycle_after != 0 &&
                               slot.jobs_done >= options_.recycle_after;
    if (tainted || quota_reached) {
      retire_slot(idx);
      ++stats_.recycles;
      PFACT_COUNT(kServeWorkerRecycles);
      spawn_slot(idx);  // best-effort: a failure leaves the slot dead and
                        // the next lease tries again
    }
  } else {
    // Death path. SIGKILL first: a desynchronized-but-alive worker (CRC
    // mismatch on its stream) would otherwise never exit and reap would
    // hang; for a worker that is already dead the kill is a no-op on the
    // zombie. Then reap, classify, respawn.
    ::kill(pid, SIGKILL);
    classify_wait_status(retire_slot(idx), watchdog_fired, watchdog, run);
    ++stats_.crashed;
    if (run.exit == WorkerExit::kWatchdog) ++stats_.watchdog_kills;
    PFACT_COUNT(kWorkerCrashes);
    spawn_slot(idx);  // the auto-respawn contract; best-effort as above
  }
  slot.busy = false;
  slot_free_.notify_one();
  return run;
}

}  // namespace pfact::serve
