#pragma once
// WarmPool: the serve layer's one worker pool — forks rlimit-sandboxed
// worker subprocesses ahead of demand and pumps their pipes, the
// containment boundary of the serve/ layer.
//
// Each slot is a long-lived sandboxed child running worker_loop_main: one
// request frame in, checkpoint frames plus one result frame out, then the
// child blocks on the next request. Leasing a warm slot therefore costs two
// frame writes, not a fork; the ~65 µs/lifetime process bill
// (EXPERIMENTS.md, PR 5) is paid once per recycle instead of once per
// attempt. `recycle_after = 1` is the fresh-process setting: every job
// retires its slot, so each attempt runs in a process nothing ran in before
// (the real-kill soak and the kill/resume suites use it).
//
// A warm worker accumulates state a one-shot worker cannot, so:
//
//   * recycling: a slot is retired (request pipe closed -> child sees a
//     clean EOF -> exit 0 -> reap -> respawn) after `recycle_after` jobs,
//     and unconditionally after any job that carried an rlimit sandbox or a
//     kill plan. RLIMIT_CPU is cumulative per process and hard limits can
//     never be raised, so a sandboxed job would otherwise poison the budget
//     of every job after it.
//   * death: any WorkerExit other than clean completion reaps the slot,
//     classifies it with classify_wait_status, and respawns a fresh child —
//     the auto-respawn the soak harness's kill campaigns assert.
//   * isolation between slots: a freshly forked child keeps stdio and its
//     own two pipe ends and closes every other fd (close_inherited_fds).
//     A sibling or another pool holding a duplicate write end would keep a
//     retired slot's request pipe open, and its child would never see the
//     retirement EOF.
//
// Thread-safety: run_task may be called from many supervisor/dispatcher
// threads; slot acquisition blocks on a condition variable until a slot is
// free (the service's admission queue, not this pool, is where load is
// shed). Slot bookkeeping is guarded by an annotated mutex; pipe I/O on a
// leased slot happens outside the lock, with the busy flag as the exclusion
// mechanism.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <sys/types.h>
#include <vector>

#include "parallel/annotations.h"
#include "robustness/checkpoint.h"
#include "robustness/diagnostics.h"
#include "serve/wire.h"

namespace pfact::serve {

// How a worker subprocess ended, from the supervisor's chair. Total: every
// waitpid outcome lands in exactly one class (pfact_lint rule PL009 checks
// that each class has a printable name, a Diagnostic mapping, and soak
// coverage).
enum class WorkerExit {
  kCompleted,      // exit(0) AND a decodable result frame arrived
  kNonzeroExit,    // exited by itself with a nonzero status
  kSignalled,      // killed by a signal (SIGSEGV, SIGKILL, SIGABRT, ...)
  kCpuLimit,       // terminated by SIGXCPU: the RLIMIT_CPU sandbox fired
  kWatchdog,       // SIGKILLed by this pool's own watchdog deadline
  kProtocolError,  // exited 0 but the result frame is missing or corrupt
  kForkFailure,    // fork()/pipe() failed: no worker ever existed
};

inline const char* worker_exit_name(WorkerExit e) {
  switch (e) {
    case WorkerExit::kCompleted: return "completed";
    case WorkerExit::kNonzeroExit: return "nonzero-exit";
    case WorkerExit::kSignalled: return "signalled";
    case WorkerExit::kCpuLimit: return "cpu-limit";
    case WorkerExit::kWatchdog: return "watchdog";
    case WorkerExit::kProtocolError: return "protocol-error";
    case WorkerExit::kForkFailure: return "fork-failure";
  }
  return "?";
}

// The sweepable taxonomy, for the soak harness's coverage assertion (every
// death class the pool can report must actually be produced and survived
// by a real-kill campaign). kCompleted is included: a sweep that never
// completes anything proves nothing.
inline const std::vector<WorkerExit>& all_worker_exits() {
  static const std::vector<WorkerExit> classes = {
      WorkerExit::kCompleted,  WorkerExit::kNonzeroExit,
      WorkerExit::kSignalled,  WorkerExit::kCpuLimit,
      WorkerExit::kWatchdog,   WorkerExit::kProtocolError,
      WorkerExit::kForkFailure};
  return classes;
}

// Everything one job on a worker produced.
struct WorkerRun {
  WorkerExit exit = WorkerExit::kProtocolError;
  int exit_code = 0;    // WIFEXITED status (kCompleted / kNonzeroExit)
  int term_signal = 0;  // WTERMSIG (kSignalled / kCpuLimit / kWatchdog)
  bool has_result = false;
  robustness::RunReport result;  // valid iff has_result
  std::size_t checkpoints_received = 0;  // envelope-verified, filed
  std::size_t checkpoints_rejected = 0;  // failed the envelope check
  std::string detail;  // human-readable death/protocol description
};

// Classifies a reaped waitpid status into run.exit / exit_code /
// term_signal / detail. Shared by the pool's death path and the shard
// router's reaper, so both agree on what every death means. `watchdog` is
// the armed deadline (for the detail string); `watchdog_fired` wins over
// the raw status because the SIGKILL it delivered is the supervisor's own.
void classify_wait_status(int status, bool watchdog_fired,
                          std::chrono::milliseconds watchdog, WorkerRun& run);

// The fork rule, applied in every child the serve layer forks (a warm slot
// here, a shard in shard.cpp): keep stdio and the fds in `keep`, close
// every other descriptor. The child then holds no pipe end of any other
// slot, pool, or service in the process, whatever fd numbers they use.
void close_inherited_fds(std::initializer_list<int> keep);

struct WarmPoolOptions {
  std::size_t workers = 2;        // pre-forked slots
  std::size_t recycle_after = 32; // planned retirement after N jobs; 0 = never
};

class WarmPool {
 public:
  // `fork_for_testing` replaces ::fork() for every slot this pool spawns,
  // the constructor's pre-forks included, so fork exhaustion (pid < 0) and
  // misbehaving children are producible on demand. Not for production use.
  explicit WarmPool(WarmPoolOptions options = {},
                    std::function<pid_t()> fork_for_testing = {});
  ~WarmPool();  // retires every slot (EOF) and reaps the children

  WarmPool(const WarmPool&) = delete;
  WarmPool& operator=(const WarmPool&) = delete;

  // Leases a warm slot (blocking until one is free), ships `request`, files
  // every checkpoint frame whose PFCK envelope verifies into `store`
  // (nullptr discards them), reads the result frame, and returns the slot
  // to the pool — recycled or respawned per the rules above. `watchdog` > 0
  // arms a wall-clock deadline: a worker still busy then is SIGKILLed and
  // reported kWatchdog. A slot that cannot be (re)spawned reports
  // kForkFailure: transient resource exhaustion for the retry table, not a
  // bare error string. Blocking; thread-safe.
  WorkerRun run_task(const TaskRequest& request,
                     robustness::CheckpointStore* store,
                     std::chrono::milliseconds watchdog =
                         std::chrono::milliseconds{0});

  struct Stats {
    std::uint64_t spawned = 0;    // children forked over the pool's lifetime
    std::uint64_t completed = 0;  // jobs that delivered a result frame
    std::uint64_t crashed = 0;    // jobs ending in any non-kCompleted class
    std::uint64_t watchdog_kills = 0;
    std::uint64_t recycles = 0;   // planned retirements (quota / sandbox)
    std::uint64_t jobs = 0;       // total jobs dispatched to warm slots
  };
  Stats stats() const;

  // Number of currently live (forked, unreaped) warm children.
  std::size_t live_workers() const;

 private:
  struct Slot {
    pid_t pid = -1;
    int to_wr = -1;    // parent's write end of the slot's request pipe
    int from_rd = -1;  // parent's read end of the slot's response pipe
    std::size_t jobs_done = 0;
    bool busy = false;
    bool alive = false;
  };

  bool spawn_slot(std::size_t idx) PFACT_REQUIRES(mu_);
  // Closes the slot's pipes (the retirement EOF), reaps the child, and
  // returns its wait status.
  int retire_slot(std::size_t idx) PFACT_REQUIRES(mu_);

  WarmPoolOptions options_;
  std::function<pid_t()> fork_fn_;  // set once, before the first spawn
  mutable par::Mutex mu_;
  std::condition_variable slot_free_;
  std::vector<Slot> slots_ PFACT_GUARDED_BY(mu_);
  Stats stats_ PFACT_GUARDED_BY(mu_);
};

}  // namespace pfact::serve
