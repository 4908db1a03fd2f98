#pragma once
// The supervisor: resilient_run's retry/escalation loop, lifted across the
// process boundary.
//
// supervised_run runs robustness::run_ladder — the same loop resilient_run
// runs — with each attempt in a sandboxed worker on a WarmPool instead of
// an in-process guarded call, which upgrades PR 3's *simulated* crash
// recovery to the real thing: a worker that SIGSEGVs, overruns its
// rlimit sandbox, or is SIGKILLed by the watchdog dies alone, and the
// checkpoints it already streamed over the pipe seed its successor. The
// decision table is unchanged — classify_diagnostic over the same
// Diagnostic taxonomy — because every way a worker can die is first mapped
// into that taxonomy by diagnose_worker_exit (the WorkerExit rows in
// warm_pool.h). The zero-wrong-answer contract survives the boundary twice
// over: the worker's own cross-check certificate rides in the result frame,
// and the supervisor re-checks the returned value against the task's
// direct evaluation before certifying (a corrupted worker may die; it may
// not lie).

#include <chrono>
#include <cstddef>
#include <functional>
#include <string>

#include "robustness/resilient_run.h"
#include "serve/warm_pool.h"
#include "serve/wire.h"

namespace pfact::serve {

// ResilientOptions (retry, limits, ladder, checkpoint cadence and store,
// fault schedule, sleeper) plus what only a worker process has. Checkpoints
// stream out of the worker as it saves, so a dead worker's successor
// resumes where it died; checkpoint_every == 0 restarts it from scratch.
struct SupervisorOptions : robustness::ResilientOptions {
  // Wall-clock watchdog per worker; 0 disables it.
  std::chrono::milliseconds watchdog{0};
  // rlimit sandbox applied inside every worker.
  WorkerLimits rlimits;
  // Chaos schedule, keyed by global attempt number (1-based): how attempt
  // k's worker kills itself.
  std::function<KillPlan(std::size_t attempt)> kill_for_attempt;
};

// ResilientReport plus the worker-lifecycle view of the same attempts.
struct SupervisedReport : robustness::ResilientReport {
  std::size_t workers_spawned = 0;      // one worker job per attempt
  std::size_t workers_crashed = 0;      // any non-kCompleted ending
  std::size_t watchdog_kills = 0;
  std::size_t resume_handoffs = 0;      // workers seeded with a blob
  std::size_t checkpoints_received = 0; // envelope-verified frames filed
  WorkerExit last_worker_exit = WorkerExit::kCompleted;

  std::string to_string() const;
};

// Runs `task` to a certified answer or a classified terminal failure, every
// attempt in its own sandboxed worker leased from `pool`. Blocking.
SupervisedReport supervised_run(WarmPool& pool,
                                const robustness::ReductionTask& task,
                                const SupervisorOptions& options = {});

}  // namespace pfact::serve
