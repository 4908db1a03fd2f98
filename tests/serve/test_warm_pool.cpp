// WarmPool lifecycle tests: real forked workers, real deaths. Slots serve
// many jobs without reforking, planned retirement (quota or sandbox taint)
// replaces a slot through a clean EOF, and every WorkerExit class is
// produced here by actually ending a worker that way — SIGKILL, a genuine
// wild store, a nonzero _exit, a spinning worker caught by the watchdog,
// RLIMIT_CPU's SIGXCPU, and (through the fork seam) a worker that exits 0
// without answering and a fork that fails — each classified with the
// shared taxonomy AND auto-respawned, with this process fully intact.

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "circuit/builders.h"
#include "circuit/circuit.h"
#include "robustness/checkpoint.h"
#include "robustness/escalation.h"
#include "robustness/retry.h"
#include "serve/supervisor.h"
#include "serve/warm_pool.h"

namespace pfact::serve {
namespace {

using robustness::Algorithm;
using robustness::CheckpointStore;
using robustness::Diagnostic;
using robustness::ReductionTask;

TaskRequest gem_request() {
  TaskRequest req;
  req.task.algorithm = Algorithm::kGem;
  req.task.instance =
      circuit::CvpInstance{circuit::xor_circuit(), {true, false}};
  return req;
}

TEST(WarmPool, PreforksItsSlotsAndServesAJob) {
  WarmPoolOptions o;
  o.workers = 2;
  WarmPool pool(o);
  EXPECT_EQ(pool.live_workers(), 2u);  // forked before any job arrived
  const TaskRequest req = gem_request();
  const WorkerRun run = pool.run_task(req, nullptr);
  ASSERT_EQ(run.exit, WorkerExit::kCompleted) << run.detail;
  ASSERT_TRUE(run.has_result);
  EXPECT_EQ(run.result.diagnostic, Diagnostic::kOk) << run.result.detail;
  EXPECT_EQ(run.result.value, req.task.expected());
}

// The defining property: many jobs, zero additional forks. A cold pool
// would have spawned once per job.
TEST(WarmPool, WarmSlotsServeManyJobsWithoutReforking) {
  WarmPoolOptions o;
  o.workers = 2;
  o.recycle_after = 0;  // never retire on quota
  WarmPool pool(o);
  const TaskRequest req = gem_request();
  for (int i = 0; i < 6; ++i) {
    const WorkerRun run = pool.run_task(req, nullptr);
    ASSERT_EQ(run.exit, WorkerExit::kCompleted) << run.detail;
    ASSERT_TRUE(run.has_result);
    EXPECT_EQ(run.result.value, req.task.expected());
  }
  const WarmPool::Stats s = pool.stats();
  EXPECT_EQ(s.spawned, 2u);  // the pre-forked pair served everything
  EXPECT_EQ(s.jobs, 6u);
  EXPECT_EQ(s.completed, 6u);
  EXPECT_EQ(s.crashed, 0u);
  EXPECT_EQ(pool.live_workers(), 2u);
}

TEST(WarmPool, SigkilledWarmWorkerIsClassifiedAndRespawned) {
  WarmPoolOptions o;
  o.workers = 1;
  WarmPool pool(o);
  TaskRequest req = gem_request();
  req.kill.mode = KillPlan::Mode::kSigkill;
  const WorkerRun run = pool.run_task(req, nullptr);
  EXPECT_EQ(run.exit, WorkerExit::kSignalled) << run.detail;
  EXPECT_EQ(run.term_signal, SIGKILL);
  EXPECT_FALSE(run.has_result);
  EXPECT_EQ(pool.stats().crashed, 1u);
  // Auto-respawn: the slot is already staffed again...
  EXPECT_EQ(pool.live_workers(), 1u);
  // ...and the replacement actually works.
  const TaskRequest clean = gem_request();
  const WorkerRun again = pool.run_task(clean, nullptr);
  ASSERT_EQ(again.exit, WorkerExit::kCompleted) << again.detail;
  EXPECT_EQ(again.result.value, clean.task.expected());
  EXPECT_EQ(pool.stats().spawned, 2u);
}

TEST(WarmPool, SegfaultingWarmWorkerIsContained) {
  WarmPoolOptions o;
  o.workers = 1;
  WarmPool pool(o);
  TaskRequest req = gem_request();
  req.kill.mode = KillPlan::Mode::kSigsegv;
  const WorkerRun run = pool.run_task(req, nullptr);
  EXPECT_EQ(run.exit, WorkerExit::kSignalled) << run.detail;
  EXPECT_EQ(run.term_signal, SIGSEGV);
  EXPECT_EQ(pool.live_workers(), 1u);
  // The whole point: the SIGSEGV happened, and THIS process is still here.
}

TEST(WarmPool, WatchdogKillsAWedgedWarmWorker) {
  WarmPoolOptions o;
  o.workers = 1;
  WarmPool pool(o);
  TaskRequest req = gem_request();
  req.kill.mode = KillPlan::Mode::kSpin;  // never returns on its own
  const auto t0 = std::chrono::steady_clock::now();
  const WorkerRun run =
      pool.run_task(req, nullptr, std::chrono::milliseconds(200));
  EXPECT_EQ(run.exit, WorkerExit::kWatchdog) << run.detail;
  EXPECT_EQ(run.term_signal, SIGKILL);
  EXPECT_EQ(pool.stats().watchdog_kills, 1u);
  EXPECT_EQ(pool.live_workers(), 1u);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(30));
}

// Planned retirement: after `recycle_after` jobs the slot is retired via a
// clean request-pipe EOF (exit 0, not a kill) and replaced. Nothing counts
// as a crash.
TEST(WarmPool, QuotaRecyclingRetiresAndReplacesSlots) {
  WarmPoolOptions o;
  o.workers = 1;
  o.recycle_after = 2;
  WarmPool pool(o);
  for (int i = 0; i < 4; ++i) {
    const WorkerRun run = pool.run_task(gem_request(), nullptr);
    ASSERT_EQ(run.exit, WorkerExit::kCompleted) << run.detail;
  }
  const WarmPool::Stats s = pool.stats();
  EXPECT_EQ(s.completed, 4u);
  EXPECT_EQ(s.crashed, 0u);
  EXPECT_EQ(s.recycles, 2u);  // after jobs 2 and 4
  EXPECT_EQ(s.spawned, 3u);   // the original + two replacements
  EXPECT_EQ(pool.live_workers(), 1u);
}

// A job that carried an rlimit sandbox retires its slot even when it
// completes cleanly: RLIMIT_CPU is cumulative per process and hard limits
// cannot be raised, so the budget would silently poison every later job.
TEST(WarmPool, SandboxedJobRetiresItsSlot) {
  WarmPoolOptions o;
  o.workers = 1;
  o.recycle_after = 0;
  WarmPool pool(o);
  TaskRequest req = gem_request();
  req.rlimits.cpu_seconds = 5;  // plenty to finish; still taints the slot
  const WorkerRun run = pool.run_task(req, nullptr);
  ASSERT_EQ(run.exit, WorkerExit::kCompleted) << run.detail;
  const WarmPool::Stats s = pool.stats();
  EXPECT_EQ(s.crashed, 0u);
  EXPECT_EQ(s.recycles, 1u);
  EXPECT_EQ(s.spawned, 2u);
  EXPECT_EQ(pool.live_workers(), 1u);
}

TEST(WarmPool, CheckpointFramesAreVerifiedAndFiled) {
  WarmPoolOptions o;
  o.workers = 1;
  WarmPool pool(o);
  TaskRequest req = gem_request();
  req.checkpoint_every = 2;
  req.kill.mode = KillPlan::Mode::kSigkill;
  req.kill.after_saves = 2;  // die right after shipping the second save
  CheckpointStore store;
  const WorkerRun run = pool.run_task(req, &store);
  EXPECT_EQ(run.exit, WorkerExit::kSignalled) << run.detail;
  EXPECT_EQ(run.checkpoints_received, 2u);
  EXPECT_EQ(run.checkpoints_rejected, 0u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.latest_step(), 4u);
  EXPECT_EQ(pool.live_workers(), 1u);
}

// The supervisor's retry/resume loop runs unchanged over the warm pool: a
// worker SIGKILLed after its first save is classified, its successor is
// seeded from the streamed blob, and the task still certifies.
TEST(WarmPool, SupervisedRunResumesAcrossWarmWorkerDeaths) {
  WarmPoolOptions o;
  o.workers = 2;
  WarmPool pool(o);
  ReductionTask task;
  task.algorithm = Algorithm::kGem;
  task.instance = circuit::CvpInstance{circuit::xor_circuit(), {true, false}};
  SupervisorOptions so;
  so.retry.max_attempts = 3;
  so.retry.base_delay = std::chrono::milliseconds{1};
  so.checkpoint_every = 2;
  so.kill_for_attempt = [](std::size_t attempt) {
    KillPlan kill;
    if (attempt == 1) {
      kill.mode = KillPlan::Mode::kSigkill;
      kill.after_saves = 1;
    }
    return kill;
  };
  const SupervisedReport rep = supervised_run(pool, task, so);
  ASSERT_TRUE(rep.certified) << rep.to_string();
  EXPECT_EQ(rep.value, task.expected());
  ASSERT_GE(rep.attempts.size(), 2u);
  EXPECT_EQ(rep.attempts.front().diagnostic, Diagnostic::kWorkerFailure);
  EXPECT_GE(rep.resume_handoffs, 1u);
  EXPECT_EQ(pool.live_workers(), 2u);
}

// Two pools in one process must not entangle: pool B's children are forked
// while pool A's request pipes are open, and an inherited duplicate of A's
// write ends would keep A's workers from ever seeing their retirement EOF —
// destroying A would then block forever in reap. The fork rule closes every
// fd a fresh child was not handed, so teardown stays prompt no matter the
// construction order.
TEST(WarmPool, CoexistingPoolsTearDownWithoutEntanglement) {
  const auto t0 = std::chrono::steady_clock::now();
  auto first = std::make_unique<WarmPool>(WarmPoolOptions{});
  WarmPool second{WarmPoolOptions{}};  // children inherit first's pipes
  const TaskRequest req = gem_request();
  ASSERT_EQ(first->run_task(req, nullptr).exit, WorkerExit::kCompleted);
  ASSERT_EQ(second.run_task(req, nullptr).exit, WorkerExit::kCompleted);
  first.reset();  // would hang here if second's children pinned the pipes
  const WorkerRun after = second.run_task(req, nullptr);
  ASSERT_EQ(after.exit, WorkerExit::kCompleted) << after.detail;
  EXPECT_EQ(after.result.value, req.task.expected());
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(30));
}

// Many client threads share the slots: more clients than workers, every job
// completes correctly, and slot leasing never loses or duplicates a worker.
TEST(WarmPool, ConcurrentClientsShareTheSlots) {
  WarmPoolOptions o;
  o.workers = 2;
  o.recycle_after = 3;  // recycling happens *under* concurrency too
  WarmPool pool(o);
  std::atomic<int> correct{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 8; ++i) {
    clients.emplace_back([&pool, &correct] {
      const TaskRequest req = gem_request();
      const WorkerRun run = pool.run_task(req, nullptr);
      if (run.exit == WorkerExit::kCompleted && run.has_result &&
          run.result.value == req.task.expected()) {
        correct.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(correct.load(), 8);
  EXPECT_EQ(pool.stats().jobs, 8u);
  EXPECT_EQ(pool.stats().completed, 8u);
  EXPECT_EQ(pool.live_workers(), 2u);
}

TEST(WarmPool, NonzeroExitIsItsOwnClass) {
  WarmPoolOptions o;
  o.workers = 1;
  WarmPool pool(o);
  TaskRequest req = gem_request();
  req.kill.mode = KillPlan::Mode::kExit;
  const WorkerRun run = pool.run_task(req, nullptr);
  EXPECT_EQ(run.exit, WorkerExit::kNonzeroExit) << run.detail;
  EXPECT_EQ(run.exit_code, kKillPlanExitCode);
  EXPECT_EQ(pool.live_workers(), 1u);
}

TEST(WarmPool, CpuRlimitSurfacesAsCpuLimit) {
  WarmPoolOptions o;
  o.workers = 1;
  WarmPool pool(o);
  TaskRequest req = gem_request();
  req.kill.mode = KillPlan::Mode::kSpin;
  req.rlimits.cpu_seconds = 1;  // the sandbox, not the watchdog, ends this
  const WorkerRun run = pool.run_task(req, nullptr);
  EXPECT_EQ(run.exit, WorkerExit::kCpuLimit) << run.detail;
  EXPECT_EQ(run.term_signal, SIGXCPU);
  EXPECT_EQ(pool.live_workers(), 1u);
}

TEST(WarmPool, EveryExitClassHasAPrintableName) {
  for (WorkerExit e : all_worker_exits()) {
    EXPECT_STRNE(worker_exit_name(e), "?");
  }
  EXPECT_EQ(all_worker_exits().size(), 7u);
}

// A worker that exits 0 without a result frame is a protocol error, not a
// completion. The fork seam's first child exits before reading its
// request; its replacement is a real worker.
TEST(WarmPool, ExitWithoutAResultIsAProtocolErrorAndRespawns) {
  int forks = 0;
  WarmPoolOptions o;
  o.workers = 1;
  WarmPool pool(o, [&forks]() -> pid_t {
    const pid_t pid = ::fork();
    if (pid == 0 && forks == 0) ::_exit(0);
    ++forks;
    return pid;
  });
  const WorkerRun run = pool.run_task(gem_request(), nullptr);
  EXPECT_EQ(run.exit, WorkerExit::kProtocolError) << run.detail;
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_FALSE(run.has_result);
  EXPECT_EQ(diagnose_worker_exit(run.exit), Diagnostic::kWorkerFailure);
  EXPECT_EQ(robustness::classify_diagnostic(diagnose_worker_exit(run.exit)),
            robustness::FailureKind::kTransient);
  // Respawned: the slot is staffed again, and its new worker answers.
  EXPECT_EQ(pool.stats().crashed, 1u);
  EXPECT_EQ(pool.stats().spawned, 2u);
  EXPECT_EQ(pool.live_workers(), 1u);
  const TaskRequest clean = gem_request();
  const WorkerRun again = pool.run_task(clean, nullptr);
  ASSERT_EQ(again.exit, WorkerExit::kCompleted) << again.detail;
  EXPECT_EQ(again.result.value, clean.task.expected());
}

// fork() exhaustion (EAGAIN on a pid-starved machine) is not producible on
// demand, so the pool's fork seam injects it: the outcome must be the
// classified kForkFailure — a transient resource-exhaustion diagnostic the
// retry table backs off on — never a bare error string, and never a
// phantom worker in the stats.
TEST(WarmPool, ForkFailureIsClassifiedAndRetryable) {
  WarmPool pool(WarmPoolOptions{}, [] { return static_cast<pid_t>(-1); });
  const WorkerRun run = pool.run_task(gem_request(), nullptr);
  EXPECT_EQ(run.exit, WorkerExit::kForkFailure) << run.detail;
  EXPECT_FALSE(run.has_result);
  EXPECT_EQ(pool.stats().spawned, 0u);  // no worker ever existed
  EXPECT_EQ(pool.live_workers(), 0u);
  EXPECT_EQ(diagnose_worker_exit(run.exit),
            Diagnostic::kResourceExhausted);
  EXPECT_EQ(robustness::classify_diagnostic(
                diagnose_worker_exit(run.exit)),
            robustness::FailureKind::kTransient);
}

// The supervisor retries through injected fork failures: two refused forks
// followed by a healthy one still certify, with both refusals classified
// in the attempt log. The seam also refuses the constructor's pre-fork, so
// the slot starts dead and every lease must fork; the refusals counted
// below are the first two leases'.
TEST(WarmPool, SupervisorRetriesThroughForkFailures) {
  int lease_refusals_left = 2;
  bool prefork_refused = false;
  WarmPoolOptions o;
  o.workers = 1;
  WarmPool pool(o, [&]() -> pid_t {
    if (!prefork_refused) {
      prefork_refused = true;
      return -1;
    }
    if (lease_refusals_left > 0) {
      --lease_refusals_left;
      return -1;
    }
    return ::fork();
  });
  ASSERT_EQ(pool.live_workers(), 0u);
  const TaskRequest req = gem_request();
  SupervisorOptions options;
  options.retry.max_attempts = 3;
  const SupervisedReport rep = supervised_run(pool, req.task, options);
  ASSERT_TRUE(rep.certified) << rep.to_string();
  EXPECT_EQ(rep.value, req.task.expected());
  ASSERT_EQ(rep.attempts.size(), 3u);
  EXPECT_EQ(rep.attempts[0].diagnostic, Diagnostic::kResourceExhausted);
  EXPECT_EQ(rep.attempts[1].diagnostic, Diagnostic::kResourceExhausted);
  EXPECT_EQ(rep.attempts[2].diagnostic, Diagnostic::kOk);
  EXPECT_EQ(lease_refusals_left, 0);
}

}  // namespace
}  // namespace pfact::serve
