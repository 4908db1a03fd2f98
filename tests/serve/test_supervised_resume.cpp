// Cross-process crash/resume equivalence: the serve/ mirror of
// tests/robustness/test_crash_resume.cpp. A worker REALLY killed (SIGKILL
// or a genuine SIGSEGV) after any number of streamed checkpoint saves must
// be resumable by a fresh worker seeded over the pipe, and the supervised
// answer must match the in-process baseline exactly: same boolean,
// bit-equal decoded entry, event-for-event pivot trace. Plus the
// supervisor's exit-status -> Diagnostic mapping, observed end to end.

#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "circuit/builders.h"
#include "circuit/circuit.h"
#include "robustness/escalation.h"
#include "robustness/guarded_run.h"
#include "robustness/retry.h"
#include "serve/supervisor.h"
#include "serve/warm_pool.h"

namespace pfact::serve {
namespace {

using robustness::Algorithm;
using robustness::Diagnostic;
using robustness::FailureKind;
using robustness::ReductionTask;
using robustness::RunReport;
using robustness::Substrate;

std::vector<ReductionTask> equivalence_tasks() {
  std::vector<ReductionTask> tasks;
  ReductionTask gem;
  gem.algorithm = Algorithm::kGem;
  gem.instance = circuit::CvpInstance{circuit::xor_circuit(), {true, false}};
  tasks.push_back(gem);
  ReductionTask gems = gem;
  gems.algorithm = Algorithm::kGems;
  gems.instance = circuit::CvpInstance{circuit::xor_circuit(), {true, true}};
  tasks.push_back(gems);
  ReductionTask nonsing = gem;
  nonsing.algorithm = Algorithm::kGemNonsingular;
  nonsing.instance =
      circuit::CvpInstance{circuit::xor_circuit(), {false, true}};
  tasks.push_back(nonsing);
  ReductionTask gep;
  gep.algorithm = Algorithm::kGep;
  gep.u = 2;
  gep.w = 1;
  gep.depth = 1;
  tasks.push_back(gep);
  ReductionTask gqr;
  gqr.algorithm = Algorithm::kGqr;
  gqr.u = 1;
  gqr.w = -1;
  gqr.depth = 1;
  tasks.push_back(gqr);
  return tasks;
}

SupervisorOptions fast_retry_options() {
  SupervisorOptions opt;
  opt.retry.max_attempts = 3;
  opt.retry.base_delay = std::chrono::milliseconds(0);  // replay at speed
  opt.checkpoint_every = 2;
  return opt;
}

// Kill a real worker at EVERY checkpoint boundary (including "before any
// save") with alternating SIGKILL / wild-store SIGSEGV, resume in a fresh
// worker, and compare against the uninterrupted in-process baseline.
TEST(SupervisedResume, EveryKillPointResumesToTheSameDecodeAndTrace) {
  constexpr std::size_t kEvery = 2;
  WarmPool pool({.workers = 1, .recycle_after = 1});  // fresh per attempt
  for (const ReductionTask& task : equivalence_tasks()) {
    const RunReport baseline = run_on_substrate(task, Substrate::kDouble);
    ASSERT_EQ(baseline.diagnostic, Diagnostic::kOk) << task.describe();

    // Learn how many saves an uninterrupted supervised run streams.
    SupervisorOptions probe = fast_retry_options();
    const SupervisedReport clean = supervised_run(pool, task, probe);
    ASSERT_TRUE(clean.certified) << task.describe() << "\n"
                                 << clean.to_string();
    ASSERT_EQ(clean.value, baseline.value) << task.describe();
    const std::size_t saves = clean.checkpoints_received;
    ASSERT_GT(saves, 0u) << task.describe();

    for (std::size_t j = 0; j <= saves; ++j) {
      SupervisorOptions opt = fast_retry_options();
      opt.kill_for_attempt = [j](std::size_t attempt) {
        KillPlan kill;
        if (attempt == 1) {
          kill.mode = (j % 2 == 0) ? KillPlan::Mode::kSigkill
                                   : KillPlan::Mode::kSigsegv;
          kill.after_saves = j;
        }
        return kill;
      };
      const SupervisedReport rep = supervised_run(pool, task, opt);
      ASSERT_TRUE(rep.certified)
          << task.describe() << " j=" << j << "\n" << rep.to_string();
      EXPECT_EQ(rep.value, baseline.value) << task.describe() << " j=" << j;
      EXPECT_EQ(rep.certified_by, Substrate::kDouble);
      // Bit-equal decode: the successor replayed the exact suffix
      // arithmetic on the snapshot it was handed over the pipe.
      EXPECT_EQ(rep.final_report.decoded_entry, baseline.decoded_entry)
          << task.describe() << " j=" << j;
      EXPECT_TRUE(rep.final_report.trace == baseline.trace)
          << task.describe() << " j=" << j;
      // Attempt 1 really died; attempt 2 finished the job.
      ASSERT_EQ(rep.attempts.size(), 2u) << task.describe() << " j=" << j;
      EXPECT_EQ(rep.attempts[0].diagnostic, Diagnostic::kWorkerFailure);
      EXPECT_EQ(rep.workers_spawned, 2u);
      EXPECT_EQ(rep.workers_crashed, 1u);
      if (j == 0) {
        // Killed before any save: the successor starts from scratch.
        EXPECT_EQ(rep.resume_handoffs, 0u) << task.describe();
        EXPECT_EQ(rep.final_report.steps_used, baseline.steps_used);
      } else {
        EXPECT_EQ(rep.resume_handoffs, 1u) << task.describe() << " j=" << j;
        EXPECT_TRUE(rep.attempts[1].resumed);
        // The successor re-executes only the steps after save j.
        EXPECT_EQ(rep.final_report.steps_used,
                  baseline.steps_used - j * kEvery)
            << task.describe() << " j=" << j;
      }
    }
  }
}

TEST(SupervisedResume, WatchdogDeathMapsToDeadlineExceededAndRetries) {
  WarmPool pool({.workers = 1, .recycle_after = 1});  // fresh per attempt
  ReductionTask task;
  task.algorithm = Algorithm::kGem;
  task.instance = circuit::CvpInstance{circuit::xor_circuit(), {true, true}};
  SupervisorOptions opt = fast_retry_options();
  opt.watchdog = std::chrono::milliseconds(200);
  opt.kill_for_attempt = [](std::size_t attempt) {
    KillPlan kill;
    if (attempt == 1) kill.mode = KillPlan::Mode::kSpin;  // wedge forever
    return kill;
  };
  const SupervisedReport rep = supervised_run(pool, task, opt);
  ASSERT_TRUE(rep.certified) << rep.to_string();
  ASSERT_GE(rep.attempts.size(), 2u);
  EXPECT_EQ(rep.attempts[0].diagnostic, Diagnostic::kDeadlineExceeded);
  EXPECT_EQ(rep.watchdog_kills, 1u);
  EXPECT_EQ(rep.value, task.expected());
}

TEST(SupervisedResume, CpuSandboxDeathMapsToResourceExhausted) {
  WarmPool pool({.workers = 1, .recycle_after = 1});  // fresh per attempt
  ReductionTask task;
  task.algorithm = Algorithm::kGem;
  task.instance = circuit::CvpInstance{circuit::xor_circuit(), {false, true}};
  SupervisorOptions opt = fast_retry_options();
  opt.rlimits.cpu_seconds = 1;
  opt.kill_for_attempt = [](std::size_t attempt) {
    KillPlan kill;
    if (attempt == 1) kill.mode = KillPlan::Mode::kSpin;  // burn the budget
    return kill;
  };
  const SupervisedReport rep = supervised_run(pool, task, opt);
  ASSERT_TRUE(rep.certified) << rep.to_string();
  ASSERT_GE(rep.attempts.size(), 2u);
  EXPECT_EQ(rep.attempts[0].diagnostic, Diagnostic::kResourceExhausted);
  EXPECT_EQ(rep.value, task.expected());
}

TEST(SupervisedResume, RelentlessKillsExhaustTheLadderAsClassifiedFailure) {
  WarmPool pool({.workers = 1, .recycle_after = 1});  // fresh per attempt
  ReductionTask task;
  task.algorithm = Algorithm::kGem;
  task.instance = circuit::CvpInstance{circuit::xor_circuit(), {true, false}};
  SupervisorOptions opt = fast_retry_options();
  opt.retry.max_attempts = 2;
  opt.kill_for_attempt = [](std::size_t) {
    KillPlan kill;
    kill.mode = KillPlan::Mode::kSigkill;  // every attempt, every rung
    return kill;
  };
  const SupervisedReport rep = supervised_run(pool, task, opt);
  // Zero wrong answers: no worker ever finished, so there is no value —
  // only a classified transient failure, and the supervisor survived.
  EXPECT_FALSE(rep.certified);
  EXPECT_EQ(rep.outcome, FailureKind::kTransient);
  EXPECT_EQ(rep.final_report.diagnostic, Diagnostic::kWorkerFailure);
  EXPECT_EQ(rep.workers_crashed, rep.workers_spawned);
  EXPECT_EQ(rep.escalations, 2u);  // climbed the whole GEM ladder
}

TEST(SupervisedResume, DiagnoseWorkerExitIsTotalAndTransient) {
  for (WorkerExit e : all_worker_exits()) {
    const Diagnostic d = diagnose_worker_exit(e);
    EXPECT_NE(d, Diagnostic::kInternalError) << worker_exit_name(e);
    if (e == WorkerExit::kCompleted) {
      EXPECT_EQ(d, Diagnostic::kOk);
    } else {
      // Every death class is worth a fresh worker: transient, never fatal.
      EXPECT_EQ(robustness::classify_diagnostic(d), FailureKind::kTransient)
          << worker_exit_name(e);
    }
  }
}

}  // namespace
}  // namespace pfact::serve
