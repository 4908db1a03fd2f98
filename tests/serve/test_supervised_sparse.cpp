// Cross-process crash/resume equivalence for the SPARSE backend (ctest
// label `serve`): the Backend::kSparse mirror of
// tests/serve/test_supervised_resume.cpp. The backend travels in the wire
// request, the worker factorizes over SparseMatrix storage, streams
// sparse-CSR checkpoint frames over its pipe, and a worker REALLY killed at
// every checkpoint boundary must be resumable by a fresh worker seeded with
// a sparse blob — landing on the bit-identical decode and event-for-event
// trace of the uninterrupted IN-PROCESS DENSE baseline, closing the loop:
// dense in-process == sparse in-process == sparse supervised-with-kills.

#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "circuit/builders.h"
#include "circuit/circuit.h"
#include "robustness/escalation.h"
#include "robustness/guarded_run.h"
#include "serve/result_cache.h"
#include "serve/supervisor.h"
#include "serve/warm_pool.h"

namespace pfact::serve {
namespace {

using robustness::Algorithm;
using robustness::Backend;
using robustness::Diagnostic;
using robustness::ReductionTask;
using robustness::RunReport;
using robustness::Substrate;

std::vector<ReductionTask> sparse_tasks() {
  std::vector<ReductionTask> tasks;
  ReductionTask gem;
  gem.algorithm = Algorithm::kGem;
  gem.backend = Backend::kSparse;
  gem.instance = circuit::CvpInstance{circuit::xor_circuit(), {true, false}};
  tasks.push_back(gem);
  ReductionTask gems = gem;
  gems.algorithm = Algorithm::kGems;
  gems.instance = circuit::CvpInstance{circuit::xor_circuit(), {true, true}};
  tasks.push_back(gems);
  // GQR exercises rotate_rows and the sparse-long-double blob tag.
  ReductionTask gqr;
  gqr.algorithm = Algorithm::kGqr;
  gqr.backend = Backend::kSparse;
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

TEST(SupervisedSparse, EveryKillPointResumesToTheDenseBaselineDecode) {
  constexpr std::size_t kEvery = 2;
  WarmPool pool({.workers = 1, .recycle_after = 1});  // fresh per attempt
  for (const ReductionTask& task : sparse_tasks()) {
    // The equivalence anchor is the DENSE in-process run: the supervised
    // sparse answer must match it bit for bit, not merely itself.
    ReductionTask dense = task;
    dense.backend = Backend::kDense;
    const RunReport baseline = run_on_substrate(dense, Substrate::kDouble);
    ASSERT_EQ(baseline.diagnostic, Diagnostic::kOk) << task.describe();

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
      // Bit-equal to the dense world: the successor replayed the sparse
      // suffix arithmetic on a sparse-CSR snapshot handed over the pipe,
      // and none of that is allowed to show in the answer.
      EXPECT_EQ(rep.final_report.decoded_entry, baseline.decoded_entry)
          << task.describe() << " j=" << j;
      EXPECT_TRUE(rep.final_report.trace == baseline.trace)
          << task.describe() << " j=" << j;
      ASSERT_EQ(rep.attempts.size(), 2u) << task.describe() << " j=" << j;
      EXPECT_EQ(rep.attempts[0].diagnostic, Diagnostic::kWorkerFailure);
      EXPECT_EQ(rep.workers_spawned, 2u);
      EXPECT_EQ(rep.workers_crashed, 1u);
      if (j == 0) {
        EXPECT_EQ(rep.resume_handoffs, 0u) << task.describe();
        EXPECT_EQ(rep.final_report.steps_used, baseline.steps_used);
      } else {
        EXPECT_EQ(rep.resume_handoffs, 1u) << task.describe() << " j=" << j;
        EXPECT_TRUE(rep.attempts[1].resumed);
        EXPECT_EQ(rep.final_report.steps_used,
                  baseline.steps_used - j * kEvery)
            << task.describe() << " j=" << j;
      }
    }
  }
}

// The cache key must keep the backends apart: a certified entry carries the
// run's final checkpoint blob, and a dense blob seeded into a sparse resume
// (or vice versa) would be refused as corrupt — so the two runs must not
// share an entry even though their answers agree.
TEST(SupervisedSparse, CacheKeysSeparateBackends) {
  ReductionTask task;
  task.algorithm = Algorithm::kGem;
  task.instance = circuit::CvpInstance{circuit::xor_circuit(), {true, true}};
  task.backend = Backend::kDense;
  const std::string dense_key = ResultCache::key_for(task, Substrate::kDouble);
  task.backend = Backend::kSparse;
  const std::string sparse_key =
      ResultCache::key_for(task, Substrate::kDouble);
  EXPECT_NE(dense_key, sparse_key);
  EXPECT_NE(sparse_key.find("sparse"), std::string::npos);
}

}  // namespace
}  // namespace pfact::serve
