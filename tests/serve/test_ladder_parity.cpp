// One ladder loop, two attempt kinds. The same task, seeded RetryPolicy,
// ladder and fault schedule run through resilient_run (every attempt in
// process) and through supervised_run (every attempt in a WarmPool worker)
// must walk the ladder identically: the same attempt log, escalations,
// certifying rung and value. Rides the `serve` label: real forked workers.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "robustness/checkpoint.h"
#include "robustness/escalation.h"
#include "robustness/fault_injector.h"
#include "robustness/resilient_run.h"
#include "serve/supervisor.h"
#include "serve/warm_pool.h"

namespace pfact::serve {
namespace {

using robustness::CheckpointStore;
using robustness::FaultClass;
using robustness::FaultPlan;
using robustness::ReductionTask;
using robustness::ResilientOptions;
using robustness::ResilientReport;
using robustness::Substrate;

ReductionTask gep_task(int u, int w) {
  ReductionTask t;
  t.algorithm = robustness::Algorithm::kGep;
  t.u = u;
  t.w = w;
  t.depth = 1;
  return t;
}

SupervisedReport run_in_workers(const ReductionTask& task,
                                const ResilientOptions& ro) {
  WarmPool pool({.workers = 1});
  SupervisorOptions so;
  static_cast<ResilientOptions&>(so) = ro;
  return supervised_run(pool, task, so);
}

void expect_same_walk(const ResilientReport& in, const SupervisedReport& sv) {
  ASSERT_EQ(in.attempts.size(), sv.attempts.size())
      << "in process:\n" << in.to_string() << "\nin workers:\n"
      << sv.to_string();
  for (std::size_t i = 0; i < in.attempts.size(); ++i) {
    const robustness::AttemptRecord& a = in.attempts[i];
    const robustness::AttemptRecord& b = sv.attempts[i];
    EXPECT_EQ(a.substrate, b.substrate) << "attempt " << i;
    EXPECT_EQ(a.attempt, b.attempt) << "attempt " << i;
    EXPECT_EQ(a.diagnostic, b.diagnostic) << "attempt " << i;
    EXPECT_EQ(a.kind, b.kind) << "attempt " << i;
    EXPECT_EQ(a.backoff.count(), b.backoff.count()) << "attempt " << i;
    EXPECT_EQ(a.resumed, b.resumed) << "attempt " << i;
  }
  EXPECT_EQ(in.escalations, sv.escalations);
  EXPECT_EQ(in.certified, sv.certified);
  EXPECT_EQ(in.certified_by, sv.certified_by);
  EXPECT_EQ(in.value, sv.value);
}

// A rounding flip on every attempt: SoftFloat53 exhausts its retries and
// the walk climbs to Rational, which certifies.
TEST(LadderParity, RoundingFlipEscalationMatches) {
  const ReductionTask task = gep_task(2, 2);
  ResilientOptions ro;
  ro.ladder = {Substrate::kSoftFloat53, Substrate::kRational};
  ro.retry.max_attempts = 2;
  ro.retry.jitter_seed = 17;
  FaultPlan flip;
  flip.fault = FaultClass::kRoundingFlip;
  ro.fault_for_attempt = [flip](std::size_t) { return flip; };

  const ResilientReport in = robustness::resilient_run(task, ro);
  ASSERT_TRUE(in.certified) << in.to_string();
  ASSERT_EQ(in.certified_by, Substrate::kRational);
  ASSERT_EQ(in.escalations, 1u);
  expect_same_walk(in, run_in_workers(task, ro));
}

// A transient storm: every attempt runs out of its step budget, and the
// next one resumes from the newest checkpoint until the task certifies.
// The schedule also flips the rounding mode of global attempt 2 only, so a
// walk that numbered its attempts differently would fail differently.
TEST(LadderParity, TransientStormResumesFromCheckpointsAlike) {
  const ReductionTask task = gep_task(2, 1);
  ResilientOptions ro;
  ro.ladder = {Substrate::kSoftFloat53, Substrate::kRational};
  ro.checkpoint_every = 2;
  ro.limits.max_steps = 3;
  ro.retry.max_attempts = 64;
  ro.retry.jitter_seed = 5;
  ro.fault_for_attempt = [](std::size_t attempt) {
    FaultPlan plan;
    if (attempt == 2) plan.fault = FaultClass::kRoundingFlip;
    return plan;
  };

  const ResilientReport in = robustness::resilient_run(task, ro);
  ASSERT_TRUE(in.certified) << in.to_string();
  ASSERT_GT(in.attempts.size(), 3u);
  ASSERT_EQ(in.attempts[1].diagnostic,
            robustness::Diagnostic::kRoundingAnomaly);
  ASSERT_TRUE(in.attempts.back().resumed);
  const SupervisedReport sv = run_in_workers(task, ro);
  expect_same_walk(in, sv);
  EXPECT_EQ(sv.final_report.steps_used, in.final_report.steps_used);
  EXPECT_EQ(sv.final_report.decoded_entry, in.final_report.decoded_entry);
}

// checkpoint_every == 0 disables checkpointing entirely, for both attempt
// kinds: a store the caller filled is neither resumed from nor handed to a
// worker, and the climb a first-rung rounding flip forces does not clear
// it.
TEST(LadderParity, NoCadenceIgnoresACallerFilledStore) {
  const ReductionTask task = gep_task(2, 1);
  CheckpointStore store;
  ResilientOptions fill;
  fill.ladder = {Substrate::kSoftFloat53};
  fill.checkpoint_every = 2;
  fill.limits.max_steps = 3;
  fill.retry.max_attempts = 1;
  fill.store = &store;
  ASSERT_FALSE(robustness::resilient_run(task, fill).certified);
  ASSERT_FALSE(store.empty());
  const std::size_t blobs = store.size();
  const std::uint64_t latest = store.latest_step();

  ResilientOptions ro;
  ro.ladder = {Substrate::kSoftFloat53, Substrate::kRational};
  ro.retry.max_attempts = 1;
  ro.store = &store;  // checkpoint_every stays 0
  ro.fault_for_attempt = [](std::size_t attempt) {
    FaultPlan plan;
    if (attempt == 1) plan.fault = FaultClass::kRoundingFlip;
    return plan;
  };
  const ResilientReport in = robustness::resilient_run(task, ro);
  const SupervisedReport sv = run_in_workers(task, ro);
  expect_same_walk(in, sv);
  ASSERT_TRUE(in.certified) << in.to_string();
  EXPECT_EQ(in.escalations, 1u);
  for (const robustness::AttemptRecord& a : in.attempts) {
    EXPECT_FALSE(a.resumed) << a.to_string();
  }
  EXPECT_EQ(sv.resume_handoffs, 0u);
  EXPECT_EQ(sv.checkpoints_received, 0u);
  EXPECT_EQ(store.size(), blobs);
  EXPECT_EQ(store.latest_step(), latest);
}

}  // namespace
}  // namespace pfact::serve
