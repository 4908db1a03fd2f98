// Crash/resume equivalence: a run killed at ANY step boundary and resumed
// from its last checkpoint must decode the same boolean — and produce the
// same pivot trace, event for event — as an uninterrupted run. And a
// checkpoint that fails validation (torn, bit-flipped, or from a different
// task) is always rejected as kCheckpointCorrupt, never silently resumed.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "circuit/builders.h"
#include "circuit/circuit.h"
#include "robustness/checkpoint.h"
#include "robustness/escalation.h"
#include "robustness/guarded_run.h"

namespace pfact::robustness {
namespace {

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

// Kill at every checkpoint boundary of every task, resume, and compare
// against the uninterrupted baseline.
TEST(CrashResume, EveryKillPointResumesToTheSameDecodeAndTrace) {
  constexpr std::size_t kEvery = 2;
  for (const ReductionTask& task : equivalence_tasks()) {
    const RunReport baseline = run_on_substrate(task, Substrate::kDouble);
    ASSERT_EQ(baseline.diagnostic, Diagnostic::kOk) << task.describe();
    ASSERT_GT(baseline.steps_used, kEvery) << task.describe();

    for (std::size_t kill = kEvery; kill < baseline.steps_used;
         kill += kEvery) {
      CheckpointStore store;
      CheckpointConfig save;
      save.every = kEvery;
      save.store = &store;
      GuardLimits killer;
      killer.max_steps = kill;
      const RunReport killed =
          run_on_substrate(task, Substrate::kDouble, killer, {}, save);
      ASSERT_EQ(killed.diagnostic, Diagnostic::kStepBudgetExceeded)
          << task.describe() << " kill=" << kill;
      // The hook fires BEFORE the boundary step's guard tick, so the state
      // at the kill boundary itself has already been persisted.
      ASSERT_FALSE(store.empty()) << task.describe() << " kill=" << kill;
      ASSERT_EQ(store.latest_step(), kill);

      CheckpointConfig resume = save;
      resume.resume = true;
      const RunReport resumed =
          run_on_substrate(task, Substrate::kDouble, {}, {}, resume);
      ASSERT_EQ(resumed.diagnostic, Diagnostic::kOk)
          << task.describe() << " kill=" << kill << ": " << resumed.detail;
      EXPECT_EQ(resumed.value, baseline.value)
          << task.describe() << " kill=" << kill;
      // Bit-equal decode entry: the resumed arithmetic replays the exact
      // suffix operations on the snapshot state.
      EXPECT_EQ(resumed.decoded_entry, baseline.decoded_entry)
          << task.describe() << " kill=" << kill;
      EXPECT_TRUE(resumed.trace == baseline.trace)
          << task.describe() << " kill=" << kill;
      // The resumed suffix re-executes only the steps after the snapshot.
      EXPECT_EQ(resumed.steps_used, baseline.steps_used - kill)
          << task.describe() << " kill=" << kill;
    }
  }
}

// Resume across a retry loop (new guard each attempt): repeated kills make
// monotone progress through the checkpoint store until the run completes.
TEST(CrashResume, RepeatedKillsAccumulateProgress) {
  ReductionTask task;
  task.algorithm = Algorithm::kGep;
  task.u = 2;
  task.w = 2;
  task.depth = 1;
  const RunReport baseline = run_on_substrate(task, Substrate::kDouble);
  ASSERT_EQ(baseline.diagnostic, Diagnostic::kOk);

  CheckpointStore store;
  CheckpointConfig ckpt;
  ckpt.every = 2;
  ckpt.store = &store;
  ckpt.resume = true;
  GuardLimits killer;
  killer.max_steps = 3;
  RunReport rep;
  std::size_t attempts = 0;
  std::uint64_t last_progress = 0;
  do {
    rep = run_on_substrate(task, Substrate::kDouble, killer, {}, ckpt);
    ASSERT_LT(++attempts, 100u) << "no forward progress under kills";
    if (rep.diagnostic == Diagnostic::kStepBudgetExceeded) {
      EXPECT_GT(store.latest_step(), last_progress);
      last_progress = store.latest_step();
    }
  } while (rep.diagnostic == Diagnostic::kStepBudgetExceeded);
  ASSERT_EQ(rep.diagnostic, Diagnostic::kOk) << rep.detail;
  EXPECT_GT(attempts, 2u);
  EXPECT_EQ(rep.value, baseline.value);
  EXPECT_TRUE(rep.trace == baseline.trace);
}

// A store whose newest blob was corrupted must be rejected with
// kCheckpointCorrupt — whatever the corruption (tear, flip, truncation).
TEST(CrashResume, CorruptedLatestCheckpointIsNeverResumed) {
  ReductionTask task;
  task.algorithm = Algorithm::kGem;
  task.instance = circuit::CvpInstance{circuit::xor_circuit(), {true, true}};

  CheckpointStore pristine;
  CheckpointConfig save;
  save.every = 2;
  save.store = &pristine;
  GuardLimits killer;
  killer.max_steps = 5;
  run_on_substrate(task, Substrate::kDouble, killer, {}, save);
  ASSERT_FALSE(pristine.empty());
  const std::uint64_t step = pristine.latest_step();
  const std::string good = *pristine.latest();

  const auto corruptions = std::vector<std::string>{
      good.substr(0, good.size() / 2),              // torn tail
      good.substr(0, kCheckpointHeaderBytes - 1),   // torn header
      [&] { std::string b = good; b[b.size() / 2] ^= 0x10; return b; }(),
      [&] { std::string b = good; b[6] ^= 0x01; return b; }(),  // length bits
      std::string("garbage"),
  };
  for (std::size_t i = 0; i < corruptions.size(); ++i) {
    CheckpointStore store;
    store.put(step, corruptions[i]);
    CheckpointConfig resume;
    resume.every = 2;
    resume.store = &store;
    resume.resume = true;
    const RunReport rep =
        run_on_substrate(task, Substrate::kDouble, {}, {}, resume);
    EXPECT_EQ(rep.diagnostic, Diagnostic::kCheckpointCorrupt)
        << "corruption " << i << " got " << diagnostic_name(rep.diagnostic);
  }
}

// Shape guard: a perfectly valid checkpoint from a DIFFERENT task must be
// refused too (same CRC, wrong world).
TEST(CrashResume, ForeignTaskCheckpointIsRejected) {
  ReductionTask gems;
  gems.algorithm = Algorithm::kGems;
  gems.instance = circuit::CvpInstance{circuit::xor_circuit(), {true, true}};
  CheckpointStore store;
  CheckpointConfig save;
  save.every = 2;
  save.store = &store;
  GuardLimits killer;
  killer.max_steps = 5;
  run_on_substrate(gems, Substrate::kDouble, killer, {}, save);
  ASSERT_FALSE(store.empty());

  ReductionTask gem = gems;  // same matrix, different algorithm tag
  gem.algorithm = Algorithm::kGem;
  CheckpointConfig resume = save;
  resume.resume = true;
  const RunReport rep =
      run_on_substrate(gem, Substrate::kDouble, {}, {}, resume);
  EXPECT_EQ(rep.diagnostic, Diagnostic::kCheckpointCorrupt);
}

// The injector's kTornWrite corrupts the first snapshot at save time; the
// CRC (or the truncation check) must catch it on the resume attempt.
TEST(CrashResume, TornWriteFaultIsCaughtByValidation) {
  ReductionTask task;
  task.algorithm = Algorithm::kGep;
  task.u = 1;
  task.w = 2;
  task.depth = 1;
  for (std::uint64_t seed : {2ull, 3ull, 10ull, 11ull}) {  // flips and tears
    CheckpointStore store;
    CheckpointConfig save;
    save.every = 2;
    save.store = &store;
    GuardLimits killer;
    killer.max_steps = 3;
    FaultPlan torn;
    torn.fault = FaultClass::kTornWrite;
    torn.seed = seed;
    const RunReport killed =
        run_on_substrate(task, Substrate::kDouble, killer, torn, save);
    ASSERT_EQ(killed.diagnostic, Diagnostic::kStepBudgetExceeded);
    ASSERT_FALSE(store.empty());
    EXPECT_FALSE(killed.injection.empty()) << "seed " << seed;

    CheckpointConfig resume = save;
    resume.resume = true;
    const RunReport rep =
        run_on_substrate(task, Substrate::kDouble, {}, {}, resume);
    EXPECT_EQ(rep.diagnostic, Diagnostic::kCheckpointCorrupt)
        << "seed " << seed << ": " << rep.detail;
  }
}

}  // namespace
}  // namespace pfact::robustness
