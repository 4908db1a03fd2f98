// Dense-vs-sparse differential sweep (ctest label `differential`).
//
// The sparse backend's contract is not "close": it is BIT-EQUAL. Every
// guarded driver templated over the storage concept must produce, for the
// same task on the same substrate,
//
//   * the same boolean answer and the same raw decoded entry (bit-equal),
//   * the same pivot trace, event for event (same columns, same contest
//     winners, same actions),
//   * the same RunReport diagnostics (guard ticks, order, excerpt strings),
//
// because the sparse operations mirror the dense field-operation order
// exactly — absent entries participate as explicit field zeros. This sweep
// holds the two backends to that contract over 200 random NANDCVP circuits
// (25 per shard x 8 shards) across the full substrate ladder
// (double / SoftFloat53 / exact rationals), both pivot strategies, the
// bordered nonsingular embedding, the GEP and GQR gadget chains, every
// fault-injection class, and kill-at-every-boundary crash/resume through
// the sparse checkpoint codec.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/builders.h"
#include "circuit/circuit.h"
#include "core/assembler.h"
#include "matrix/sparse.h"
#include "robustness/checkpoint.h"
#include "robustness/escalation.h"
#include "robustness/guarded_run.h"

namespace pfact::robustness {
namespace {

using circuit::CvpInstance;

constexpr std::size_t kShards = 8;
constexpr std::size_t kCircuitsPerShard = 25;  // 8 x 25 = 200 circuits

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  return x * 0x2545F4914F6CDD1DULL;
}

// Same drawing rule as tests/diff/test_differential.cpp: 2-3 inputs, 4-9
// gates keeps the exact-rational runs fast enough for sanitizer configs.
CvpInstance draw(std::uint64_t seed) {
  const std::size_t num_inputs = 2 + mix(seed) % 2;
  const std::size_t num_gates = 4 + mix(seed + 1) % 6;
  circuit::Circuit c = circuit::random_circuit(num_inputs, num_gates,
                                               static_cast<unsigned>(seed));
  std::vector<bool> in(c.num_inputs());
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = (mix(seed + 2 + i) & 1) != 0;
  }
  return CvpInstance{std::move(c), std::move(in)};
}

// The full equivalence predicate: one assertion site so every test in this
// file holds the backends to the identical bar.
void expect_reports_equal(const RunReport& dense, const RunReport& sparse,
                          const std::string& what) {
  ASSERT_EQ(dense.diagnostic, sparse.diagnostic)
      << what << "\ndense:  " << dense.to_string()
      << "\nsparse: " << sparse.to_string();
  EXPECT_EQ(dense.algorithm, sparse.algorithm) << what;
  EXPECT_EQ(dense.order, sparse.order) << what;
  EXPECT_EQ(dense.steps_used, sparse.steps_used) << what;
  // Bit-equal: decoded_entry is the raw field entry read at decode time.
  EXPECT_EQ(dense.decoded_entry, sparse.decoded_entry) << what;
  EXPECT_EQ(dense.pivot_excerpt, sparse.pivot_excerpt) << what;
  EXPECT_EQ(dense.detail, sparse.detail) << what;
  EXPECT_EQ(dense.offending_row, sparse.offending_row) << what;
  EXPECT_EQ(dense.offending_col, sparse.offending_col) << what;
  EXPECT_TRUE(dense.trace == sparse.trace) << what;
  if (dense.ok()) {
    EXPECT_EQ(dense.value, sparse.value) << what;
  }
}

// Runs the task on both backends on one substrate and asserts equivalence;
// returns the dense report for further checks.
RunReport run_both(ReductionTask task, Substrate s, const std::string& what,
                   const GuardLimits& limits = {}, const FaultPlan& fault = {},
                   const CheckpointConfig& ckpt = {}) {
  task.backend = Backend::kDense;
  const RunReport dense = run_on_substrate(task, s, limits, fault, ckpt);
  task.backend = Backend::kSparse;
  const RunReport sparse = run_on_substrate(task, s, limits, fault, ckpt);
  expect_reports_equal(dense, sparse,
                       what + " substrate=" + substrate_name(s));
  return dense;
}

class SparseDifferentialShard : public ::testing::TestWithParam<std::size_t> {
};

// The headline sweep: GEM and GEMS on 200 random circuits, all three
// substrates, dense vs sparse.
TEST_P(SparseDifferentialShard, GemAndGemsAreBackendInvariant) {
  const std::size_t shard = GetParam();
  for (std::size_t k = 0; k < kCircuitsPerShard; ++k) {
    const std::uint64_t seed = 1 + shard * kCircuitsPerShard + k;
    CvpInstance inst = draw(seed * 7919);
    const bool expected = inst.expected();

    for (Algorithm alg : {Algorithm::kGem, Algorithm::kGems}) {
      ReductionTask task;
      task.algorithm = alg;
      task.instance = inst;
      const std::string what =
          "seed=" + std::to_string(seed) + " " + algorithm_name(alg);
      for (Substrate s : {Substrate::kDouble, Substrate::kSoftFloat53,
                          Substrate::kRational}) {
        const RunReport rep = run_both(task, s, what);
        ASSERT_EQ(rep.diagnostic, Diagnostic::kOk) << what;
        EXPECT_EQ(rep.value, expected) << what;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllShards, SparseDifferentialShard,
                         ::testing::Range<std::size_t>(0, kShards));

// The bordered nonsingular embedding doubles the order and decodes through
// a borrowed pivot — a different code path through build_reduction on both
// backends (the sparse one borders in CSR form without a dense detour).
TEST(SparseDifferential, NonsingularEmbeddingIsBackendInvariant) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    CvpInstance inst = draw(seed * 104729);
    ReductionTask task;
    task.algorithm = Algorithm::kGemNonsingular;
    task.instance = inst;
    const std::string what = "seed=" + std::to_string(seed) + " nonsingular";
    for (Substrate s : {Substrate::kDouble, Substrate::kSoftFloat53,
                        Substrate::kRational}) {
      const RunReport rep = run_both(task, s, what);
      ASSERT_EQ(rep.diagnostic, Diagnostic::kOk) << what;
      EXPECT_EQ(rep.value, task.expected()) << what;
    }
  }
}

// GEP partial-pivoting chains and GQR rotation chains: all input pairs, a
// ladder of depths. GQR's kDouble rung runs over long double and pivots by
// rotation (rotate_rows is the sparse op under test); Rational is not in
// GQR's ladder (no field sqrt).
TEST(SparseDifferential, GepAndGqrChainsAreBackendInvariant) {
  for (int u : {1, 2}) {
    for (int w : {1, 2}) {
      for (std::size_t depth = 0; depth <= 5; ++depth) {
        ReductionTask gep;
        gep.algorithm = Algorithm::kGep;
        gep.u = u;
        gep.w = w;
        gep.depth = depth;
        const std::string what = "u=" + std::to_string(u) +
                                 " w=" + std::to_string(w) +
                                 " depth=" + std::to_string(depth);
        for (Substrate s : {Substrate::kDouble, Substrate::kSoftFloat53,
                            Substrate::kRational}) {
          const RunReport rep = run_both(gep, s, "GEP " + what);
          ASSERT_EQ(rep.diagnostic, Diagnostic::kOk) << what;
          EXPECT_EQ(rep.value, gep.expected()) << what;
        }

        ReductionTask gqr;
        gqr.algorithm = Algorithm::kGqr;
        gqr.u = u == 1 ? 1 : -1;  // GQR encodes in {-1, +1}
        gqr.w = w == 1 ? 1 : -1;
        gqr.depth = depth;
        for (Substrate s : {Substrate::kDouble, Substrate::kSoftFloat53}) {
          const RunReport rep = run_both(gqr, s, "GQR " + what);
          ASSERT_EQ(rep.diagnostic, Diagnostic::kOk) << what;
          EXPECT_EQ(rep.value, gqr.expected()) << what;
        }
      }
    }
  }
}

// Fault injection: the injector enumerates corruption sites through the
// storage concept (row-major get/set), so the same plan corrupts the same
// logical entry on both backends — the whole corrupted run must stay
// equivalent, and an injected fault is either detected (non-kOk) or
// harmless (the certified answer is still correct) on BOTH backends.
TEST(SparseDifferential, InjectedFaultsAreBackendInvariant) {
  for (std::uint64_t cseed = 1; cseed <= 4; ++cseed) {
    CvpInstance inst = draw(cseed * 15485863);
    ReductionTask task;
    task.algorithm = Algorithm::kGem;
    task.instance = inst;
    for (FaultClass fc :
         {FaultClass::kBitFlip, FaultClass::kEpsilonNudge,
          FaultClass::kPivotTie, FaultClass::kTruncatedInput}) {
      for (std::uint64_t fseed = 0; fseed < 4; ++fseed) {
        FaultPlan plan;
        plan.fault = fc;
        plan.seed = fseed;
        const std::string what = "circuit=" + std::to_string(cseed) + " " +
                                 plan.describe();
        const RunReport rep =
            run_both(task, Substrate::kDouble, what, {}, plan);
        if (rep.ok()) {
          EXPECT_EQ(rep.value, task.expected())
              << what << " (undetected fault flipped the answer)";
        }
      }
    }
  }
}

// Kill-at-every-boundary crash/resume THROUGH THE SPARSE PATH: snapshots
// are sparse-CSR checkpoint blobs (sparse-double field tag), and a run
// resumed from any boundary must match the uninterrupted sparse run —
// which the sweeps above pin to the dense run. Mirrors
// tests/robustness/test_crash_resume.cpp over Backend::kSparse.
TEST(SparseDifferential, EveryKillPointResumesThroughSparseCheckpoints) {
  constexpr std::size_t kEvery = 2;
  ReductionTask task;
  task.algorithm = Algorithm::kGem;
  task.instance = CvpInstance{circuit::xor_circuit(), {true, false}};
  task.backend = Backend::kSparse;

  const RunReport baseline = run_on_substrate(task, Substrate::kDouble);
  ASSERT_EQ(baseline.diagnostic, Diagnostic::kOk);
  ASSERT_GT(baseline.steps_used, kEvery);

  for (std::size_t kill = kEvery; kill < baseline.steps_used; kill += kEvery) {
    CheckpointStore store;
    CheckpointConfig save;
    save.every = kEvery;
    save.store = &store;
    GuardLimits killer;
    killer.max_steps = kill;
    const RunReport killed =
        run_on_substrate(task, Substrate::kDouble, killer, {}, save);
    ASSERT_EQ(killed.diagnostic, Diagnostic::kStepBudgetExceeded)
        << "kill=" << kill;
    ASSERT_FALSE(store.empty()) << "kill=" << kill;

    // The persisted blob really is a sparse-backend checkpoint: it decodes
    // as SparseMatrix<double> and refuses the dense instantiation.
    const std::string blob = *store.latest();
    StorageCheckpoint<sparse::SparseMatrix<double>> snap;
    ASSERT_EQ(decode_storage_checkpoint(blob, snap), CheckpointStatus::kOk);
    FactorCheckpoint<double> wrong;
    EXPECT_EQ(decode_checkpoint<double>(blob, wrong),
              CheckpointStatus::kMalformed);

    CheckpointConfig resume = save;
    resume.resume = true;
    const RunReport resumed =
        run_on_substrate(task, Substrate::kDouble, {}, {}, resume);
    ASSERT_EQ(resumed.diagnostic, Diagnostic::kOk)
        << "kill=" << kill << ": " << resumed.detail;
    EXPECT_EQ(resumed.value, baseline.value) << "kill=" << kill;
    EXPECT_EQ(resumed.decoded_entry, baseline.decoded_entry)
        << "kill=" << kill;
    EXPECT_TRUE(resumed.trace == baseline.trace)
        << "kill=" << kill;
    EXPECT_EQ(resumed.steps_used, baseline.steps_used - kill)
        << "kill=" << kill;
  }
}

// A dense checkpoint must never seed a sparse resume (and vice versa): the
// field tag is part of the payload, and a mismatch is kCheckpointCorrupt at
// the driver level — the backends' blobs are not interchangeable even
// though their logical state is equal.
TEST(SparseDifferential, CrossBackendCheckpointsAreRefusedOnResume) {
  ReductionTask task;
  task.algorithm = Algorithm::kGem;
  task.instance = CvpInstance{circuit::xor_circuit(), {true, true}};

  for (Backend saver : {Backend::kDense, Backend::kSparse}) {
    task.backend = saver;
    CheckpointStore store;
    CheckpointConfig save;
    save.every = 2;
    save.store = &store;
    GuardLimits killer;
    killer.max_steps = 4;
    const RunReport killed =
        run_on_substrate(task, Substrate::kDouble, killer, {}, save);
    ASSERT_EQ(killed.diagnostic, Diagnostic::kStepBudgetExceeded);
    ASSERT_FALSE(store.empty());

    ReductionTask other = task;
    other.backend = saver == Backend::kDense ? Backend::kSparse
                                             : Backend::kDense;
    CheckpointConfig resume = save;
    resume.resume = true;
    const RunReport rep =
        run_on_substrate(other, Substrate::kDouble, {}, {}, resume);
    EXPECT_EQ(rep.diagnostic, Diagnostic::kCheckpointCorrupt)
        << "saved by " << backend_name(saver);
  }
}

// The reason the backend exists, asserted as an invariant rather than a
// benchmark: on every swept circuit the sparse workspace holds O(rows)
// entries, strictly fewer than the n^2 scalars the dense backend stores.
TEST(SparseDifferential, ReductionMatricesStaySparse) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    CvpInstance inst = draw(seed * 6700417);
    core::SparseGemReduction red = core::build_gem_reduction_sparse(inst);
    const std::size_t n = red.matrix.rows();
    ASSERT_GT(n, 0u) << "seed=" << seed;
    EXPECT_LT(red.matrix.nnz(), n * n) << "seed=" << seed;
    // Block-banded with O(1)-entry gadget rows: nnz is linear in the order,
    // with a small constant (the widest gadget row has 3 entries).
    EXPECT_LE(red.matrix.nnz(), 3 * n) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace pfact::robustness
