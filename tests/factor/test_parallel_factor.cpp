// The parallel executions must be BIT-IDENTICAL to their sequential
// counterparts: parallelism reorders independent work only. The sizes sit
// above the pooled executor's grain cutoff, so the parallel engines really
// dispatch sweeps to the pool (asserted through the chunk counter).
#include "factor/parallel_factor.h"

#include <gtest/gtest.h>

#include <cstring>

#include "matrix/generators.h"
#include "numeric/rational.h"
#include "obs/counters.h"

namespace pfact::factor {
namespace {

using numeric::Rational;
using obs::Counter;

constexpr bool kObsOn = PFACT_OBS_ENABLED != 0;
constexpr std::size_t kLuN = 192;  // step 0: 191 rows of 192 -> 4 chunks
constexpr std::size_t kQrN = 320;  // mid stages: 160 rotations -> 4 chunks

// operator== plus the bytes: == alone lets NaN through the old max_abs_diff
// check (NaN never compares greater) and cannot see a signed zero.
bool bit_identical(const Matrix<double>& a, const Matrix<double>& b) {
  return a == b && (a.empty() || std::memcmp(a.row(0), b.row(0),
                                             a.rows() * a.cols() *
                                                 sizeof(double)) == 0);
}

// Some sweep of the run split into more than one chunk.
void expect_dispatched(const obs::CounterDelta& d) {
  if (!kObsOn) return;
  EXPECT_GT(d[Counter::kPoolChunksRun], d[Counter::kParallelForCalls]);
}

TEST(ParallelSamehKuck, BitIdenticalToSequential) {
  par::ThreadPool pool(4);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    auto a = gen::random_general(kQrN, seed);
    auto seq = givens_qr_sameh_kuck(a, false);
    obs::ScopedCounters sc;
    auto par_res = givens_qr_sameh_kuck_parallel(a, &pool);
    expect_dispatched(sc.delta());
    EXPECT_TRUE(bit_identical(seq.r, par_res.r)) << seed;
    EXPECT_EQ(seq.rotations, par_res.rotations);
    EXPECT_EQ(seq.stages, par_res.stages);
  }
}

TEST(ParallelSamehKuck, StageCountIsLinear) {
  par::ThreadPool pool(4);
  auto a = gen::random_general(kQrN, 3);
  auto r = givens_qr_sameh_kuck_parallel(a, &pool);
  EXPECT_EQ(r.stages, 2 * kQrN - 3);
  EXPECT_TRUE(r.r.is_upper_triangular());
}

class ParallelGeTest : public ::testing::TestWithParam<PivotStrategy> {};

TEST_P(ParallelGeTest, BitIdenticalToSequentialDouble) {
  par::ThreadPool pool(4);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    auto a = gen::random_nonsingular(kLuN, seed);
    auto seq = ge_factor(a, GetParam());
    obs::ScopedCounters sc;
    auto par_res = ge_factor_parallel_rows(a, GetParam(), &pool);
    expect_dispatched(sc.delta());
    ASSERT_EQ(seq.ok, par_res.ok);
    EXPECT_TRUE(bit_identical(seq.l, par_res.l)) << seed;
    EXPECT_TRUE(bit_identical(seq.u, par_res.u)) << seed;
    EXPECT_EQ(seq.row_perm, par_res.row_perm);
  }
}

TEST_P(ParallelGeTest, ExactRationalIdentical) {
  par::ThreadPool pool(2);
  auto a = gen::random_nonsingular_exact(7, 3, 5);
  auto seq = ge_factor(a, GetParam());
  auto par_res = ge_factor_parallel_rows(a, GetParam(), &pool);
  EXPECT_EQ(seq.l, par_res.l);
  EXPECT_EQ(seq.u, par_res.u);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, ParallelGeTest,
    ::testing::Values(PivotStrategy::kPartial, PivotStrategy::kMinimalSwap,
                      PivotStrategy::kMinimalShift),
    [](const auto& info) { return pivot_strategy_name(info.param); });

TEST(ParallelGe, GemReductionStillSimulatesThroughParallelEngine) {
  // The P-completeness content is about the pivot CHAIN, not the row
  // updates: the parallel-row engine runs the GEM reduction identically.
  par::ThreadPool pool(3);
  Matrix<double> tri{{0, 1, 0}, {0, 0, 1}, {7, 0, 0}};
  auto seq = ge_factor(tri, PivotStrategy::kMinimalShift);
  auto par_res =
      ge_factor_parallel_rows(tri, PivotStrategy::kMinimalShift, &pool);
  EXPECT_EQ(seq.row_perm, par_res.row_perm);
}

TEST(ParallelGe, PlainGeFailureDetectedIdentically) {
  par::ThreadPool pool(2);
  Matrix<double> a{{0, 1}, {1, 0}};
  auto r = ge_factor_parallel_rows(a, PivotStrategy::kNone, &pool);
  EXPECT_FALSE(r.ok);
}

}  // namespace
}  // namespace pfact::factor
