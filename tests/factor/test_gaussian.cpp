// Tests of the four pivoting strategies, including the behavioural contrasts
// the paper builds on: GE fails where pivoting succeeds; GEM/GEMS pick the
// LOWEST-indexed nonzero (not the largest); GEMS preserves the relative
// order of non-pivot rows while GEM does not; on strongly nonsingular input
// all strategies (even no pivoting) coincide in exact arithmetic.
#include "factor/gaussian.h"

#include <gtest/gtest.h>

#include <type_traits>

#include "matrix/generators.h"
#include "numeric/rational.h"

namespace pfact::factor {
namespace {

using numeric::Rational;

// PA = LU reconstruction (P stacks original rows in pivot order).
template <class T>
void expect_plu_reconstructs(const Matrix<T>& a, const LuResult<T>& f,
                             double tol) {
  ASSERT_TRUE(f.ok);
  Matrix<T> pa = f.row_perm.apply_rows(a);
  Matrix<T> lu = f.l * f.u;
  EXPECT_LE(max_abs_diff(pa, lu), tol);
  EXPECT_TRUE(f.l.is_unit_lower_triangular());
  EXPECT_TRUE(f.u.is_upper_triangular());
}

// gtest prints a case as its raw bytes, and gtest_discover_tests records
// that dump in every ctest name. The name is held in place, not behind a
// pointer whose address changes with each run, and no byte is padding, so
// each case dumps the same bytes and keeps one name on every build.
struct StrategyCase {
  PivotStrategy strategy;
  char name[12];
};
static_assert(std::has_unique_object_representations_v<StrategyCase>);

class GeStrategyTest : public ::testing::TestWithParam<StrategyCase> {};

TEST_P(GeStrategyTest, ReconstructsRandomNonsingular) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    auto a = gen::random_nonsingular(12, seed);
    auto f = ge_factor(a, GetParam().strategy);
    expect_plu_reconstructs(a, f, 1e-9);
  }
}

TEST_P(GeStrategyTest, ReconstructsDiagonallyDominant) {
  auto a = gen::random_diagonally_dominant(15, 7);
  auto f = ge_factor(a, GetParam().strategy);
  expect_plu_reconstructs(a, f, 1e-10);
}

TEST_P(GeStrategyTest, ExactRationalReconstructionIsExact) {
  auto a = gen::random_nonsingular_exact(8, 5, 11);
  auto f = ge_factor(a, GetParam().strategy);
  ASSERT_TRUE(f.ok);
  Matrix<Rational> pa = f.row_perm.apply_rows(a);
  EXPECT_EQ(pa, f.l * f.u);
}

TEST_P(GeStrategyTest, SingularMatrixYieldsSkipsNotCrashes) {
  if (GetParam().strategy == PivotStrategy::kNone) GTEST_SKIP();
  Matrix<double> a{{1, 2, 3}, {2, 4, 6}, {1, 1, 1}};  // rank 2
  auto f = ge_factor(a, GetParam().strategy);
  EXPECT_TRUE(f.ok);
  expect_plu_reconstructs(a, f, 1e-12);
  EXPECT_GE(f.trace.skip_count() + 0u, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, GeStrategyTest,
    ::testing::Values(StrategyCase{PivotStrategy::kNone, "GE"},
                      StrategyCase{PivotStrategy::kPartial, "GEP"},
                      StrategyCase{PivotStrategy::kMinimalSwap, "GEM"},
                      StrategyCase{PivotStrategy::kMinimalShift, "GEMS"}),
    [](const auto& info) { return info.param.name; });

TEST(GaussianNoPivot, FailsOnZeroPivot) {
  Matrix<double> a{{0, 1}, {1, 0}};
  auto f = ge(a);
  EXPECT_FALSE(f.ok);
  EXPECT_TRUE(f.trace.failed());
}

TEST(GaussianNoPivot, SucceedsOnStronglyNonsingular) {
  auto a = gen::random_diagonally_dominant(10, 1);
  EXPECT_TRUE(ge(a).ok);
}

TEST(GaussianPartial, ChoosesMaxMagnitudePivot) {
  Matrix<double> a{{1, 0, 0}, {-5, 1, 0}, {3, 0, 1}};
  auto f = gep(a);
  ASSERT_GE(f.trace.size(), 1u);
  EXPECT_EQ(f.trace[0].pivot_row, 1u);  // |-5| is the column max
  EXPECT_EQ(f.trace[0].action, PivotAction::kSwap);
}

TEST(GaussianMinimal, ChoosesLowestIndexedNonzero) {
  Matrix<double> a{{0, 1, 0}, {0, 0, 1}, {7, 0, 0}};
  for (auto s : {PivotStrategy::kMinimalSwap, PivotStrategy::kMinimalShift}) {
    auto f = ge_factor(a, s);
    ASSERT_GE(f.trace.size(), 1u);
    // Rows 0 and 1 are zero in column 0; row 2 is the lowest nonzero.
    EXPECT_EQ(f.trace[0].pivot_row, 2u);
  }
}

TEST(GaussianMinimal, MinimalBeatsMagnitude) {
  // GEM takes row 1 (first nonzero, value 1e-12); GEP takes row 2 (value 5).
  Matrix<double> a{{0, 1, 0}, {1e-12, 0, 1}, {5, 0, 0}};
  auto fm = gem(a);
  auto fp = gep(a);
  EXPECT_EQ(fm.trace[0].pivot_row, 1u);
  EXPECT_EQ(fp.trace[0].pivot_row, 2u);
}

TEST(GaussianShift, PreservesRelativeOrderOfNonPivotRows) {
  // Column 0: rows 0..2 zero, row 3 nonzero. GEMS must bring row 3 to the
  // top while keeping rows 0,1,2 in order below it; GEM swaps 0 <-> 3.
  Matrix<double> a{{0, 1, 0, 0},
                   {0, 2, 1, 0},
                   {0, 3, 0, 1},
                   {4, 4, 4, 4}};
  auto fs = gems(a);
  EXPECT_EQ(fs.row_perm.map(),
            (std::vector<std::size_t>{3, 0, 1, 2}));
  auto fm = gem(a);
  EXPECT_EQ(fm.row_perm[0], 3u);
  EXPECT_EQ(fm.row_perm[3], 0u);  // swap, not shift
}

TEST(GaussianStronglyNonsingular, AllStrategiesAgreeWithoutRowExchanges) {
  // "Clearly GEMS and GEM behave the same when fed with strongly nonsingular
  // matrices ... without performing any row exchange" (Section 3.1).
  auto a = gen::hilbert_exact(7);
  for (auto s : {PivotStrategy::kNone, PivotStrategy::kMinimalSwap,
                 PivotStrategy::kMinimalShift}) {
    auto f = ge_factor(a, s);
    ASSERT_TRUE(f.ok);
    EXPECT_TRUE(f.row_perm.is_identity()) << pivot_strategy_name(s);
    EXPECT_EQ(f.trace.swap_count(), 0u) << pivot_strategy_name(s);
  }
  // And the LU factorization is the unique one: compare GEM vs GE exactly.
  auto f1 = ge(a);
  auto f2 = gem(a);
  auto f3 = gems(a);
  EXPECT_EQ(f1.u, f2.u);
  EXPECT_EQ(f1.l, f2.l);
  EXPECT_EQ(f2.u, f3.u);
  EXPECT_EQ(f2.l, f3.l);
}

TEST(GaussianTrace, LanguageMembershipHelper) {
  Matrix<double> a{{0, 1}, {1, 0}};
  auto f = gep(a);
  // GEP used original row 1 to eliminate column 0.
  EXPECT_TRUE(f.trace.used_row_for_column(1, 0));
  EXPECT_FALSE(f.trace.used_row_for_column(0, 0));
}

TEST(EliminateSteps, PartialRunTransformsOnlyLeadingColumns) {
  Matrix<Rational> a{{2, 1, 1, 5},
                     {4, 3, 3, 6},
                     {8, 7, 9, 9}};
  Permutation perm(3);
  auto trace = eliminate_steps(a, PivotStrategy::kMinimalSwap, 1, &perm);
  EXPECT_EQ(trace.size(), 1u);
  // Column 0 eliminated below diagonal.
  EXPECT_TRUE(a(1, 0).is_zero());
  EXPECT_TRUE(a(2, 0).is_zero());
  // Row 1 = row1 - 2*row0, including the trailing "link" column.
  EXPECT_EQ(a(1, 3), Rational(-4));
  EXPECT_EQ(a(2, 3), Rational(-11));
  // Column 1 untouched below diagonal so far.
  EXPECT_EQ(a(2, 1), Rational(3));
}

TEST(EliminateSteps, RectangularLinkColumnsFollowRowOps) {
  // Wide matrix: elimination stops at the square core but row operations
  // must reach every column (this is how gadget link values propagate).
  Matrix<Rational> a{{1, 0, 7}, {1, 1, 9}};
  eliminate_steps(a, PivotStrategy::kMinimalShift, 2);
  EXPECT_EQ(a(1, 2), Rational(2));  // 9 - 7
}

TEST(Determinant, MatchesKnownValues) {
  Matrix<double> a{{1, 2}, {3, 4}};
  EXPECT_NEAR(det(a), -2.0, 1e-12);
  Matrix<Rational> b{{2, 0, 0}, {0, 3, 0}, {0, 0, 5}};
  EXPECT_EQ(det(b), Rational(30));
  // Permutation sign: antidiagonal identity of order 2 has det -1.
  Matrix<Rational> e{{0, 1}, {1, 0}};
  EXPECT_EQ(det(e), Rational(-1));
}

TEST(Determinant, SingularIsZero) {
  Matrix<double> a{{1, 2}, {2, 4}};
  EXPECT_NEAR(det(a), 0.0, 1e-12);
}

}  // namespace
}  // namespace pfact::factor
