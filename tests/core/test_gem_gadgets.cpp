// Contract tests for the GEM/GEMS functional blocks (paper Figures 2-3,
// re-derived — see DESIGN.md). Every block is checked in EXACT rational
// arithmetic, for every boolean input combination, under both GEM and GEMS:
//   * the carrier rows end as (0,...,0, value, 0,...,0) on their diagonals,
//   * carrier rows are never displaced by pivoting,
//   * no leftover row carries junk below the diagonal in foreign columns.
#include "core/gem_gadgets.h"

#include <gtest/gtest.h>

#include <ostream>

#include "factor/gaussian.h"
#include "numeric/rational.h"

namespace pfact::core {
namespace {

using numeric::Rational;
using factor::eliminate_steps;
using factor::PivotStrategy;

struct StrategyCase {
  PivotStrategy strategy;
  const char* name;
};

// Prints a case by its name. Without this gtest dumps the struct's raw
// bytes, which include uninitialised padding and the address of `name`, so
// the test names that gtest_discover_tests records change on every build.
void PrintTo(const StrategyCase& c, std::ostream* os) { *os << c.name; }

class GadgetTest : public ::testing::TestWithParam<StrategyCase> {
 protected:
  // Eliminates all columns, asserting carriers stay in place.
  Matrix<Rational> run(Matrix<Rational> m,
                       const std::vector<std::size_t>& carriers) {
    Permutation perm(m.rows());
    eliminate_steps(m, GetParam().strategy, m.rows(), &perm);
    for (std::size_t c : carriers) {
      EXPECT_EQ(perm[c], c) << "carrier row displaced";
    }
    return m;
  }

  // Row `r` of the final state must be exactly value * e_r.
  static void expect_clean_value_row(const Matrix<Rational>& m,
                                     std::size_t r, int value) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      Rational expect = (j == r) ? Rational(value) : Rational(0);
      EXPECT_EQ(m(r, j), expect) << "row " << r << " col " << j;
    }
  }

  // No row may hold a nonzero strictly below the diagonal.
  static void expect_no_subdiagonal_junk(const Matrix<Rational>& m) {
    for (std::size_t i = 0; i < m.rows(); ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        EXPECT_TRUE(m(i, j).is_zero()) << "junk at (" << i << "," << j << ")";
      }
    }
  }
};

TEST_P(GadgetTest, PassCopiesValue) {
  for (int a : {0, 1}) {
    Matrix<Rational> m = pass_block_template();
    m(0, 0) = a;
    Matrix<Rational> r = run(m, {3});
    expect_clean_value_row(r, 3, a);
    expect_no_subdiagonal_junk(r);
  }
}

TEST_P(GadgetTest, DupDuplicatesValue) {
  for (int a : {0, 1}) {
    Matrix<Rational> m = dup_block_template();
    m(0, 0) = a;
    Matrix<Rational> r = run(m, {5, 6});
    expect_clean_value_row(r, 5, a);
    expect_clean_value_row(r, 6, a);
    expect_no_subdiagonal_junk(r);
  }
}

TEST_P(GadgetTest, NandComputesNand) {
  for (int a : {0, 1}) {
    for (int b : {0, 1}) {
      Matrix<Rational> m = nand_block_template();
      m(0, 0) = a;
      m(1, 1) = b;
      Matrix<Rational> r = run(m, {4});
      expect_clean_value_row(r, 4, 1 - a * b);
      expect_no_subdiagonal_junk(r);
    }
  }
}

// Spacer immunity: rows belonging to other blocks (support only in their own
// columns) must be untouched and untouching. We splice a foreign diagonal
// row between the aux region and the carrier.
TEST_P(GadgetTest, NandIgnoresForeignRows) {
  for (int a : {0, 1}) {
    for (int b : {0, 1}) {
      // Local layout: 0,1 in; 2,3 aux; 4 spacer; 5 carrier.
      Matrix<Rational> m(6, 6);
      m(0, 0) = a;
      m(1, 1) = b;
      for (const auto& e : kNandEntries) {
        std::size_t r = e.row >= 4 ? e.row + 1 : e.row;
        std::size_t c = e.col >= 4 ? e.col + 1 : e.col;
        m(r, c) += e.value;
      }
      m(4, 4) = 7;  // the foreign row
      Permutation perm(6);
      eliminate_steps(m, GetParam().strategy, 6, &perm);
      EXPECT_EQ(perm[4], 4u);
      EXPECT_EQ(m(4, 4), Rational(7));
      expect_clean_value_row(m, 5, 1 - a * b);
    }
  }
}

// The PASS aux-column pivot mechanism: when the value is 1 the compute row
// is consumed by the in-column pivot; when 0 it becomes that pivot itself.
TEST_P(GadgetTest, PassPivotSelectionMatchesDesign) {
  Matrix<Rational> m1 = pass_block_template();
  m1(0, 0) = 1;
  Permutation p1(4);
  auto t1 = eliminate_steps(m1, GetParam().strategy, 4, &p1);
  EXPECT_EQ(t1.events()[0].action, factor::PivotAction::kKeep);

  Matrix<Rational> m0 = pass_block_template();
  m0(0, 0) = 0;
  Permutation p0(4);
  auto t0 = eliminate_steps(m0, GetParam().strategy, 4, &p0);
  EXPECT_NE(t0.events()[0].action, factor::PivotAction::kKeep);
  EXPECT_EQ(t0.events()[0].pivot_row, 1u);  // the compute row takes over
}

INSTANTIATE_TEST_SUITE_P(
    Both, GadgetTest,
    ::testing::Values(
        StrategyCase{PivotStrategy::kMinimalSwap, "GEM"},
        StrategyCase{PivotStrategy::kMinimalShift, "GEMS"}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace pfact::core
