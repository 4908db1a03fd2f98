// Equivalence suite for the dense kernels. The row kernels (axpy_row,
// rotate_row_pair), the live-column Givens rotation and the one-body
// inline/pooled engines must reproduce the loops they replaced. Those loops
// are kept below as references: per-element axpy, full-width rotations,
// and the hand-copied row-parallel LU.
//
//   * LU: l, u, row_perm and the pivot trace are byte-identical to the
//     references.
//   * QR: r is byte-identical on and above the diagonal; below it, the
//     live-column kernels leave the annihilated entries at exact zeros that
//     the full-width loop rotated into signed zeros, so only `== 0` holds.
//     q, the rotation and the stage counts match.
//   * Pooled runs are byte-identical to inline runs and bump the same
//     factor counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "factor/gaussian.h"
#include "factor/givens.h"
#include "factor/parallel_factor.h"
#include "numeric/rational.h"
#include "numeric/softfloat.h"
#include "obs/counters.h"
#include "parallel/thread_pool.h"

namespace pfact::factor {
namespace {

using numeric::Float53;
using numeric::Rational;
using obs::Counter;

// --- references: the loops as they were before the row kernels -----------

namespace ref {

template <class T>
LuResult<T> ge_factor(Matrix<T> a, PivotStrategy strategy) {
  const std::size_t n = a.rows();
  const std::size_t m = a.cols();
  const std::size_t kmax = std::min(n, m);
  LuResult<T> res;
  res.row_perm = Permutation(n);
  for (std::size_t k = 0; k < kmax; ++k) {
    std::size_t piv = detail::select_pivot(a, k, strategy);
    PivotEvent e;
    e.column = k;
    if (piv == n) {
      if (strategy == PivotStrategy::kNone) {
        e.action = PivotAction::kFail;
        res.trace.record(e);
        res.ok = false;
        break;
      }
      e.action = PivotAction::kSkip;
      res.trace.record(e);
      continue;
    }
    e.pivot_pos = piv;
    e.pivot_row = res.row_perm[piv];
    if (piv == k) {
      e.action = PivotAction::kKeep;
    } else if (strategy == PivotStrategy::kMinimalShift) {
      e.action = PivotAction::kShift;
      a.cycle_row_up(k, piv);
      res.row_perm.cycle_up(k, piv);
    } else {
      e.action = PivotAction::kSwap;
      a.swap_rows(k, piv);
      res.row_perm.swap(k, piv);
    }
    res.trace.record(e);
    for (std::size_t i = k + 1; i < n; ++i) {
      if (is_zero(a(i, k))) continue;
      T f = a(i, k) / a(k, k);
      a(i, k) = f;
      for (std::size_t j = k + 1; j < m; ++j) {
        a(i, j) -= f * a(k, j);
      }
    }
  }
  res.l = Matrix<T>(n, n);
  res.u = Matrix<T>(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    res.l(i, i) = T(1);
    for (std::size_t j = 0; j < m; ++j) {
      if (j < i && j < kmax) {
        res.l(i, j) = a(i, j);
      } else {
        res.u(i, j) = a(i, j);
      }
    }
  }
  return res;
}

// The former ge_factor_parallel_rows: ge_factor with the update loop handed
// to parallel_for one row per iteration.
template <class T>
LuResult<T> ge_factor_parallel_rows(Matrix<T> a, PivotStrategy strategy,
                                    par::ThreadPool* pool) {
  const std::size_t n = a.rows();
  const std::size_t m = a.cols();
  const std::size_t kmax = std::min(n, m);
  LuResult<T> res;
  res.row_perm = Permutation(n);
  for (std::size_t k = 0; k < kmax; ++k) {
    std::size_t piv = detail::select_pivot(a, k, strategy);
    PivotEvent e;
    e.column = k;
    if (piv == n) {
      if (strategy == PivotStrategy::kNone) {
        e.action = PivotAction::kFail;
        res.trace.record(e);
        res.ok = false;
        break;
      }
      e.action = PivotAction::kSkip;
      res.trace.record(e);
      continue;
    }
    e.pivot_pos = piv;
    e.pivot_row = res.row_perm[piv];
    if (piv == k) {
      e.action = PivotAction::kKeep;
    } else if (strategy == PivotStrategy::kMinimalShift) {
      e.action = PivotAction::kShift;
      a.cycle_row_up(k, piv);
      res.row_perm.cycle_up(k, piv);
    } else {
      e.action = PivotAction::kSwap;
      a.swap_rows(k, piv);
      res.row_perm.swap(k, piv);
    }
    res.trace.record(e);
    par::parallel_for(
        k + 1, n,
        [&](std::size_t i) {
          if (is_zero(a(i, k))) return;
          T f = a(i, k) / a(k, k);
          a(i, k) = f;
          for (std::size_t j = k + 1; j < m; ++j) a(i, j) -= f * a(k, j);
        },
        pool);
  }
  res.l = Matrix<T>(n, n);
  res.u = Matrix<T>(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    res.l(i, i) = T(1);
    for (std::size_t j = 0; j < m; ++j) {
      if (j < i && j < kmax) {
        res.l(i, j) = a(i, j);
      } else {
        res.u(i, j) = a(i, j);
      }
    }
  }
  return res;
}

// Full-width rotation of rows (p, j) annihilating a(j, col).
template <class T>
bool apply_givens(Matrix<T>& a, Matrix<T>* q, std::size_t p, std::size_t j,
                  std::size_t col) {
  if (is_zero(a(j, col))) return false;
  T r = field_sqrt(a(p, col) * a(p, col) + a(j, col) * a(j, col));
  T c = a(p, col) / r;
  T s = a(j, col) / r;
  for (std::size_t t = 0; t < a.cols(); ++t) {
    T top = a(p, t);
    T bot = a(j, t);
    a(p, t) = c * top + s * bot;
    a(j, t) = c * bot - s * top;
  }
  a(j, col) = T(0);
  if (q != nullptr) {
    for (std::size_t t = 0; t < q->rows(); ++t) {
      T qi = (*q)(t, p);
      T qj = (*q)(t, j);
      (*q)(t, p) = c * qi + s * qj;
      (*q)(t, j) = c * qj - s * qi;
    }
  }
  return true;
}

template <class T>
QrResult<T> givens_qr(Matrix<T> a) {
  QrResult<T> res;
  Matrix<T> q = Matrix<T>::identity(a.rows());
  const std::size_t kmax = std::min(a.rows(), a.cols());
  for (std::size_t i = 0; i < kmax; ++i) {
    for (std::size_t j = i + 1; j < a.rows(); ++j) {
      if (apply_givens(a, &q, i, j, i)) ++res.rotations;
    }
  }
  res.stages = res.rotations;
  res.r = std::move(a);
  res.q = std::move(q);
  res.has_q = true;
  return res;
}

template <class T>
QrResult<T> givens_qr_sameh_kuck(Matrix<T> a) {
  QrResult<T> res;
  Matrix<T> q = Matrix<T>::identity(a.rows());
  const std::size_t n = a.rows();
  const std::size_t kmax = std::min(a.rows(), a.cols());
  if (n >= 2 && kmax > 0) {
    const std::size_t max_stage = (n - 2) + 2 * (kmax - 1);
    for (std::size_t stage = 0; stage <= max_stage; ++stage) {
      bool any = false;
      for (std::size_t i = 0; i < kmax; ++i) {
        std::size_t base = n - 1 + 2 * i;
        if (base < stage) continue;
        std::size_t j = base - stage;
        if (j <= i || j >= n) continue;
        if (apply_givens(a, &q, j - 1, j, i)) {
          ++res.rotations;
          any = true;
        }
      }
      if (any) ++res.stages;
    }
  }
  res.r = std::move(a);
  res.q = std::move(q);
  res.has_q = true;
  return res;
}

}  // namespace ref

// --- comparison helpers ----------------------------------------------------

// Bit-level identity: the bytes for double (so NaN payloads and signed
// zeros count), field equality for the exact and soft types.
bool same(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }
bool same(const Rational& a, const Rational& b) { return a == b; }
bool same(const Float53& a, const Float53& b) {
  return a == b && a.signum() == b.signum();
}

template <class T>
bool same_matrix(const Matrix<T>& a, const Matrix<T>& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      if (!same(a(i, j), b(i, j))) return false;
  return true;
}

// R agrees on and above the diagonal; strictly below, `got` holds zeros.
template <class T>
bool same_upper_zero_lower(const Matrix<T>& want, const Matrix<T>& got) {
  if (want.rows() != got.rows() || want.cols() != got.cols()) return false;
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j < got.cols(); ++j) {
      if (j < i ? !(got(i, j) == T(0)) : !same(want(i, j), got(i, j))) {
        return false;
      }
    }
  }
  return true;
}

bool same_trace(const PivotTrace& a, const PivotTrace& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].column != b[i].column || a[i].pivot_pos != b[i].pivot_pos ||
        a[i].pivot_row != b[i].pivot_row || a[i].action != b[i].action) {
      return false;
    }
  }
  return true;
}

template <class T>
void expect_same_lu(const LuResult<T>& want, const LuResult<T>& got,
                    const std::string& what) {
  EXPECT_EQ(want.ok, got.ok) << what;
  EXPECT_TRUE(same_matrix(want.l, got.l)) << what << ": l";
  EXPECT_TRUE(same_matrix(want.u, got.u)) << what << ": u";
  EXPECT_EQ(want.row_perm, got.row_perm) << what;
  EXPECT_TRUE(same_trace(want.trace, got.trace)) << what << ": trace";
}

constexpr Counter kFactorCounters[] = {
    Counter::kElimSteps,       Counter::kRowUpdates,
    Counter::kRowUpdateElems,  Counter::kPivotScanRows,
    Counter::kPivotKeeps,      Counter::kPivotSwaps,
    Counter::kPivotShifts,     Counter::kPivotSkips,
    Counter::kGivensRotations, Counter::kGivensStages,
};

void expect_same_counters(const obs::CounterDelta& want,
                          const obs::CounterDelta& got,
                          const std::string& what) {
  for (Counter c : kFactorCounters) {
    EXPECT_EQ(want[c], got[c]) << what << ": " << obs::counter_name(c);
  }
}

template <class F>
auto counted(obs::CounterDelta& delta, F&& run) {
  obs::ScopedCounters scope;
  auto out = run();
  delta = scope.delta();
  return out;
}

// Executes every step through the pool with a grain of one row, so even
// the smallest inputs split into chunks on several lanes.
struct EveryRowPooled {
  par::ThreadPool* pool;
  template <class Body>
  void operator()(std::size_t begin, std::size_t end, std::size_t,
                  Body&& body) const {
    par::parallel_for_ranges(begin, end, 1, body, pool);
  }
};

// Entries k/4, k in [-8, 8]: exact in every field, so each type factors the
// same matrix, and a few exact zeros exercise the skip paths.
template <class T>
Matrix<T> dyadic(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> dist(-8, 8);
  Matrix<T> a(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) a(i, j) = T(dist(rng) / 4.0);
  return a;
}

struct Shape {
  const char* name;
  std::size_t rows, cols;
};

std::vector<Shape> shapes(std::size_t n) {
  // Wide: the gadget matrices' n x (n+3) link columns; tall: its transpose.
  return {{"square", n, n}, {"wide", n, n + 3}, {"tall", n + 3, n}};
}

constexpr PivotStrategy kStrategies[] = {
    PivotStrategy::kNone, PivotStrategy::kPartial,
    PivotStrategy::kMinimalSwap, PivotStrategy::kMinimalShift};

// Sizes per field: exact and soft arithmetic cost far more per operation,
// so they stop where a run still takes milliseconds.
template <class T>
std::vector<std::size_t> sizes() {
  if constexpr (std::is_same_v<T, double>) {
    return {1, 2, 3, 17, 64, 65, 257};
  } else if constexpr (std::is_same_v<T, Float53>) {
    return {1, 2, 3, 17, 64, 65};
  } else {
    return {1, 2, 3, 17};
  }
}

template <class T>
void check_lu(const Matrix<T>& a, PivotStrategy s, par::ThreadPool& pool,
              const std::string& what) {
  const LuResult<T> want = ref::ge_factor(a, s);
  expect_same_lu(want, ref::ge_factor_parallel_rows(a, s, &pool),
                 what + " old parallel");
  obs::CounterDelta inline_c, pooled_c, every_c;
  const LuResult<T> inl = counted(inline_c, [&] { return ge_factor(a, s); });
  const LuResult<T> pooled = counted(
      pooled_c, [&] { return ge_factor_parallel_rows(a, s, &pool); });
  const LuResult<T> every = counted(every_c, [&] {
    return detail::lu_factor(a, s, EveryRowPooled{&pool});
  });
  expect_same_lu(want, inl, what + " inline");
  expect_same_lu(inl, pooled, what + " pooled");
  expect_same_lu(inl, every, what + " every-row pooled");
  expect_same_counters(inline_c, pooled_c, what + " pooled");
  expect_same_counters(inline_c, every_c, what + " every-row pooled");
}

template <class T>
void expect_same_qr(const QrResult<T>& want, const QrResult<T>& got,
                    const std::string& what) {
  EXPECT_TRUE(same_upper_zero_lower(want.r, got.r)) << what << ": r";
  EXPECT_EQ(want.has_q, got.has_q) << what;
  if (want.has_q && got.has_q) {
    EXPECT_TRUE(same_matrix(want.q, got.q)) << what << ": q";
  }
  EXPECT_EQ(want.rotations, got.rotations) << what;
  EXPECT_EQ(want.stages, got.stages) << what;
}

template <class T>
void check_qr(const Matrix<T>& a, par::ThreadPool& pool,
              const std::string& what) {
  expect_same_qr(ref::givens_qr(a), givens_qr(a, true), what + " natural");
  const QrResult<T> want = ref::givens_qr_sameh_kuck(a);
  expect_same_qr(want, givens_qr_sameh_kuck(a, true), what + " sameh-kuck");

  obs::CounterDelta inline_c, pooled_c, every_c;
  const QrResult<T> inl =
      counted(inline_c, [&] { return givens_qr_sameh_kuck(a); });
  const QrResult<T> pooled = counted(
      pooled_c, [&] { return givens_qr_sameh_kuck_parallel(a, &pool); });
  const QrResult<T> every = counted(every_c, [&] {
    return detail::sameh_kuck(a, false, EveryRowPooled{&pool});
  });
  // The pooled engine never accumulates q; compare R and the counts.
  QrResult<T> want_r = want;
  want_r.has_q = false;
  expect_same_qr(want_r, inl, what + " sameh-kuck inline");
  for (const auto* got : {&pooled, &every}) {
    EXPECT_TRUE(same_matrix(inl.r, got->r)) << what << " pooled r";
    EXPECT_EQ(inl.rotations, got->rotations) << what;
    EXPECT_EQ(inl.stages, got->stages) << what;
  }
  expect_same_counters(inline_c, pooled_c, what + " pooled");
  expect_same_counters(inline_c, every_c, what + " every-row pooled");
}

template <class T>
class LuEquivalence : public ::testing::Test {};
using LuFields = ::testing::Types<double, Float53, Rational>;
TYPED_TEST_SUITE(LuEquivalence, LuFields);

TYPED_TEST(LuEquivalence, MatchesTheReferenceLoops) {
  using T = TypeParam;
  par::ThreadPool pool(4);
  for (std::size_t n : sizes<T>()) {
    for (const Shape& sh : shapes(n)) {
      const Matrix<T> a = dyadic<T>(sh.rows, sh.cols, 1000 * n + sh.cols);
      for (PivotStrategy s : kStrategies) {
        check_lu(a, s, pool,
                 std::string(pivot_strategy_name(s)) + " n=" +
                     std::to_string(n) + " " + sh.name);
      }
    }
  }
}

TYPED_TEST(LuEquivalence, SkipAndFailPathsMatch) {
  using T = TypeParam;
  par::ThreadPool pool(2);
  // Column 0 all zero: a kSkip step under pivoting, a kFail under kNone.
  Matrix<T> zero_col = dyadic<T>(17, 20, 7);
  for (std::size_t i = 0; i < zero_col.rows(); ++i) zero_col(i, 0) = T(0);
  for (PivotStrategy s : kStrategies) {
    check_lu(zero_col, s, pool,
             std::string("zero column ") + pivot_strategy_name(s));
  }
  const Matrix<T> swap{{T(0), T(1)}, {T(1), T(0)}};
  check_lu(swap, PivotStrategy::kNone, pool, "{{0,1},{1,0}} GE");
  EXPECT_FALSE(ge_factor(swap, PivotStrategy::kNone).ok);
}

// Givens needs square roots, so QR runs on the floating fields only.
template <class T>
class QrEquivalence : public ::testing::Test {};
using QrFields = ::testing::Types<double, Float53>;
TYPED_TEST_SUITE(QrEquivalence, QrFields);

TYPED_TEST(QrEquivalence, MatchesTheReferenceLoops) {
  using T = TypeParam;
  par::ThreadPool pool(4);
  for (std::size_t n : sizes<T>()) {
    for (const Shape& sh : shapes(n)) {
      check_qr(dyadic<T>(sh.rows, sh.cols, 2000 * n + sh.cols), pool,
               "n=" + std::to_string(n) + " " + sh.name);
    }
  }
}

}  // namespace
}  // namespace pfact::factor
