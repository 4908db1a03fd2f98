#pragma once
// Gaussian elimination with the paper's four pivoting strategies.
//
//   GE    — no pivoting (Appendix A): fails on a zero pivot; in NC for
//           strongly nonsingular inputs, but unstable.
//   GEP   — partial pivoting: pivot row maximizes |a_ik|; P-complete even on
//           strongly nonsingular matrices (Theorem 3.4).
//   GEM   — minimal pivoting, swap: pivot row is the LOWEST-indexed row with
//           a nonzero entry in column k, exchanged with row k; P-complete on
//           nonsingular matrices (Theorem 3.1, Corollary 3.2).
//   GEMS  — minimal pivoting, circular shift: the pivot row is brought to
//           position k WITHOUT altering the order of the other rows;
//           P-complete on general matrices, NC^2 on nonsingular ones
//           (Theorem 3.1, Theorem 3.3).
//
// The engine is field-generic and works on rectangular inputs (the gadget
// matrices carry extra "link" columns beyond the square core, cf. Section 2
// of the paper), and supports partial runs ("after s steps of the
// algorithm"), which is the form the block contracts are stated in.

#include <algorithm>
#include <cstddef>
#include <functional>
#include <stdexcept>
#include <string>

#include "factor/executor.h"
#include "factor/guard.h"
#include "factor/pivot_trace.h"
#include "matrix/matrix.h"
#include "matrix/storage.h"
#include "numeric/field.h"
#include "obs/counters.h"
#include "obs/trace.h"

namespace pfact::factor {

enum class PivotStrategy {
  kNone,          // plain GE
  kPartial,       // GEP
  kMinimalSwap,   // GEM
  kMinimalShift,  // GEMS
};

inline const char* pivot_strategy_name(PivotStrategy s) {
  switch (s) {
    case PivotStrategy::kNone: return "GE";
    case PivotStrategy::kPartial: return "GEP";
    case PivotStrategy::kMinimalSwap: return "GEM";
    case PivotStrategy::kMinimalShift: return "GEMS";
  }
  return "?";
}

template <class T>
struct LuResult {
  Matrix<T> l;           // unit lower triangular
  Matrix<T> u;           // upper triangular (or trapezoidal)
  Permutation row_perm;  // row_perm[i] = original index of the row that ends
                         // up at position i; P^T A = LU with
                         // P = row_perm.to_matrix() (i.e. PA stacks original
                         // rows in pivot order).
  PivotTrace trace;
  bool ok = true;        // false iff plain GE failed on a zero pivot
};

namespace detail {

// Selects the pivot position in column k among rows k..rows-1 of `a`.
// Returns rows() when the column is (machine) zero at and below the
// diagonal. Storage-generic: the scan reads through get(), so dense and
// sparse backends run the identical contest over the identical values.
template <MatrixStorage Storage>
std::size_t select_pivot(const Storage& a, std::size_t k,
                         PivotStrategy strategy) {
  const std::size_t n = a.rows();
  // Column-bounded backends prove rows >= scan_end hold exact zeros in
  // column k, so clipping the contest there skips only rows the dense scan
  // would `continue` past: the winner (and every comparison that decides
  // it) is unchanged. Only the pivot-scan-rows counter sees the saving.
  std::size_t scan_end = n;
  if constexpr (ColBoundedStorage<Storage>) {
    scan_end = std::min(n, a.col_scan_bound(k));
  }
  switch (strategy) {
    case PivotStrategy::kNone:
      PFACT_COUNT(kPivotScanRows);
      return is_zero(a.get(k, k)) ? n : k;
    case PivotStrategy::kPartial: {
      if (scan_end > k) {  // the contest scans the column
        PFACT_COUNT_N(kPivotScanRows, scan_end - k);
      }
      std::size_t best = n;
      for (std::size_t i = k; i < scan_end; ++i) {
        if (is_zero(a.get(i, k))) continue;
        if (best == n ||
            field_abs(a.get(i, k)) > field_abs(a.get(best, k)))
          best = i;
      }
      return best;
    }
    case PivotStrategy::kMinimalSwap:
    case PivotStrategy::kMinimalShift: {
      for (std::size_t i = k; i < scan_end; ++i) {
        if (!is_zero(a.get(i, k))) {
          PFACT_COUNT_N(kPivotScanRows, i - k + 1);
          return i;
        }
      }
      if (scan_end > k) PFACT_COUNT_N(kPivotScanRows, scan_end - k);
      return n;
    }
  }
  return n;
}

// Shared accounting for a completed pivot decision.
inline void count_pivot_event(const PivotEvent& e) {
  switch (e.action) {
    case PivotAction::kKeep:
      PFACT_COUNT(kPivotKeeps);
      break;
    case PivotAction::kSwap:
      PFACT_COUNT(kPivotSwaps);
      PFACT_HISTO(kPivotMoveDistance, e.pivot_pos - e.column);
      break;
    case PivotAction::kShift:
      PFACT_COUNT(kPivotShifts);
      PFACT_HISTO(kPivotMoveDistance, e.pivot_pos - e.column);
      break;
    case PivotAction::kSkip:
      PFACT_COUNT(kPivotSkips);
      break;
    case PivotAction::kFail:
      break;
  }
}

// The sequential head of elimination step k, shared by every engine:
// selects the pivot, moves it to row k (a swap, or a circular shift under
// GEMS, mirrored in `perm` when given), counts and records the event.
// kSkip and kFail mean column k has no usable pivot.
template <MatrixStorage Storage>
PivotEvent pivot_step(Storage& a, std::size_t k, PivotStrategy strategy,
                      Permutation* perm, PivotTrace& trace) {
  const std::size_t piv = select_pivot(a, k, strategy);
  PivotEvent e;
  e.column = k;
  if (piv == a.rows()) {
    e.action = strategy == PivotStrategy::kNone ? PivotAction::kFail
                                                : PivotAction::kSkip;
  } else {
    e.pivot_pos = piv;
    e.pivot_row = perm ? (*perm)[piv] : piv;
    if (piv == k) {
      e.action = PivotAction::kKeep;
    } else if (strategy == PivotStrategy::kMinimalShift) {
      e.action = PivotAction::kShift;
      a.cycle_row_up(k, piv);  // multipliers travel with their rows
      if (perm) perm->cycle_up(k, piv);
    } else {
      e.action = PivotAction::kSwap;
      a.swap_rows(k, piv);
      if (perm) perm->swap(k, piv);
    }
  }
  count_pivot_event(e);
  trace.record(e);
  return e;
}

// ge_factor's one body; `exec` runs the rank-1 update's rows (InlineRows
// here, the pool in ge_factor_parallel_rows). The pivot DECISIONS stay on
// the calling thread: Theorems 3.1-3.4 say that chain cannot be compressed.
template <class T, class Exec>
LuResult<T> lu_factor(Matrix<T> a, PivotStrategy strategy, const Exec& exec) {
  const std::size_t n = a.rows();
  const std::size_t m = a.cols();
  const std::size_t kmax = std::min(n, m);
  LuResult<T> res;
  res.row_perm = Permutation(n);
  for (std::size_t k = 0; k < kmax; ++k) {
    PFACT_SPAN("ge.step");
    PFACT_COUNT(kElimSteps);
    const PivotAction act =
        pivot_step(a, k, strategy, &res.row_perm, res.trace).action;
    if (act == PivotAction::kFail) {
      res.ok = false;
      break;
    }
    if (act == PivotAction::kSkip) continue;
    const T* pivot = a.row(k);
    exec(k + 1, n, m - k, [&](std::size_t lo, std::size_t hi) {
      std::size_t updated = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        T* row = a.row(i);
        if (is_zero(row[k])) continue;
        const T f = row[k] / pivot[k];
        row[k] = f;  // packed storage: multiplier kept in the zeroed slot
        axpy_row(row + k + 1, pivot + k + 1, f, m - k - 1);
        ++updated;
      }
      PFACT_COUNT_N(kRowUpdates, updated);
      PFACT_COUNT_N(kRowUpdateElems, updated * (m - k - 1));
    });
  }
  // Unpack L and U.
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

}  // namespace detail

// Per-run checks layered on top of the elimination engine (all off by
// default). `reduction_mode` encodes the structural invariant of the
// paper's A_C runs: every pivot actually used is exactly +/-1, so each
// elimination step is division-free in effect and the decoded booleans stay
// bit-exact. A pivot of any other value means the input was not a
// well-formed reduction matrix (or was corrupted in flight) and the run
// aborts with GuardAbort{kInvariant} instead of producing a plausible,
// silently-wrong decode.
struct EliminationChecks {
  const StepGuard* guard = nullptr;  // step/deadline budget (not owned)
  bool reduction_mode = false;       // enforce exact unit-magnitude pivots
  // Resume support: the matrix is assumed to already hold the state after
  // steps [0, start_step), and elimination begins at column start_step.
  // The returned trace covers only the freshly executed steps.
  std::size_t start_step = 0;
};

// Periodic snapshot hook for checkpoint/resume (robustness/checkpoint.h).
// When `every` > 0, `save` is invoked at the top of each step k with
// k % every == 0 (k > start_step) — BEFORE the step's guard tick, so a run
// killed exactly at a boundary has already persisted that boundary's
// state. The matrix/perm arguments reflect steps [0, k) completed; the
// trace argument holds only the events since start_step (a resuming
// caller prepends its restored prefix). Templated on the storage backend
// (Matrix<T> or sparse::SparseMatrix<T>) like the engine itself.
template <class Storage>
struct CheckpointHook {
  std::size_t every = 0;
  std::function<void(std::size_t next_step, const Storage& a,
                     const Permutation* perm, const PivotTrace& trace)>
      save;
};

// Runs `steps` elimination steps of the given strategy in place on `a`
// (which may have more columns than rows — link columns are transformed by
// the same row operations). `perm` (if non-null) tracks row movement; it
// must have size a.rows(). Multipliers are NOT stored (the subdiagonal is
// zeroed), matching the paper's description of "the algorithm applied to the
// block". Returns the pivot trace.
template <MatrixStorage Storage>
PivotTrace eliminate_steps(Storage& a, PivotStrategy strategy,
                           std::size_t steps, Permutation* perm = nullptr,
                           const EliminationChecks& checks = {},
                           const CheckpointHook<Storage>* ckpt = nullptr) {
  using T = typename Storage::value_type;
  PivotTrace trace;
  const std::size_t n = a.rows();
  const std::size_t limit = std::min({steps, n, a.cols()});
  for (std::size_t k = checks.start_step; k < limit; ++k) {
    // One span per elimination step: the pivot decision chain IS the
    // sequential critical path the P-completeness theorems are about, so
    // traces of GEM/GEMS/GEP runs show a linear chain of "ge.step" spans.
    PFACT_SPAN("ge.step");
    PFACT_COUNT(kElimSteps);
    if (ckpt != nullptr && ckpt->every != 0 && k != checks.start_step &&
        k % ckpt->every == 0) {
      ckpt->save(k, a, perm, trace);
    }
    if (checks.guard != nullptr) checks.guard->tick(k);
    const PivotAction act =
        detail::pivot_step(a, k, strategy, perm, trace).action;
    if (act == PivotAction::kFail) return trace;
    if (act == PivotAction::kSkip) continue;  // A^{(k+1)} = A^{(k)}
    if (checks.reduction_mode && a.get(k, k) != T(1) &&
        a.get(k, k) != T(-1)) {
      throw GuardAbort(GuardAbort::Kind::kInvariant, k,
                       "reduction-mode pivot at column " + std::to_string(k) +
                           " is not an exact +/-1 (got " +
                           scalar_to_string(a.get(k, k)) + ")");
    }
    std::size_t updated = 0;
    std::size_t elems = 0;
    // Same clipping as select_pivot: rows past the column bound are
    // structurally zero in column k, and the dense loop would skip them
    // via the is_zero continue below. On block-banded A_C this turns the
    // below-pivot sweep from O(n) per step into O(band).
    std::size_t update_end = n;
    if constexpr (ColBoundedStorage<Storage>) {
      update_end = std::min(n, a.col_scan_bound(k));
    }
    for (std::size_t i = k + 1; i < update_end; ++i) {
      if (is_zero(a.get(i, k))) continue;
      T f = a.get(i, k) / a.get(k, k);
      if (!field_finite(f)) {
        throw GuardAbort(GuardAbort::Kind::kInvariant, k,
                         "non-finite multiplier at row " + std::to_string(i) +
                             ", column " + std::to_string(k));
      }
      elems += a.row_axpy(i, k, f);
      ++updated;
    }
    PFACT_COUNT_N(kRowUpdates, updated);
    PFACT_COUNT_N(kRowUpdateElems, elems);
  }
  return trace;
}

// Full factorization with stored multipliers: P^T A = L U.
// On square input runs min(n,m) steps; `a` is consumed by value.
template <class T>
LuResult<T> ge_factor(Matrix<T> a, PivotStrategy strategy) {
  return detail::lu_factor(std::move(a), strategy, InlineRows{});
}

// Convenience wrappers matching the paper's algorithm names.
template <class T>
LuResult<T> ge(const Matrix<T>& a) {
  return ge_factor(a, PivotStrategy::kNone);
}
template <class T>
LuResult<T> gep(const Matrix<T>& a) {
  return ge_factor(a, PivotStrategy::kPartial);
}
template <class T>
LuResult<T> gem(const Matrix<T>& a) {
  return ge_factor(a, PivotStrategy::kMinimalSwap);
}
template <class T>
LuResult<T> gems(const Matrix<T>& a) {
  return ge_factor(a, PivotStrategy::kMinimalShift);
}

// Determinant via GEP (sign-corrected by the permutation parity).
template <class T>
T det(const Matrix<T>& a) {
  if (!a.square()) throw std::invalid_argument("det: non-square");
  LuResult<T> f = ge_factor(a, PivotStrategy::kPartial);
  T d = T(1);
  for (std::size_t i = 0; i < a.rows(); ++i) d *= f.u(i, i);
  if (f.row_perm.sign() < 0) d = -d;
  return d;
}

}  // namespace pfact::factor
