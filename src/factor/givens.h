#pragma once
// QR factorization via Givens rotations (GQR) — the subject of Theorem 4.1.
//
// GQR annihilates the subdiagonal "in the natural order (left to right and
// top to bottom)"; each rotation G zeroes one entry (j,i) using rows i and j:
//
//     r = sqrt(a_ii^2 + a_ji^2),  c = a_ii / r,  s = a_ji / r,
//     row_i <-  c*row_i + s*row_j
//     row_j <- -s*row_i + c*row_j        (computed from the OLD rows)
//
// Note: the rotation printed in the paper's Appendix A has its signs
// garbled (as printed it does not annihilate the (j,i) entry); the formulas
// above are the standard ones and do satisfy "the entry j,i of G.A is zero".
//
// Also provided: the Sameh–Kuck parallel annihilation ordering [16], which
// retires the same n(n-1)/2 rotations in O(n) stages of pairwise-disjoint
// row pairs — the classic "stable parallel linear system solver" the paper's
// introduction credits as the best practical parallel option.

#include <atomic>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "factor/executor.h"
#include "factor/guard.h"
#include "matrix/matrix.h"
#include "matrix/storage.h"
#include "numeric/field.h"
#include "obs/counters.h"
#include "obs/trace.h"

namespace pfact::factor {

template <class T>
struct QrResult {
  Matrix<T> r;            // upper triangular, same shape as input
  Matrix<T> q;            // orthogonal accumulate with A = Q R (optional)
  bool has_q = false;
  std::size_t rotations = 0;  // rotations actually applied
  std::size_t stages = 0;     // parallel stages (1 per rotation if natural)
};

namespace detail {

template <class T>
struct Rotation {
  T c, s;
};

// The rotation annihilating `bot` against `top`: r = sqrt(top^2 + bot^2),
// c = top / r, s = bot / r. Each arithmetic operation is one machine
// operation in the field T — this sequencing is what the Section 4 floating
// point analysis is about, so keep it explicit. Aborts on a degenerate r,
// naming entry (j, col) and reporting row p as the position.
template <class T>
Rotation<T> givens_rotation(const T& top, const T& bot, std::size_t p,
                            std::size_t j, std::size_t col) {
  const T r = field_sqrt(top * top + bot * bot);
  if (!field_finite(r) || is_zero(r)) {
    throw GuardAbort(GuardAbort::Kind::kInvariant, p,
                     "degenerate Givens rotation at (" + std::to_string(j) +
                         ", " + std::to_string(col) + "): |r| is " +
                         (is_zero(r) ? "zero" : "non-finite"));
  }
  return {top / r, bot / r};
}

// Rotates rows (p, j) to annihilate a(j, col) against a(p, col), where p is
// the diagonal row col (natural order) or the upper neighbour j-1
// (Sameh–Kuck). Returns false, touching nothing, if a(j, col) is already
// zero. Only the live columns [col, cols) are rotated: both annihilation
// orders retire every entry left of col in both rows first, so those are
// exact zeros that the rotation would only map to signed zeros. Callers
// count the rotations they apply (kGivensRotations).
template <class T>
bool apply_givens(Matrix<T>& a, Matrix<T>* q, std::size_t p, std::size_t j,
                  std::size_t col) {
  if (is_zero(a(j, col))) return false;
  const auto [c, s] = givens_rotation(a(p, col), a(j, col), p, j, col);
  rotate_row_pair(a.row(p) + col, a.row(j) + col, c, s, a.cols() - col);
  a(j, col) = T(0);  // exact by construction; avoids residual roundoff dust
  if (q != nullptr) {
    // Accumulate Q = G_1^T G_2^T ... : apply the inverse rotation to columns.
    for (std::size_t t = 0; t < q->rows(); ++t) {
      T qi = (*q)(t, p);
      T qj = (*q)(t, j);
      (*q)(t, p) = c * qi + s * qj;
      (*q)(t, j) = c * qj - s * qi;
    }
  }
  return true;
}

// Natural order: the rotation eliminating a(j, i) against pivot row i.
template <class T>
bool apply_givens(Matrix<T>& a, Matrix<T>* q, std::size_t i, std::size_t j) {
  return apply_givens(a, q, i, j, i);
}

// Storage-generic natural-order rotation: the same c/s, then the backend's
// full-width rotate_rows, so dense and sparse reduction runs (and their
// checkpoints) agree bit for bit.
template <RotatableStorage Storage>
bool apply_givens_rows(Storage& a, std::size_t i, std::size_t j) {
  using T = typename Storage::value_type;
  if (is_zero(a.get(j, i))) return false;
  const auto [c, s] = givens_rotation(a.get(i, i), a.get(j, i), i, j, i);
  PFACT_COUNT(kGivensRotations);
  a.rotate_rows(i, j, c, s);
  a.set(j, i, T(0));  // exact by construction; avoids residual roundoff dust
  return true;
}

// The Sameh–Kuck body shared by givens_qr_sameh_kuck and its parallel
// twin; `exec` runs each stage's rotations (see factor/executor.h).
template <class T, class Exec>
QrResult<T> sameh_kuck(Matrix<T> a, bool accumulate_q, const Exec& exec) {
  QrResult<T> res;
  Matrix<T> q;
  if (accumulate_q) q = Matrix<T>::identity(a.rows());
  const std::size_t n = a.rows();
  const std::size_t kmax = std::min(a.rows(), a.cols());
  const std::size_t stages = n < 2 || kmax == 0 ? 0 : n - 1 + 2 * (kmax - 1);
  Matrix<T>* const qp = accumulate_q ? &q : nullptr;
  std::vector<std::size_t> members;  // column i of each rotation in a stage
  for (std::size_t stage = 0; stage < stages; ++stage) {
    PFACT_SPAN("givens.stage");
    // Members of this stage: i such that j = n-1-stage+2i is a valid row.
    members.clear();
    for (std::size_t i = 0; i < kmax; ++i) {
      const std::size_t base = n - 1 + 2 * i;
      if (base >= stage && base - stage > i && base - stage < n) {
        members.push_back(i);
      }
    }
    if (members.empty()) continue;
    std::atomic<std::size_t> applied{0};
    exec(0, members.size(), a.cols() - members[members.size() / 2],
         [&](std::size_t lo, std::size_t hi) {
           std::size_t done = 0;
           for (std::size_t m = lo; m < hi; ++m) {
             const std::size_t i = members[m];
             const std::size_t j = n - 1 + 2 * i - stage;
             // Annihilate (j,i) against its upper neighbour row j-1 (whose
             // own column-i entry is still live unless j-1 == i, where it
             // is the diagonal). Rotations of one stage touch pairwise
             // disjoint row pairs.
             if (apply_givens(a, qp, j - 1, j, i)) ++done;
           }
           PFACT_COUNT_N(kGivensRotations, done);
           applied.fetch_add(done, std::memory_order_relaxed);
         });
    if (const std::size_t stage_rotations = applied.load(); stage_rotations) {
      res.rotations += stage_rotations;
      ++res.stages;
      PFACT_COUNT(kGivensStages);
    }
  }
  res.r = std::move(a);
  if (accumulate_q) {
    res.q = std::move(q);
    res.has_q = true;
  }
  return res;
}

}  // namespace detail

// Periodic snapshot hook for checkpoint/resume, the rotation-position
// analogue of factor::CheckpointHook: `save` fires at each position p with
// p % every == 0 (p > start_pos), before the position's guard tick, with
// the matrix reflecting rotations [0, p) applied. Templated on the storage
// backend like the engine.
template <class Storage>
struct GivensCheckpointHook {
  std::size_t every = 0;
  std::function<void(std::size_t next_pos, const Storage& a)> save;
};

// Runs the first `steps` rotation positions of natural-order GQR in place
// (skipped zero entries still count as a step position, matching "after k
// steps of GQR" in the block contracts, where blocks are dense below the
// diagonal wherever it matters). `start_pos` resumes mid-run: the matrix
// is assumed to already hold the state after positions [0, start_pos).
template <RotatableStorage Storage>
std::size_t givens_steps(Storage& a, std::size_t steps,
                         const StepGuard* guard = nullptr,
                         std::size_t start_pos = 0,
                         const GivensCheckpointHook<Storage>* ckpt = nullptr) {
  std::size_t pos = 0;
  std::size_t applied = 0;
  const std::size_t kmax = std::min(a.rows(), a.cols());
  for (std::size_t i = 0; i < kmax; ++i) {
    for (std::size_t j = i + 1; j < a.rows(); ++j) {
      if (pos == steps) return applied;
      if (pos < start_pos) {  // already retired before the checkpoint
        ++pos;
        continue;
      }
      if (ckpt != nullptr && ckpt->every != 0 && pos != start_pos &&
          pos % ckpt->every == 0) {
        ckpt->save(pos, a);
      }
      if (guard != nullptr) guard->tick(pos);
      if (detail::apply_givens_rows(a, i, j)) ++applied;
      ++pos;
    }
  }
  return applied;
}

// Full natural-order GQR.
template <class T>
QrResult<T> givens_qr(Matrix<T> a, bool accumulate_q = false) {
  QrResult<T> res;
  Matrix<T> q;
  if (accumulate_q) q = Matrix<T>::identity(a.rows());
  const std::size_t kmax = std::min(a.rows(), a.cols());
  for (std::size_t i = 0; i < kmax; ++i) {
    std::size_t done = 0;
    for (std::size_t j = i + 1; j < a.rows(); ++j) {
      if (detail::apply_givens<T>(a, accumulate_q ? &q : nullptr, i, j)) {
        ++done;
      }
    }
    PFACT_COUNT_N(kGivensRotations, done);
    res.rotations += done;
  }
  res.stages = res.rotations;
  res.r = std::move(a);
  if (accumulate_q) {
    res.q = std::move(q);
    res.has_q = true;
  }
  return res;
}

// Sameh–Kuck ordering: entry (j,i) (0-based, j > i) is annihilated at stage
// rows()-1-j + 2i (0-based stages), always rotating adjacent rows (j-1, j).
// All rotations within a stage touch pairwise disjoint row pairs, so a PRAM
// (or a thread pool) can apply them simultaneously; the stage count is
// rows() + ... = O(n) instead of the Theta(n^2) sequential rotation count.
template <class T>
QrResult<T> givens_qr_sameh_kuck(Matrix<T> a, bool accumulate_q = false) {
  return detail::sameh_kuck(std::move(a), accumulate_q, InlineRows{});
}

}  // namespace pfact::factor
