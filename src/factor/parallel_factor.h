#pragma once
// Thread-pool execution of the parallel algorithms' independent work:
//
//  * Sameh-Kuck GQR: rotations within a stage touch pairwise disjoint row
//    pairs, so a stage is a parallel_for (the paper's [16]); the stage
//    sequence (2n-3 of them) is the critical path.
//  * Within-stage parallel GE: the rank-1 update of each elimination step
//    parallelizes over rows; the *steps* remain sequential — this is the
//    best the P-completeness results allow for GEP/GEM/GEMS, and the
//    contrast between "parallelize the step" and "parallelize the chain"
//    is exactly the paper's point.
//
// Each parallel engine is its sequential twin's body run with PooledRows
// instead of InlineRows (factor/executor.h): the same operations in the
// same order within each row, so results are bit-identical, which the
// tests assert.

#include <algorithm>
#include <cstddef>
#include <utility>

#include "factor/gaussian.h"
#include "factor/givens.h"
#include "parallel/thread_pool.h"

namespace pfact::factor {

// Runs a step's pieces through par::parallel_for_ranges. A piece is worth
// handing to another lane only if it holds at least kMinChunkWork scalar
// element operations: below that an empty sweep's few microseconds of
// dispatch cost more than the piece, and the step runs inline.
struct PooledRows {
  static constexpr std::size_t kMinChunkWork = 8192;

  par::ThreadPool* pool = nullptr;

  template <class Body>
  void operator()(std::size_t begin, std::size_t end, std::size_t work,
                  Body&& body) const {
    const std::size_t grain =
        (kMinChunkWork + std::max<std::size_t>(1, work) - 1) /
        std::max<std::size_t>(1, work);
    par::parallel_for_ranges(begin, end, grain, body, pool);
  }
};

// Sameh-Kuck GQR with each stage's rotations applied concurrently.
template <class T>
QrResult<T> givens_qr_sameh_kuck_parallel(Matrix<T> a,
                                          par::ThreadPool* pool = nullptr) {
  return detail::sameh_kuck(std::move(a), false, PooledRows{pool});
}

// GE with the given pivoting strategy, parallelizing each step's rank-1
// update over rows.
template <class T>
LuResult<T> ge_factor_parallel_rows(Matrix<T> a, PivotStrategy strategy,
                                    par::ThreadPool* pool = nullptr) {
  return detail::lu_factor(std::move(a), strategy, PooledRows{pool});
}

}  // namespace pfact::factor
