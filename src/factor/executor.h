#pragma once
// How a dense factorization runs the independent rows of one step.
//
// ge_factor and givens_qr_sameh_kuck each have one body, written against an
// executor: exec(begin, end, work, body) runs body(lo, hi) over contiguous
// pieces of [begin, end) whose iterations cost about `work` scalar element
// operations each. InlineRows is the sequential executor; PooledRows
// (factor/parallel_factor.h) is the thread-pool one. The sequential and
// parallel engines therefore share every field operation and differ only in
// which thread runs each piece.

#include <cstddef>

namespace pfact::factor {

struct InlineRows {
  template <class Body>
  void operator()(std::size_t begin, std::size_t end, std::size_t /*work*/,
                  Body&& body) const {
    body(begin, end);
  }
};

}  // namespace pfact::factor
