#pragma once
// The AVX-512F row kernels behind axpy_row and rotate_row_pair for double,
// declared here (not in matrix.h) so the kernel tests can call each one
// directly. Library code calls axpy_row and rotate_row_pair, which pick a
// kernel once from CPUID.
//
// Each runs eight doubles per instruction, then finishes the last len % 8
// elements one at a time. Every element gets the scalar expression of the
// portable loop (detail::axpy_row_portable and
// detail::rotate_row_pair_portable in matrix.h): a multiply, then a
// separate add or subtract. So every result that is not a NaN is
// bit-identical to the portable loop's. A NaN may carry another payload:
// an x86 add or multiply of two NaNs keeps its first operand's payload,
// and the operand order of the portable loop is the compiler's choice.
// Call them only when row_kernels_avx512_supported() is true.

#include <cstddef>

#if defined(__x86_64__) && defined(__GNUC__)  // GCC and Clang
#define PFACT_ROW_KERNELS_HAVE_AVX512 1
#else
#define PFACT_ROW_KERNELS_HAVE_AVX512 0
#endif

namespace pfact::detail {

#if PFACT_ROW_KERNELS_HAVE_AVX512
// True when this CPU and its OS support AVX-512F (read from CPUID).
bool row_kernels_avx512_supported();
void axpy_row_avx512(double* __restrict dst, const double* __restrict src,
                     double f, std::size_t len);
void rotate_row_pair_avx512(double* __restrict x, double* __restrict y,
                            double c, double s, std::size_t len);
#endif

}  // namespace pfact::detail
