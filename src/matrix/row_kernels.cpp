#include "matrix/row_kernels.h"

#include "matrix/matrix.h"

#if PFACT_ROW_KERNELS_HAVE_AVX512
#include <immintrin.h>
#endif

namespace pfact::detail {

#if PFACT_ROW_KERNELS_HAVE_AVX512
// NOLINTBEGIN(portability-simd-intrinsics): GCC 12 packs the portable
// loops two wide even where AVX-512F is available, and those loops are the
// portable path beside these kernels.

bool row_kernels_avx512_supported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f");
}

__attribute__((target("avx512f"))) void axpy_row_avx512(
    double* __restrict dst, const double* __restrict src, double f,
    std::size_t len) {
  const __m512d vf = _mm512_set1_pd(f);
  std::size_t t = 0;
  for (; t + 8 <= len; t += 8) {
    const __m512d prod = _mm512_mul_pd(vf, _mm512_loadu_pd(src + t));
    _mm512_storeu_pd(dst + t, _mm512_sub_pd(_mm512_loadu_pd(dst + t), prod));
  }
  for (; t < len; ++t) dst[t] -= f * src[t];
}

__attribute__((target("avx512f"))) void rotate_row_pair_avx512(
    double* __restrict x, double* __restrict y, double c, double s,
    std::size_t len) {
  const __m512d vc = _mm512_set1_pd(c);
  const __m512d vs = _mm512_set1_pd(s);
  std::size_t t = 0;
  for (; t + 8 <= len; t += 8) {
    const __m512d x0 = _mm512_loadu_pd(x + t);
    const __m512d y0 = _mm512_loadu_pd(y + t);
    _mm512_storeu_pd(x + t, _mm512_add_pd(_mm512_mul_pd(vc, x0),
                                          _mm512_mul_pd(vs, y0)));
    _mm512_storeu_pd(y + t, _mm512_sub_pd(_mm512_mul_pd(vc, y0),
                                          _mm512_mul_pd(vs, x0)));
  }
  for (; t < len; ++t) {
    const double x0 = x[t], y0 = y[t];
    x[t] = c * x0 + s * y0;
    y[t] = c * y0 - s * x0;
  }
}
// NOLINTEND(portability-simd-intrinsics)
#endif

namespace {

// The portable loops with the kernels' by-value signature.
void axpy_row_generic(double* __restrict dst, const double* __restrict src,
                      double f, std::size_t len) {
  axpy_row_portable(dst, src, f, len);
}

void rotate_row_pair_generic(double* __restrict x, double* __restrict y,
                             double c, double s, std::size_t len) {
  rotate_row_pair_portable(x, y, c, s, len);
}

struct RowKernels {
  void (*axpy)(double*, const double*, double, std::size_t);
  void (*rotate)(double*, double*, double, double, std::size_t);
};

RowKernels select_row_kernels() {
#if PFACT_ROW_KERNELS_HAVE_AVX512
  if (row_kernels_avx512_supported()) {
    return {axpy_row_avx512, rotate_row_pair_avx512};
  }
#endif
  return {axpy_row_generic, rotate_row_pair_generic};
}

// The dense engines call a kernel once per row, so the pair is chosen
// once, from CPUID, and each call after that is one indirect call.
const RowKernels& row_kernels() {
  static const RowKernels kernels = select_row_kernels();
  return kernels;
}

}  // namespace

void axpy_row_double(double* __restrict dst, const double* __restrict src,
                     double f, std::size_t len) {
  row_kernels().axpy(dst, src, f, len);
}

void rotate_row_pair_double(double* __restrict x, double* __restrict y,
                            double c, double s, std::size_t len) {
  row_kernels().rotate(x, y, c, s, len);
}

}  // namespace pfact::detail
