#pragma once
// Dense row-major matrix over an arbitrary field, plus permutations.
//
// This is the shared substrate of every factorization and reduction in the
// repository.  It is deliberately simple: the paper's constructions need
// exactness and structural transparency, not BLAS-level tuning.

#include <cstddef>
#include <initializer_list>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "numeric/field.h"

namespace pfact {

// The two dense row kernels every factorization shares: the elimination
// update and the Givens rotation. Each element gets exactly the scalar
// expression written in the portable loops below: a separate multiply,
// then an add or subtract, never fused (pfact compiles with
// -ffp-contract=off). So every path is bit-identical to a plain loop over
// any field, up to the payload of a NaN. The rows must not overlap, and
// the scalars must not live in them.

namespace detail {

// The portable loops: __restrict row pointers, unrolled two wide, which
// GCC's -O2 vectorizer turns into packed double arithmetic. They are the
// only path for every field but double, the double path off x86-64 and on
// CPUs without AVX-512F, and the reference the AVX-512F kernels
// (matrix/row_kernels.h) are tested against.

template <class T>
void axpy_row_portable(T* __restrict dst, const T* __restrict src,
                       const T& f, std::size_t len) {
  std::size_t t = 0;
  for (; t + 2 <= len; t += 2) {
    dst[t] -= f * src[t];
    dst[t + 1] -= f * src[t + 1];
  }
  if (t < len) dst[t] -= f * src[t];
}

template <class T>
void rotate_row_pair_portable(T* __restrict x, T* __restrict y, const T& c,
                              const T& s, std::size_t len) {
  std::size_t t = 0;
  for (; t + 2 <= len; t += 2) {
    const T x0 = x[t], x1 = x[t + 1];
    const T y0 = y[t], y1 = y[t + 1];
    x[t] = c * x0 + s * y0;
    x[t + 1] = c * x1 + s * y1;
    y[t] = c * y0 - s * x0;
    y[t + 1] = c * y1 - s * x1;
  }
  if (t < len) {
    const T x0 = x[t], y0 = y[t];
    x[t] = c * x0 + s * y0;
    y[t] = c * y0 - s * x0;
  }
}

// The double rows: an eight-wide AVX-512F kernel where CPUID reports
// AVX-512F, else the portable loop; chosen once (matrix/row_kernels.cpp).
void axpy_row_double(double* __restrict dst, const double* __restrict src,
                     double f, std::size_t len);
void rotate_row_pair_double(double* __restrict x, double* __restrict y,
                            double c, double s, std::size_t len);

}  // namespace detail

// dst[t] -= f * src[t] for t in [0, len).
template <class T>
void axpy_row(T* __restrict dst, const T* __restrict src, const T& f,
              std::size_t len) {
  if constexpr (std::is_same_v<T, double>) {
    detail::axpy_row_double(dst, src, f, len);
  } else {
    detail::axpy_row_portable(dst, src, f, len);
  }
}

// (x[t], y[t]) <- (c x[t] + s y[t], c y[t] - s x[t]) for t in [0, len),
// each pair computed from the old values.
template <class T>
void rotate_row_pair(T* __restrict x, T* __restrict y, const T& c,
                     const T& s, std::size_t len) {
  if constexpr (std::is_same_v<T, double>) {
    detail::rotate_row_pair_double(x, y, c, s, len);
  } else {
    detail::rotate_row_pair_portable(x, y, c, s, len);
  }
}

template <class T>
class Matrix {
 public:
  using value_type = T;

  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, T(0)) {}
  Matrix(std::size_t rows, std::size_t cols, const T& fill)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  // Row-by-row brace initialization; all rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<T>> rows) {
    rows_ = rows.size();
    cols_ = rows_ == 0 ? 0 : rows.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto& r : rows) {
      if (r.size() != cols_)
        throw std::invalid_argument("Matrix: ragged initializer");
      for (const auto& v : r) data_.push_back(v);
    }
  }

  static Matrix identity(std::size_t n) {
    Matrix out(n, n);
    for (std::size_t i = 0; i < n; ++i) out(i, i) = T(1);
    return out;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool square() const { return rows_ == cols_; }
  bool empty() const { return data_.empty(); }

  T& operator()(std::size_t i, std::size_t j) {
    return data_[i * cols_ + j];
  }
  const T& operator()(std::size_t i, std::size_t j) const {
    return data_[i * cols_ + j];
  }

  // Start of row i (valid for i < rows(); the row holds cols() entries).
  T* row(std::size_t i) { return data_.data() + i * cols_; }
  const T* row(std::size_t i) const { return data_.data() + i * cols_; }

  T& at(std::size_t i, std::size_t j) {
    check(i, j);
    return (*this)(i, j);
  }
  const T& at(std::size_t i, std::size_t j) const {
    check(i, j);
    return (*this)(i, j);
  }

  // Storage-concept accessors (matrix/storage.h): the elimination engines
  // are generic over dense and sparse backends and read/write exclusively
  // through these.
  const T& get(std::size_t i, std::size_t j) const { return (*this)(i, j); }
  void set(std::size_t i, std::size_t j, const T& v) { (*this)(i, j) = v; }

  // Elimination row update: a(i, k) = 0; a(i, j) -= f * a(k, j) for j > k,
  // through axpy_row — sparse backends must reproduce this field-operation
  // order bit for bit. Returns the scalar multiply-subtract count for the
  // row-update-elems counter.
  std::size_t row_axpy(std::size_t i, std::size_t k, const T& f) {
    (*this)(i, k) = T(0);
    axpy_row(row(i) + k + 1, row(k) + k + 1, f, cols_ - k - 1);
    return cols_ - k - 1;
  }

  // Givens rotation of rows i != j across every column. The reduction
  // engines rotate full width so checkpoints and the sparse backend see the
  // same values; the dense QR engines rotate only their live columns.
  void rotate_rows(std::size_t i, std::size_t j, const T& c, const T& s) {
    rotate_row_pair(row(i), row(j), c, s, cols_);
  }

  void swap_rows(std::size_t a, std::size_t b) {
    if (a == b) return;
    for (std::size_t j = 0; j < cols_; ++j)
      std::swap((*this)(a, j), (*this)(b, j));
  }

  // Moves row `from` to position `to` (to <= from), shifting the rows in
  // between down by one — the GEMS "circular shift" primitive.
  void cycle_row_up(std::size_t to, std::size_t from) {
    for (std::size_t r = from; r > to; --r) swap_rows(r, r - 1);
  }

  Matrix transposed() const {
    Matrix out(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
      for (std::size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
    return out;
  }

  Matrix submatrix(std::size_t r0, std::size_t c0, std::size_t nr,
                   std::size_t nc) const {
    Matrix out(nr, nc);
    for (std::size_t i = 0; i < nr; ++i)
      for (std::size_t j = 0; j < nc; ++j)
        out(i, j) = (*this)(r0 + i, c0 + j);
    return out;
  }

  // Leading principal submatrix of order k.
  Matrix leading_minor(std::size_t k) const { return submatrix(0, 0, k, k); }

  friend Matrix operator*(const Matrix& a, const Matrix& b) {
    if (a.cols_ != b.rows_)
      throw std::invalid_argument("Matrix: dimension mismatch in product");
    Matrix out(a.rows_, b.cols_);
    for (std::size_t i = 0; i < a.rows_; ++i) {
      for (std::size_t k = 0; k < a.cols_; ++k) {
        const T& aik = a(i, k);
        if (is_zero(aik)) continue;
        for (std::size_t j = 0; j < b.cols_; ++j) {
          out(i, j) += aik * b(k, j);
        }
      }
    }
    return out;
  }

  friend Matrix operator+(const Matrix& a, const Matrix& b) {
    require_same_shape(a, b);
    Matrix out = a;
    for (std::size_t i = 0; i < out.data_.size(); ++i)
      out.data_[i] += b.data_[i];
    return out;
  }

  friend Matrix operator-(const Matrix& a, const Matrix& b) {
    require_same_shape(a, b);
    Matrix out = a;
    for (std::size_t i = 0; i < out.data_.size(); ++i)
      out.data_[i] -= b.data_[i];
    return out;
  }

  friend Matrix operator*(const T& s, const Matrix& a) {
    Matrix out = a;
    for (auto& v : out.data_) v = s * v;
    return out;
  }

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

  // Frobenius-style max |a_ij - b_ij| as double, for tolerance checks.
  friend double max_abs_diff(const Matrix& a, const Matrix& b) {
    require_same_shape(a, b);
    double m = 0.0;
    for (std::size_t i = 0; i < a.data_.size(); ++i) {
      double d = to_double(field_abs(a.data_[i] - b.data_[i]));
      if (d > m) m = d;
    }
    return m;
  }

  double max_abs() const {
    double m = 0.0;
    for (const auto& v : data_) {
      double d = to_double(field_abs(v));
      if (d > m) m = d;
    }
    return m;
  }

  bool is_upper_triangular() const {
    for (std::size_t i = 1; i < rows_; ++i)
      for (std::size_t j = 0; j < i && j < cols_; ++j)
        if (!is_zero((*this)(i, j))) return false;
    return true;
  }

  bool is_lower_triangular() const {
    for (std::size_t i = 0; i < rows_; ++i)
      for (std::size_t j = i + 1; j < cols_; ++j)
        if (!is_zero((*this)(i, j))) return false;
    return true;
  }

  bool is_unit_lower_triangular() const {
    if (!is_lower_triangular()) return false;
    for (std::size_t i = 0; i < rows_ && i < cols_; ++i)
      if (!((*this)(i, i) == T(1))) return false;
    return true;
  }

  // Strict (row) diagonal dominance: |a_ii| > sum_{j != i} |a_ij|.
  bool is_strictly_diagonally_dominant() const
    requires(!is_exact_field_v<T>)
  {
    for (std::size_t i = 0; i < rows_; ++i) {
      double off = 0.0;
      for (std::size_t j = 0; j < cols_; ++j)
        if (j != i) off += to_double(field_abs((*this)(i, j)));
      if (to_double(field_abs((*this)(i, i))) <= off) return false;
    }
    return true;
  }

  template <class U>
  Matrix<U> cast() const {
    Matrix<U> out(rows_, cols_);
    for (std::size_t i = 0; i < rows_; ++i)
      for (std::size_t j = 0; j < cols_; ++j)
        out(i, j) = U((*this)(i, j));
    return out;
  }

  std::string to_string(int width = 9) const {
    std::ostringstream os;
    for (std::size_t i = 0; i < rows_; ++i) {
      for (std::size_t j = 0; j < cols_; ++j) {
        std::string s = scalar_to_string((*this)(i, j));
        if (static_cast<int>(s.size()) < width)
          s.insert(0, width - s.size(), ' ');
        os << s << (j + 1 == cols_ ? "" : " ");
      }
      os << '\n';
    }
    return os.str();
  }

 private:
  static void require_same_shape(const Matrix& a, const Matrix& b) {
    if (a.rows_ != b.rows_ || a.cols_ != b.cols_)
      throw std::invalid_argument("Matrix: shape mismatch");
  }
  void check(std::size_t i, std::size_t j) const {
    if (i >= rows_ || j >= cols_)
      throw std::out_of_range("Matrix: index out of range");
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

// Exact double->Rational lift for verifying a floating construction exactly.
inline Matrix<numeric::Rational> to_rational(const Matrix<double>& a) {
  Matrix<numeric::Rational> out(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      out(i, j) = numeric::Rational::from_double(a(i, j));
  return out;
}

// A permutation of {0, .., n-1}; perm()[i] is the image of i.
class Permutation {
 public:
  Permutation() = default;
  explicit Permutation(std::size_t n) : map_(n) {
    for (std::size_t i = 0; i < n; ++i) map_[i] = i;
  }
  explicit Permutation(std::vector<std::size_t> map) : map_(std::move(map)) {}

  std::size_t size() const { return map_.size(); }
  std::size_t operator[](std::size_t i) const { return map_[i]; }
  const std::vector<std::size_t>& map() const { return map_; }

  void swap(std::size_t a, std::size_t b) { std::swap(map_[a], map_[b]); }
  void cycle_up(std::size_t to, std::size_t from) {
    for (std::size_t r = from; r > to; --r) swap(r, r - 1);
  }

  Permutation inverse() const {
    Permutation out(map_.size());
    for (std::size_t i = 0; i < map_.size(); ++i) out.map_[map_[i]] = i;
    return out;
  }

  bool is_identity() const {
    for (std::size_t i = 0; i < map_.size(); ++i)
      if (map_[i] != i) return false;
    return true;
  }

  int sign() const {
    std::vector<bool> seen(map_.size(), false);
    int s = 1;
    for (std::size_t i = 0; i < map_.size(); ++i) {
      if (seen[i]) continue;
      std::size_t len = 0;
      for (std::size_t j = i; !seen[j]; j = map_[j]) {
        seen[j] = true;
        ++len;
      }
      if (len % 2 == 0) s = -s;
    }
    return s;
  }

  // Permutation matrix P with P(i, map[i]) = 1, so that (P A) row i equals
  // A row map[i].
  template <class T>
  Matrix<T> to_matrix() const {
    Matrix<T> out(map_.size(), map_.size());
    for (std::size_t i = 0; i < map_.size(); ++i) out(i, map_[i]) = T(1);
    return out;
  }

  // Rows of the result: out row i = a row map[i].
  template <class T>
  Matrix<T> apply_rows(const Matrix<T>& a) const {
    Matrix<T> out(a.rows(), a.cols());
    for (std::size_t i = 0; i < a.rows(); ++i)
      for (std::size_t j = 0; j < a.cols(); ++j)
        out(i, j) = a(map_[i], j);
    return out;
  }

  friend bool operator==(const Permutation& a, const Permutation& b) {
    return a.map_ == b.map_;
  }

 private:
  std::vector<std::size_t> map_;
};

}  // namespace pfact
