#pragma once
// Versioned, CRC32-protected checkpoints of mid-factorization state.
//
// The ROADMAP's heavy-traffic north star needs long factorizations to
// survive preemption: a run killed at step s must be resumable from its
// last saved state and still decode to exactly the boolean an
// uninterrupted run would have produced. That equivalence only holds if
// the snapshot is *bit-exact* in the run's own field — so every scalar is
// serialized losslessly (double/SoftFloat via their bit patterns, long
// double via sign/exponent/significand, Rational via exact decimal
// strings), never through a lossy decimal round-trip.
//
// Blob layout (all integers little-endian):
//
//   magic   u32   "PFCK" (0x4B434650)
//   version u32   kCheckpointVersion
//   length  u64   payload byte count
//   crc     u32   CRC32 (poly 0xEDB88320) of the payload bytes
//   payload ...   FactorCheckpoint fields (see encode_checkpoint)
//
// A torn write (truncated blob), a bit flip anywhere (header or payload),
// or a version skew is always *rejected* with a specific CheckpointStatus
// — a checkpoint that does not verify is never resumed. Detection of torn
// blobs is exercised by FaultClass::kTornWrite in the fault injector.

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "factor/pivot_trace.h"
#include "matrix/matrix.h"
#include "matrix/sparse.h"
#include "matrix/storage.h"
#include "numeric/field.h"
#include "numeric/rational.h"
#include "numeric/softfloat.h"
#include "obs/counters.h"
#include "parallel/annotations.h"

namespace pfact::robustness {

// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `len` bytes. The
// kernel is chosen once from CPUID (robustness/crc32_kernels.h).
std::uint32_t crc32(const void* data, std::size_t len);

inline constexpr std::uint32_t kCheckpointMagic = 0x4B434650;  // "PFCK"
// v2: sparse storage checkpoints (sparse-* field tags; CSR entry section).
inline constexpr std::uint32_t kCheckpointVersion = 2;
inline constexpr std::size_t kCheckpointHeaderBytes = 4 + 4 + 8 + 4;

enum class CheckpointStatus {
  kOk,
  kTruncated,    // blob shorter than header + declared payload length
  kBadMagic,     // not a checkpoint at all
  kBadVersion,   // produced by an incompatible format revision
  kCrcMismatch,  // payload bytes do not hash to the stored CRC
  kMalformed,    // CRC passed but the payload does not parse, or the
                 // field/algorithm/shape does not match the resuming task
};

inline const char* checkpoint_status_name(CheckpointStatus s) {
  switch (s) {
    case CheckpointStatus::kOk: return "ok";
    case CheckpointStatus::kTruncated: return "truncated";
    case CheckpointStatus::kBadMagic: return "bad-magic";
    case CheckpointStatus::kBadVersion: return "bad-version";
    case CheckpointStatus::kCrcMismatch: return "crc-mismatch";
    case CheckpointStatus::kMalformed: return "malformed";
  }
  return "?";
}

namespace detail {

class ByteWriter {
 public:
  void reserve(std::size_t n) { buf_.reserve(buf_.size() + n); }
  void put_u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void put_u32(std::uint32_t v) {
    char b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<char>(v >> (8 * i));
    buf_.append(b, 4);
  }
  void put_u64(std::uint64_t v) {
    char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (8 * i));
    buf_.append(b, 8);
  }
  void put_i32(std::int32_t v) { put_u32(static_cast<std::uint32_t>(v)); }
  void put_bytes(const void* p, std::size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  // Grows the buffer by `n` bytes and returns where they start, for a
  // section whose exact size is known before it is filled.
  char* extend(std::size_t n) {
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    return buf_.data() + at;
  }
  // Overwrites bytes previously written at `pos` (little-endian), for
  // headers whose length/CRC are only known once the payload is complete.
  void patch_u32(std::size_t pos, std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      buf_[pos + i] = static_cast<char>(v >> (8 * i));
  }
  void patch_u64(std::size_t pos, std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      buf_[pos + i] = static_cast<char>(v >> (8 * i));
  }
  void put_string(std::string_view s) {
    put_u64(s.size());
    buf_.append(s.data(), s.size());
  }
  const std::string& bytes() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool ok() const { return ok_; }
  bool exhausted() const { return pos_ == data_.size(); }

  std::uint8_t get_u8() {
    if (pos_ + 1 > data_.size()) return fail<std::uint8_t>();
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  std::uint32_t get_u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{get_u8()} << (8 * i);
    return v;
  }
  std::uint64_t get_u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{get_u8()} << (8 * i);
    return v;
  }
  std::int32_t get_i32() { return static_cast<std::int32_t>(get_u32()); }
  bool get_bytes(void* dst, std::size_t n) {
    if (!ok_ || n > data_.size() - pos_) {
      fail<std::uint8_t>();
      return false;
    }
    std::memcpy(dst, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  std::string get_string() {
    std::uint64_t n = get_u64();
    if (!ok_ || n > data_.size() - pos_) return fail<std::string>();
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }

 private:
  template <class T>
  T fail() {
    ok_ = false;
    pos_ = data_.size();
    return T{};
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace detail

// Stable tag naming the scalar field a checkpoint was taken in; resume
// refuses a blob whose tag differs from the resuming instantiation.
template <class T>
const char* field_tag() = delete;
template <>
inline const char* field_tag<double>() { return "double"; }
template <>
inline const char* field_tag<long double>() { return "long-double"; }
template <>
inline const char* field_tag<numeric::Rational>() { return "rational"; }
template <>
inline const char* field_tag<numeric::Float53>() { return "softfloat53"; }
template <>
inline const char* field_tag<numeric::Float24>() { return "softfloat24"; }

// Tag for the sparse-CSR serialization of the same scalar field. Every
// sparse tag is its dense field's tag with the "sparse-" prefix — pfact_lint
// PL011 enforces both that naming law and the sweep below, and the tags are
// part of the schema ratchet (tools/pfact_lint_manifest.txt) like the dense
// ones. A sparse blob never decodes into a dense resume (or vice versa):
// the tag mismatch is kMalformed, same as a scalar-field mismatch.
template <class T>
const char* sparse_field_tag() = delete;
template <>
inline const char* sparse_field_tag<double>() { return "sparse-double"; }
template <>
inline const char* sparse_field_tag<long double>() {
  return "sparse-long-double";
}
template <>
inline const char* sparse_field_tag<numeric::Rational>() {
  return "sparse-rational";
}
template <>
inline const char* sparse_field_tag<numeric::Float53>() {
  return "sparse-softfloat53";
}
template <>
inline const char* sparse_field_tag<numeric::Float24>() {
  return "sparse-softfloat24";
}

// Every sparse_field_tag specialization, for sweep-style codec tests (the
// corruption matrix runs over each) — PL011 fails the build when a
// specialization is missing from this list.
inline std::vector<const char*> all_sparse_field_tags() {
  return {sparse_field_tag<double>(), sparse_field_tag<long double>(),
          sparse_field_tag<numeric::Rational>(),
          sparse_field_tag<numeric::Float53>(),
          sparse_field_tag<numeric::Float24>()};
}

namespace detail {

// Lossless scalar serialization per field. Encodings are chosen so that
// decode(encode(x)) == x bit-for-bit in the field's own equality.
template <class T>
struct ScalarCodec;

template <>
struct ScalarCodec<double> {
  static void encode(ByteWriter& w, const double& v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    w.put_u64(bits);
  }
  static void decode(ByteReader& r, double& v) {
    std::uint64_t bits = r.get_u64();
    std::memcpy(&v, &bits, sizeof(v));
  }
};

// long double: sign / binary exponent / top-64-bit significand, which is
// exact for both x87 80-bit (64-bit significand) and platforms where long
// double is IEEE double. Avoids memcpy of x87 padding bytes, whose
// indeterminate content would make blobs non-reproducible.
template <>
struct ScalarCodec<long double> {
  static void encode(ByteWriter& w, const long double& v) {
    std::uint8_t neg = v < 0.0L ? 1 : 0;
    int exp = 0;
    long double m = std::frexp(v < 0.0L ? -v : v, &exp);  // m in [0.5, 1)
    auto mant = static_cast<std::uint64_t>(std::ldexp(m, 64));
    w.put_u8(neg);
    w.put_i32(exp);
    w.put_u64(mant);
  }
  static void decode(ByteReader& r, long double& v) {
    std::uint8_t neg = r.get_u8();
    std::int32_t exp = r.get_i32();
    std::uint64_t mant = r.get_u64();
    v = std::ldexp(static_cast<long double>(mant), exp - 64);
    if (neg != 0) v = -v;
  }
};

template <int P, int Emin, int Emax>
struct ScalarCodec<numeric::SoftFloat<P, Emin, Emax>> {
  // to_double/from_double round-trip exactly for P <= 53 (every P-bit
  // value in range is a representable double).
  static_assert(P <= 53, "SoftFloat checkpoint codec requires P <= 53");
  static void encode(ByteWriter& w, const numeric::SoftFloat<P, Emin, Emax>& v) {
    ScalarCodec<double>::encode(w, v.to_double());
  }
  static void decode(ByteReader& r, numeric::SoftFloat<P, Emin, Emax>& v) {
    double d = 0.0;
    ScalarCodec<double>::decode(r, d);
    v = numeric::SoftFloat<P, Emin, Emax>::from_double(d);
  }
};

template <>
struct ScalarCodec<numeric::Rational> {
  static void encode(ByteWriter& w, const numeric::Rational& v) {
    w.put_string(v.num().to_string());
    w.put_string(v.den().to_string());
  }
  static void decode(ByteReader& r, numeric::Rational& v) {
    std::string num = r.get_string();
    std::string den = r.get_string();
    if (!r.ok()) return;
    v = numeric::Rational(numeric::BigInt::from_string(num),
                          numeric::BigInt::from_string(den));
  }
};

// Per-storage-backend serialization of the matrix entry section (and the
// tag naming the backend+field pair). The dense codec's byte stream is the
// historical v1 layout verbatim; the sparse codec serializes the CSR form
// (nnz, row pointers, then column/value pairs) and re-validates every CSR
// invariant on decode, so a blob that parses is canonical by construction.
template <class Storage>
struct StorageCodec;

template <class T>
struct StorageCodec<Matrix<T>> {
  static const char* tag() { return field_tag<T>(); }

  static std::size_t entry_size_hint(const Matrix<T>& m) {
    return m.rows() * m.cols() * (sizeof(T) + 2);
  }

  static void encode_entries(ByteWriter& w, const Matrix<T>& m) {
    const std::size_t entries = m.rows() * m.cols();
    if constexpr (std::is_same_v<T, double> &&
                  std::endian::native == std::endian::little) {
      // Raw little-endian doubles are byte-identical to the per-entry
      // u64-bit-pattern encoding; one append instead of n^2 codec calls
      // keeps snapshot cost from dominating the factorization loop.
      if (entries != 0) w.put_bytes(&m(0, 0), entries * sizeof(double));
    } else {
      for (std::size_t i = 0; i < m.rows(); ++i)
        for (std::size_t j = 0; j < m.cols(); ++j)
          ScalarCodec<T>::encode(w, m(i, j));
    }
  }

  static bool decode_entries(ByteReader& r, std::uint64_t rows,
                             std::uint64_t cols, std::size_t body_size,
                             Matrix<T>& m) {
    if (rows * cols > body_size) return false;  // cheap bound: >=1 byte/entry
    m = Matrix<T>(rows, cols);
    if constexpr (std::is_same_v<T, double> &&
                  std::endian::native == std::endian::little) {
      if (rows != 0 && cols != 0 &&
          !r.get_bytes(&m(0, 0), rows * cols * sizeof(double)))
        return false;
    } else {
      for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t j = 0; j < cols; ++j)
          ScalarCodec<T>::decode(r, m(i, j));
    }
    return r.ok();
  }
};

template <class T>
struct StorageCodec<sparse::SparseMatrix<T>> {
  static const char* tag() { return sparse_field_tag<T>(); }

  static std::size_t entry_size_hint(const sparse::SparseMatrix<T>& m) {
    return (m.rows() + 1) * 8 + m.nnz() * (sizeof(T) + 10);
  }

  // Entry section: nnz u64, row_ptr (rows+1 u64), then nnz (col u64,
  // scalar) pairs in row-major order — the CSR arrays verbatim.
  static void encode_entries(ByteWriter& w,
                             const sparse::SparseMatrix<T>& m) {
    using Entry = typename sparse::SparseMatrix<T>::Entry;
    if constexpr (std::is_same_v<T, double> &&
                  std::endian::native == std::endian::little &&
                  sizeof(std::size_t) == 8) {
      // One pass over an exactly sized section: each row's (col, value)
      // entries already sit in memory as the little-endian u64 pairs the
      // per-field loop below writes, so a row is one memcpy (the dense
      // codec's raw-double append, per row). Served requests certify in
      // double, so this is the save-every-k hot path.
      static_assert(sizeof(Entry) == 16 && offsetof(Entry, value) == 8);
      const std::uint64_t nnz = m.nnz();
      char* out = w.extend(8 + 8 * (m.rows() + 1) + 16 * nnz);
      const auto put = [&out](std::uint64_t v) {
        std::memcpy(out, &v, 8);
        out += 8;
      };
      put(nnz);
      std::uint64_t off = 0;
      put(off);
      for (std::size_t i = 0; i < m.rows(); ++i) {
        off += m.row_nnz(i);
        put(off);
      }
      for (std::size_t i = 0; i < m.rows(); ++i) {
        const std::vector<Entry>& row = m.row(i);
        if (row.empty()) continue;
        std::memcpy(out, row.data(), row.size() * sizeof(Entry));
        out += row.size() * sizeof(Entry);
      }
    } else {
      w.put_u64(m.nnz());
      std::uint64_t off = 0;
      w.put_u64(off);
      for (std::size_t i = 0; i < m.rows(); ++i) {
        off += m.row_nnz(i);
        w.put_u64(off);
      }
      for (std::size_t i = 0; i < m.rows(); ++i) {
        for (const auto& e : m.row(i)) {
          w.put_u64(e.col);
          ScalarCodec<T>::encode(w, e.value);
        }
      }
    }
  }

  static bool decode_entries(ByteReader& r, std::uint64_t rows,
                             std::uint64_t cols, std::size_t body_size,
                             sparse::SparseMatrix<T>& m) {
    const std::uint64_t nnz = r.get_u64();
    // Bounds before any allocation: row_ptr needs 8(rows+1) bytes and each
    // entry at least 9 (col u64 + >=1 value byte).
    if (!r.ok() || nnz > body_size / 9 || rows > body_size / 8)
      return false;
    std::vector<std::size_t> row_ptr(rows + 1);
    for (std::uint64_t i = 0; i <= rows; ++i) row_ptr[i] = r.get_u64();
    if (!r.ok() || row_ptr.back() != nnz) return false;
    std::vector<std::size_t> col_idx(nnz);
    std::vector<T> values(nnz);
    for (std::uint64_t p = 0; p < nnz; ++p) {
      col_idx[p] = r.get_u64();
      ScalarCodec<T>::decode(r, values[p]);
    }
    if (!r.ok()) return false;
    // Full CSR invariant re-validation: monotone row pointers, per-row
    // strictly increasing in-range columns, no stored exact zeros. A
    // CRC-valid blob that violates any of these is malformed, not resumed.
    if (!sparse::csr_invariant_violation(rows, cols, row_ptr, col_idx)
             .empty())
      return false;
    for (const T& v : values)
      if (is_zero(v)) return false;
    m = sparse::SparseMatrix<T>(sparse::CsrMatrix<T>::from_parts(
        rows, cols, std::move(row_ptr), std::move(col_idx),
        std::move(values)));
    return true;
  }
};

}  // namespace detail

// A resumable snapshot: "steps [0, next_step) of `algorithm` have been
// executed on this matrix". The pivot trace is the FULL trace of those
// completed steps (for a resumed run, the saved prefix concatenated with
// the events since), so a checkpoint is self-contained: resuming from it
// reproduces both the decode and the complete trace of an uninterrupted
// run. Generic over the storage backend; FactorCheckpoint<T> is the dense
// spelling every pre-sparse call site uses.
template <class Storage>
struct StorageCheckpoint {
  std::string algorithm;       // "GEM" / "GEMS" / "GEM/nonsingular" / ...
  std::uint32_t strategy = 0;  // PivotStrategy ordinal (0 for GQR)
  std::uint64_t next_step = 0; // first guard step NOT yet executed
  Storage matrix;
  bool has_perm = false;
  Permutation perm;
  factor::PivotTrace trace;
};

template <class T>
using FactorCheckpoint = StorageCheckpoint<Matrix<T>>;

// Serializes a snapshot directly from the caller's live state — no copy of
// the matrix into a FactorCheckpoint first, and header + payload share one
// buffer (the length/CRC fields are patched in afterwards). This is the
// save-every-k hot path; encode_checkpoint(c) below is the convenience
// wrapper over an already-materialized struct.
template <class Storage>
std::string encode_checkpoint_parts(std::string_view algorithm,
                                    std::uint32_t strategy,
                                    std::uint64_t next_step,
                                    const Storage& matrix,
                                    const Permutation* perm,
                                    const factor::PivotTrace& trace) {
  using Codec = detail::StorageCodec<Storage>;
  detail::ByteWriter w;
  // Capacity hint only (Rational entries are variable-width): sized for the
  // fixed-width fields so snapshotting inside a factorization loop does not
  // reallocate per entry.
  w.reserve(kCheckpointHeaderBytes + 128 + algorithm.size() +
            Codec::entry_size_hint(matrix) +
            (perm != nullptr ? perm->size() * 8 : 0) + trace.size() * 28);
  w.put_u32(kCheckpointMagic);
  w.put_u32(kCheckpointVersion);
  w.put_u64(0);  // payload length, patched below
  w.put_u32(0);  // payload CRC, patched below
  w.put_string(algorithm);
  w.put_string(Codec::tag());
  w.put_u32(strategy);
  w.put_u64(next_step);
  w.put_u64(matrix.rows());
  w.put_u64(matrix.cols());
  Codec::encode_entries(w, matrix);
  w.put_u8(perm != nullptr ? 1 : 0);
  if (perm != nullptr) {
    w.put_u64(perm->size());
    for (std::size_t i = 0; i < perm->size(); ++i) w.put_u64((*perm)[i]);
  }
  w.put_u64(trace.size());
  for (const factor::PivotEvent& e : trace.events()) {
    w.put_u64(e.column);
    w.put_u64(e.pivot_pos);
    w.put_u64(e.pivot_row);
    w.put_u32(static_cast<std::uint32_t>(e.action));
  }
  const std::size_t length = w.bytes().size() - kCheckpointHeaderBytes;
  w.patch_u64(8, length);
  w.patch_u32(16,
              crc32(w.bytes().data() + kCheckpointHeaderBytes, length));
  return w.take();
}

template <class Storage>
std::string encode_checkpoint(const StorageCheckpoint<Storage>& c) {
  return encode_checkpoint_parts(c.algorithm, c.strategy, c.next_step,
                                 c.matrix, c.has_perm ? &c.perm : nullptr,
                                 c.trace);
}

// Field-agnostic envelope check: magic, version, declared length, and
// payload CRC — everything that can be verified without knowing the scalar
// field T. The process-isolation supervisor uses this to vet checkpoint
// frames arriving over a worker pipe before filing them for resume (full
// payload validation happens in decode_checkpoint<T> on the resuming side).
CheckpointStatus validate_checkpoint_envelope(std::string_view blob);

// Validates and parses `blob` into `out`. Any failure leaves `out`
// unspecified and names the rejection reason; kOk is returned only when
// the header verifies, the CRC matches, and the payload parses completely
// in the blob's storage backend and field.
template <class Storage>
CheckpointStatus decode_storage_checkpoint(std::string_view blob,
                                           StorageCheckpoint<Storage>& out) {
  if (blob.size() < kCheckpointHeaderBytes) return CheckpointStatus::kTruncated;
  detail::ByteReader header(blob.substr(0, kCheckpointHeaderBytes));
  const std::uint32_t magic = header.get_u32();
  const std::uint32_t version = header.get_u32();
  const std::uint64_t length = header.get_u64();
  const std::uint32_t crc = header.get_u32();
  if (magic != kCheckpointMagic) return CheckpointStatus::kBadMagic;
  if (version != kCheckpointVersion) return CheckpointStatus::kBadVersion;
  // The envelope checks in validate_checkpoint_envelope's order, so the two
  // give the same verdict on every damaged blob.
  if (length > blob.size() - kCheckpointHeaderBytes)
    return CheckpointStatus::kTruncated;
  const std::string_view body = blob.substr(kCheckpointHeaderBytes, length);
  if (crc32(body.data(), body.size()) != crc)
    return CheckpointStatus::kCrcMismatch;
  if (length != blob.size() - kCheckpointHeaderBytes)
    return CheckpointStatus::kMalformed;  // trailing garbage after the payload

  detail::ByteReader r(body);
  StorageCheckpoint<Storage> c;
  c.algorithm = r.get_string();
  const std::string tag = r.get_string();
  if (!r.ok() || tag != detail::StorageCodec<Storage>::tag())
    return CheckpointStatus::kMalformed;
  c.strategy = r.get_u32();
  c.next_step = r.get_u64();
  const std::uint64_t rows = r.get_u64();
  const std::uint64_t cols = r.get_u64();
  if (!r.ok()) return CheckpointStatus::kMalformed;
  try {
    if (!detail::StorageCodec<Storage>::decode_entries(r, rows, cols,
                                                       body.size(), c.matrix))
      return CheckpointStatus::kMalformed;
    c.has_perm = r.get_u8() != 0;
    if (c.has_perm) {
      const std::uint64_t n = r.get_u64();
      if (!r.ok() || n > body.size()) return CheckpointStatus::kMalformed;
      std::vector<std::size_t> map(n);
      for (std::uint64_t i = 0; i < n; ++i) map[i] = r.get_u64();
      c.perm = Permutation(std::move(map));
    }
    const std::uint64_t events = r.get_u64();
    if (!r.ok() || events > body.size()) return CheckpointStatus::kMalformed;
    for (std::uint64_t i = 0; i < events; ++i) {
      factor::PivotEvent e;
      e.column = r.get_u64();
      e.pivot_pos = r.get_u64();
      e.pivot_row = r.get_u64();
      const std::uint32_t action = r.get_u32();
      if (action > static_cast<std::uint32_t>(factor::PivotAction::kFail))
        return CheckpointStatus::kMalformed;
      e.action = static_cast<factor::PivotAction>(action);
      c.trace.record(e);
    }
  } catch (const std::exception&) {
    // Scalar decode may throw on garbage that slipped past the bounds
    // checks (e.g. a non-numeric Rational string) — same verdict.
    return CheckpointStatus::kMalformed;
  }
  if (!r.ok() || !r.exhausted()) return CheckpointStatus::kMalformed;
  out = std::move(c);
  return CheckpointStatus::kOk;
}

// Dense spelling (the historical API): decode into a FactorCheckpoint<T>.
template <class T>
CheckpointStatus decode_checkpoint(std::string_view blob,
                                   FactorCheckpoint<T>& out) {
  return decode_storage_checkpoint<Matrix<T>>(blob, out);
}

// In-memory checkpoint sequence of one run attempt, keyed by next_step.
// Resume uses latest(); a blob that fails validation is dropped with
// drop_latest() so the next retry falls back to the previous snapshot (or
// a from-scratch start).
//
// Internally synchronized: a store outlives individual attempts (the
// crash/resume harness hands one across engine calls, and a supervisor may
// observe progress while a factorization thread is saving), so every method
// takes the store's own mutex and nothing hands out references into the
// guarded map — latest() copies the blob out and blobs() snapshots the
// whole sequence. Blobs are small relative to the factorizations that
// produce them, and resume/dump are cold paths.
class CheckpointStore {
 public:
  void put(std::uint64_t step, std::string blob) {
    par::MutexLock lock(mu_);
    blobs_[step] = std::move(blob);
  }
  bool empty() const {
    par::MutexLock lock(mu_);
    return blobs_.empty();
  }
  std::size_t size() const {
    par::MutexLock lock(mu_);
    return blobs_.size();
  }
  void clear() {
    par::MutexLock lock(mu_);
    blobs_.clear();
  }

  // The newest blob, copied out (std::nullopt when the store is empty).
  std::optional<std::string> latest() const {
    par::MutexLock lock(mu_);
    if (blobs_.empty()) return std::nullopt;
    return blobs_.rbegin()->second;
  }
  std::uint64_t latest_step() const {
    par::MutexLock lock(mu_);
    return blobs_.empty() ? 0 : blobs_.rbegin()->first;
  }
  // Discards the newest blob. On an empty store this is a classified no-op:
  // it returns false and touches nothing (resilient retry loops call this
  // unconditionally after a kCheckpointCorrupt attempt, and the corrupt blob
  // may already have been dropped — or never stored at all).
  bool drop_latest() {
    par::MutexLock lock(mu_);
    if (blobs_.empty()) return false;
    blobs_.erase(std::prev(blobs_.end()));
    return true;
  }

  std::uint64_t total_bytes() const {
    par::MutexLock lock(mu_);
    std::uint64_t n = 0;
    for (const auto& [step, blob] : blobs_) n += blob.size();
    return n;
  }

  // A consistent copy of the whole sequence (artifact dumps, assertions).
  std::map<std::uint64_t, std::string> blobs() const {
    par::MutexLock lock(mu_);
    return blobs_;
  }

 private:
  mutable par::Mutex mu_;
  std::map<std::uint64_t, std::string> blobs_ PFACT_GUARDED_BY(mu_);
};

// File helpers for the soak harness / CI artifacts: a failing blob is
// dumped verbatim so the rejecting run can be replayed offline.
bool write_checkpoint_file(const std::string& path, std::string_view blob);
bool read_checkpoint_file(const std::string& path, std::string& blob);

}  // namespace pfact::robustness
