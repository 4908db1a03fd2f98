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
// A blob is a CheckpointHeader (magic "PFCK", version, payload length and
// CRC32) and the StorageCheckpoint payload, each one field list
// (robustness/fields.h).
//
// A torn write (truncated blob), a bit flip anywhere (header or payload),
// or a version skew is always *rejected* with a specific CheckpointStatus
// — a checkpoint that does not verify is never resumed. Detection of torn
// blobs is exercised by FaultClass::kTornWrite in the fault injector.

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "factor/pivot_trace.h"
#include "matrix/matrix.h"
#include "matrix/sparse.h"
#include "matrix/storage.h"
#include "numeric/field.h"
#include "numeric/rational.h"
#include "numeric/softfloat.h"
#include "obs/counters.h"
#include "obs/taxonomy.h"
#include "parallel/annotations.h"
#include "robustness/fields.h"

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
  kCount_,       // sentinel: number of statuses
};

inline constexpr obs::RowTable<obs::NameRow<CheckpointStatus>>
    kCheckpointStatusRows = {{
        {CheckpointStatus::kOk, "ok"},
        {CheckpointStatus::kTruncated, "truncated"},
        {CheckpointStatus::kBadMagic, "bad-magic"},
        {CheckpointStatus::kBadVersion, "bad-version"},
        {CheckpointStatus::kCrcMismatch, "crc-mismatch"},
        {CheckpointStatus::kMalformed, "malformed"},
    }};
static_assert(obs::is_row_table(kCheckpointStatusRows));

inline const char* checkpoint_status_name(CheckpointStatus s) {
  return obs::name_of(kCheckpointStatusRows, s);
}

// --- field tags ----------------------------------------------------------
// A blob names the scalar field and storage backend it was taken in by a
// tag; resume refuses a blob whose tag is not its own instantiation's, so
// a sparse blob never decodes into a dense resume, nor one field into
// another (kMalformed).

// The scalar fields a checkpoint can be taken in, one per kFieldTagRows row.
using CheckpointFields = std::tuple<double, long double, numeric::Rational,
                                    numeric::Float53, numeric::Float24>;

struct FieldTagRow {
  const char* dense;   // a Matrix<T> checkpoint
  const char* sparse;  // a sparse::SparseMatrix<T> one: "sparse-" + dense
};

inline constexpr std::array<FieldTagRow, std::tuple_size_v<CheckpointFields>>
    kFieldTagRows = {{
        {"double", "sparse-double"},
        {"long-double", "sparse-long-double"},
        {"rational", "sparse-rational"},
        {"softfloat53", "sparse-softfloat53"},
        {"softfloat24", "sparse-softfloat24"},
    }};

// Every dense tag kebab-case, every sparse tag its dense tag with the
// "sparse-" prefix, and all of them distinct. A field without a row leaves
// a null one, which fails too.
template <std::size_t N>
constexpr bool is_tag_table(const std::array<FieldTagRow, N>& rows) {
  for (std::size_t i = 0; i < N; ++i) {
    if (!obs::is_kebab_name(rows[i].dense) || rows[i].sparse == nullptr ||
        std::string_view(rows[i].sparse).substr(0, 7) != "sparse-" ||
        std::string_view(rows[i].sparse).substr(7) != rows[i].dense)
      return false;
    for (std::size_t j = 0; j < i; ++j)
      for (std::string_view a : {rows[i].dense, rows[i].sparse})
        if (a == rows[j].dense || a == rows[j].sparse) return false;
  }
  return true;
}
static_assert(is_tag_table(kFieldTagRows));

// FNV-1a 64 over every tag in row order, each with its terminating NUL.
template <std::size_t N>
constexpr std::uint64_t tag_fingerprint(
    const std::array<FieldTagRow, N>& rows) {
  std::uint64_t h = 0xcbf29ce484222325;
  for (const FieldTagRow& row : rows)
    for (std::string_view tag : {row.dense, row.sparse})
      for (std::size_t i = 0; i <= tag.size(); ++i)
        h = (h ^ static_cast<unsigned char>(i < tag.size() ? tag[i] : 0)) *
            0x100000001b3;
  return h;
}

// The version ratchet: one row per format version since 2, with the
// fingerprint of the tag table it shipped. A changed table fails the
// static_assert below until kCheckpointVersion is bumped and its row is
// added; a shipped row never changes.
struct SchemaRow {
  std::uint32_t version;
  std::uint64_t tag_fingerprint;
};

inline constexpr SchemaRow kCheckpointSchemaRows[] = {
    {2, 0xf156c7d55a26e568},
};

constexpr bool schema_row_matches(std::uint32_t version,
                                  std::uint64_t fingerprint) {
  for (const SchemaRow& row : kCheckpointSchemaRows)
    if (row.version == version) return row.tag_fingerprint == fingerprint;
  return false;
}
static_assert(schema_row_matches(kCheckpointVersion,
                                 tag_fingerprint(kFieldTagRows)),
              "the tag table does not match kCheckpointSchemaRows' row for "
              "kCheckpointVersion: bump the version and add its row");

// T's row of kFieldTagRows.
template <class T>
constexpr const FieldTagRow& field_tags() {
  constexpr std::size_t row = []<class... F>(std::tuple<F...>*) {
    const bool is_t[] = {std::is_same_v<T, F>...};
    return std::size_t(std::find(is_t, is_t + sizeof...(F), true) - is_t);
  }(static_cast<CheckpointFields*>(nullptr));
  static_assert(row < kFieldTagRows.size(), "T has no row in kFieldTagRows");
  return kFieldTagRows[row];
}
template <class T>
constexpr const char* field_tag() { return field_tags<T>().dense; }
template <class T>
constexpr const char* sparse_field_tag() { return field_tags<T>().sparse; }

namespace detail {

// Lossless scalar serialization per field. Encodings are chosen so that
// decode(encode(x)) == x bit-for-bit in the field's own equality.
template <class T>
struct ScalarCodec;

template <>
struct ScalarCodec<double> {
  static void encode(ByteWriter& w, const double& v) { w.f64(v); }
  static void decode(ByteReader& r, double& v) { r.f64(v); }
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
    w.i32(exp);
    w.put_u64(mant);
  }
  static void decode(ByteReader& r, long double& v) {
    std::uint8_t neg = r.get_u8();
    int exp = 0;
    r.i32(exp);
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
    w.f64(v.to_double());
  }
  static void decode(ByteReader& r, numeric::SoftFloat<P, Emin, Emax>& v) {
    double d = 0.0;
    r.f64(d);
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
    std::string num, den;
    r.str(num);
    r.str(den);
    if (!r.ok()) return;
    v = numeric::Rational(numeric::BigInt::from_string(num),
                          numeric::BigInt::from_string(den));
  }
};

// Per-storage-backend serialization of the matrix (shape, then entry
// section) and the tag naming the backend+field pair: one bulk field of the
// PFCK payload. The dense codec's byte stream is the historical v1 layout
// verbatim; the sparse codec serializes the CSR form (nnz, row pointers,
// then column/value pairs) and re-validates every CSR invariant on decode,
// so a blob that parses is canonical by construction.
template <class Storage>
struct StorageCodec;

template <class T>
struct StorageCodec<Matrix<T>> {
  static const char* tag() { return field_tag<T>(); }

  static std::size_t size_hint(const Matrix<T>& m) {
    return m.rows() * m.cols() * (sizeof(T) + 2);
  }

  static void encode(ByteWriter& w, const Matrix<T>& m) {
    w.put_u64(m.rows());
    w.put_u64(m.cols());
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

  static bool decode(ByteReader& r, Matrix<T>& m) {
    const std::uint64_t rows = r.get_u64();
    const std::uint64_t cols = r.get_u64();
    // Cheap bound before allocating: >= 1 byte per entry.
    if (!r.ok() || rows * cols > r.size()) return false;
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

  static std::size_t size_hint(const sparse::SparseMatrix<T>& m) {
    return (m.rows() + 1) * 8 + m.nnz() * (sizeof(T) + 10);
  }

  // rows u64, cols u64, nnz u64, row_ptr (rows+1 u64), then nnz (col u64,
  // scalar) pairs in row-major order — the CSR arrays verbatim.
  static void encode(ByteWriter& w, const sparse::SparseMatrix<T>& m) {
    using Entry = typename sparse::SparseMatrix<T>::Entry;
    w.put_u64(m.rows());
    w.put_u64(m.cols());
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

  static bool decode(ByteReader& r, sparse::SparseMatrix<T>& m) {
    const std::uint64_t rows = r.get_u64();
    const std::uint64_t cols = r.get_u64();
    const std::uint64_t nnz = r.get_u64();
    // Bounds before any allocation: row_ptr needs 8(rows+1) bytes and each
    // entry at least 9 (col u64 + >=1 value byte).
    if (!r.ok() || nnz > r.size() / 9 || rows > r.size() / 8) return false;
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

// The same snapshot by reference to a run's live state, so saving copies
// no matrix.
template <class Storage>
struct CheckpointParts {
  std::string_view algorithm;
  std::uint32_t strategy;
  std::uint64_t next_step;
  const Storage& matrix;
  bool has_perm;
  const Permutation& perm;
  const factor::PivotTrace& trace;
};

// The PFCK payload: written from CheckpointParts, read into a
// StorageCheckpoint.
template <class Io, class R>
  requires requires(R& c) { c.matrix; }
void fields(Io& io, R& c) {
  using Codec =
      detail::StorageCodec<std::remove_cvref_t<decltype(c.matrix)>>;
  io.str(c.algorithm);
  io.tag(Codec::tag());
  io.u32(c.strategy);
  io.u64(c.next_step);
  io.bulk(c.matrix, Codec{});
  io.u8(c.has_perm);
  if (c.has_perm) io.perm(c.perm);
  io.trace(c.trace);
}

struct CheckpointHeader {
  std::uint32_t magic = kCheckpointMagic;
  std::uint32_t version = kCheckpointVersion;
  std::uint64_t length = 0;  // payload bytes
  std::uint32_t crc = 0;     // CRC32 of the payload
};

template <class Io, detail::Of<CheckpointHeader> R>
void fields(Io& io, R& h) {
  io.u32(h.magic);
  io.u32(h.version);
  io.u64(h.length);
  io.u32(h.crc);
}

// Serializes a snapshot directly from the caller's live state — no copy of
// the matrix into a FactorCheckpoint first, and header + payload share one
// buffer (the header is rewritten once the payload's length and CRC are
// known). This is the save-every-k hot path; encode_checkpoint(c) below is
// the convenience wrapper over an already-materialized struct.
template <class Storage>
std::string encode_checkpoint_parts(std::string_view algorithm,
                                    std::uint32_t strategy,
                                    std::uint64_t next_step,
                                    const Storage& matrix,
                                    const Permutation* perm,
                                    const factor::PivotTrace& trace) {
  const Permutation no_perm;
  const CheckpointParts<Storage> parts{
      algorithm, strategy,          next_step,
      matrix,    perm != nullptr,   perm != nullptr ? *perm : no_perm,
      trace};
  detail::ByteWriter w;
  // Capacity hint only (Rational entries are variable-width): sized for the
  // fixed-width fields so snapshotting inside a factorization loop does not
  // reallocate per entry.
  w.reserve(kCheckpointHeaderBytes + 128 + algorithm.size() +
            detail::StorageCodec<Storage>::size_hint(matrix) +
            parts.perm.size() * 8 + trace.size() * 28);
  detail::write_fields(w, CheckpointHeader{});
  detail::write_fields(w, parts);
  const std::string_view body =
      std::string_view(w.bytes()).substr(kCheckpointHeaderBytes);
  w.overwrite(0, detail::encode_fields(CheckpointHeader{
                     .length = body.size(),
                     .crc = crc32(body.data(), body.size())}));
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
// frames arriving over a worker pipe before filing them for resume, and
// decode_storage_checkpoint runs it before parsing the payload.
CheckpointStatus validate_checkpoint_envelope(std::string_view blob);

// Validates and parses `blob` into `out`. Any failure leaves `out`
// unspecified and names the rejection reason; kOk is returned only when
// the header verifies, the CRC matches, and the payload parses completely
// in the blob's storage backend and field.
template <class Storage>
CheckpointStatus decode_storage_checkpoint(std::string_view blob,
                                           StorageCheckpoint<Storage>& out) {
  const CheckpointStatus envelope = validate_checkpoint_envelope(blob);
  if (envelope != CheckpointStatus::kOk) return envelope;
  return detail::decode_fields(blob.substr(kCheckpointHeaderBytes), out)
             ? CheckpointStatus::kOk
             : CheckpointStatus::kMalformed;
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
