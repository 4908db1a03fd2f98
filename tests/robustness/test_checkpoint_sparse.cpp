// Sparse checkpoint codec tests (ctest label `resilience`): the sparse-CSR
// entry section must satisfy the exact guarantees the dense format proves
// in test_checkpoint.cpp — lossless bit-exact round-trips per field, every
// truncation and every bit flip refused with a specific status — plus the
// sparse-only obligations: the sparse-* field tags are a disjoint namespace
// from the dense tags (no blob crosses backends), and a CRC-VALID payload
// whose CSR arrays violate any invariant (non-monotone row pointers,
// unsorted/duplicate/out-of-range columns, stored zeros, nnz mismatch) is
// kMalformed — a checkpoint that decodes is canonical by construction.
// The one-pass double encoder must write exactly the per-field bytes.
//
// The whole matrix runs per sparse field tag, swept through the sparse
// column of kFieldTagRows — a scalar field without a row there fails the
// table's static_assert, so every field the codec knows is swept.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "circuit/builders.h"
#include "circuit/circuit.h"
#include "factor/pivot_trace.h"
#include "matrix/matrix.h"
#include "matrix/sparse.h"
#include "numeric/rational.h"
#include "numeric/softfloat.h"
#include "robustness/checkpoint.h"
#include "robustness/escalation.h"
#include "robustness/guarded_run.h"

namespace pfact::robustness {
namespace {

using numeric::Float24;
using numeric::Float53;
using numeric::Rational;
using sparse::SparseMatrix;

template <class T>
using SparseCheckpoint = StorageCheckpoint<SparseMatrix<T>>;

template <class T>
SparseCheckpoint<T> sample_checkpoint() {
  SparseCheckpoint<T> c;
  c.algorithm = "GEM";
  c.strategy = 1;
  c.next_step = 2;
  Matrix<T> m(3, 4);
  m(0, 0) = T(1);
  m(0, 3) = T(-1);
  m(1, 1) = T(2);
  // Row 2 stays empty: the codec must round-trip empty rows exactly.
  c.matrix = SparseMatrix<T>::from_dense(m);
  c.has_perm = true;
  c.perm = Permutation(3);
  c.perm.swap(0, 2);
  factor::PivotEvent e;
  e.column = 0;
  e.pivot_pos = 2;
  e.pivot_row = 2;
  e.action = factor::PivotAction::kSwap;
  c.trace.record(e);
  e.column = 1;
  e.action = factor::PivotAction::kSkip;
  c.trace.record(e);
  return c;
}

template <class T>
void expect_roundtrip(const SparseCheckpoint<T>& c) {
  const std::string blob = encode_checkpoint(c);
  SparseCheckpoint<T> back;
  ASSERT_EQ(decode_storage_checkpoint(blob, back), CheckpointStatus::kOk);
  EXPECT_EQ(back.algorithm, c.algorithm);
  EXPECT_EQ(back.strategy, c.strategy);
  EXPECT_EQ(back.next_step, c.next_step);
  // SparseMatrix equality is structural: same rows, same sorted entry
  // lists, same bit patterns — stricter than entrywise value equality.
  EXPECT_TRUE(back.matrix == c.matrix);
  ASSERT_EQ(back.has_perm, c.has_perm);
  if (c.has_perm) {
    ASSERT_EQ(back.perm.size(), c.perm.size());
    for (std::size_t i = 0; i < c.perm.size(); ++i)
      EXPECT_EQ(back.perm[i], c.perm[i]);
  }
  ASSERT_EQ(back.trace.size(), c.trace.size());
  for (std::size_t i = 0; i < c.trace.size(); ++i) {
    EXPECT_EQ(back.trace[i].column, c.trace[i].column);
    EXPECT_EQ(back.trace[i].pivot_pos, c.trace[i].pivot_pos);
    EXPECT_EQ(back.trace[i].pivot_row, c.trace[i].pivot_row);
    EXPECT_EQ(back.trace[i].action, c.trace[i].action);
  }
}

// The full rejection matrix for one field: every truncation, every bit
// flip, version skew, trailing garbage. Templated so the sweep below runs
// it for EVERY sparse_field_tag specialization.
template <class T>
void run_rejection_matrix(const char* tag) {
  SCOPED_TRACE(std::string("tag=") + tag);
  const SparseCheckpoint<T> sample = sample_checkpoint<T>();
  const std::string blob = encode_checkpoint(sample);

  // The blob embeds exactly this backend+field tag.
  EXPECT_NE(blob.find(tag), std::string::npos);
  EXPECT_STREQ(detail::StorageCodec<SparseMatrix<T>>::tag(), tag);

  for (std::size_t len = 0; len < blob.size(); ++len) {
    SparseCheckpoint<T> back;
    const CheckpointStatus s =
        decode_storage_checkpoint(std::string_view(blob.data(), len), back);
    ASSERT_NE(s, CheckpointStatus::kOk) << "accepted at length " << len;
    EXPECT_EQ(s, CheckpointStatus::kTruncated) << "at length " << len;
  }

  for (std::size_t at = 0; at < blob.size(); ++at) {
    for (int bit : {0, 4, 7}) {
      std::string bad = blob;
      bad[at] = static_cast<char>(bad[at] ^ (1 << bit));
      SparseCheckpoint<T> back;
      ASSERT_NE(decode_storage_checkpoint(bad, back), CheckpointStatus::kOk)
          << "accepted flip of bit " << bit << " at byte " << at;
    }
  }

  {
    std::string skew = blob;
    skew[4] = static_cast<char>(kCheckpointVersion + 1);
    SparseCheckpoint<T> back;
    EXPECT_EQ(decode_storage_checkpoint(skew, back),
              CheckpointStatus::kBadVersion);
  }
  {
    SparseCheckpoint<T> back;
    EXPECT_EQ(decode_storage_checkpoint<SparseMatrix<T>>(
                  "this is not a checkpoint blob!", back),
              CheckpointStatus::kBadMagic);
  }
  {
    // Self-consistent header over an extended payload: reader must notice
    // the leftover bytes.
    std::string body = blob.substr(kCheckpointHeaderBytes);
    body += '\0';
    detail::ByteWriter header;
    header.put_u32(kCheckpointMagic);
    header.put_u32(kCheckpointVersion);
    header.put_u64(body.size());
    header.put_u32(crc32(body.data(), body.size()));
    SparseCheckpoint<T> back;
    EXPECT_EQ(decode_storage_checkpoint(header.take() + body, back),
              CheckpointStatus::kMalformed);
  }

  expect_roundtrip(sample);
}

TEST(SparseCheckpointRoundTrip, DoubleIsBitExact) {
  auto c = sample_checkpoint<double>();
  c.matrix.set(1, 2, 0.1);  // not exactly representable: bits must survive
  expect_roundtrip(c);
}

TEST(SparseCheckpointRoundTrip, LongDoubleIsBitExact) {
  auto c = sample_checkpoint<long double>();
  c.matrix.set(1, 2, 1.0L / 3.0L);
  c.matrix.set(2, 0, -7.25L);
  expect_roundtrip(c);
}

TEST(SparseCheckpointRoundTrip, SoftFloatsAreBitExact) {
  auto c53 = sample_checkpoint<Float53>();
  c53.matrix.set(1, 2, Float53(0.1));
  expect_roundtrip(c53);
  auto c24 = sample_checkpoint<Float24>();
  c24.matrix.set(1, 2, Float24(0.5));
  expect_roundtrip(c24);
}

TEST(SparseCheckpointRoundTrip, RationalIsExact) {
  auto c = sample_checkpoint<Rational>();
  c.matrix.set(1, 2, Rational(22, 7));
  c.matrix.set(2, 0, Rational(-5, 3));
  expect_roundtrip(c);
}

TEST(SparseCheckpointRoundTrip, EmptyAndAllZeroMatricesSurvive) {
  SparseCheckpoint<double> c;
  c.algorithm = "GEMS";
  c.matrix = SparseMatrix<double>(4, 4);  // all-zero: nnz == 0
  expect_roundtrip(c);
  c.matrix = SparseMatrix<double>();  // degenerate 0x0
  expect_roundtrip(c);
}

// The sweep: the entire rejection matrix for every registered sparse field
// tag, the sparse column of kFieldTagRows in CheckpointFields order — if a
// tag is in it, this test exercised its codec.
TEST(SparseCheckpointRejection, EveryRegisteredTagSurvivesTheFullMatrix) {
  ASSERT_EQ(kFieldTagRows.size(), 5u);
  run_rejection_matrix<double>(kFieldTagRows[0].sparse);
  run_rejection_matrix<long double>(kFieldTagRows[1].sparse);
  run_rejection_matrix<Rational>(kFieldTagRows[2].sparse);
  run_rejection_matrix<Float53>(kFieldTagRows[3].sparse);
  run_rejection_matrix<Float24>(kFieldTagRows[4].sparse);
}

TEST(SparseCheckpointRejection, TagsAreTheDenseTagsWithTheSparsePrefix) {
  EXPECT_STREQ(sparse_field_tag<double>(), "sparse-double");
  EXPECT_EQ(std::string("sparse-") + field_tag<double>(),
            sparse_field_tag<double>());
  EXPECT_EQ(std::string("sparse-") + field_tag<long double>(),
            sparse_field_tag<long double>());
  EXPECT_EQ(std::string("sparse-") + field_tag<Rational>(),
            sparse_field_tag<Rational>());
  EXPECT_EQ(std::string("sparse-") + field_tag<Float53>(),
            sparse_field_tag<Float53>());
  EXPECT_EQ(std::string("sparse-") + field_tag<Float24>(),
            sparse_field_tag<Float24>());
}

// Backend crossing is a tag mismatch, in both directions — and so is a
// sparse blob of a different scalar field.
TEST(SparseCheckpointRejection, CrossBackendAndCrossFieldAreMalformed) {
  const std::string sparse_blob = encode_checkpoint(sample_checkpoint<double>());
  FactorCheckpoint<double> dense_back;
  EXPECT_EQ(decode_checkpoint<double>(sparse_blob, dense_back),
            CheckpointStatus::kMalformed);

  FactorCheckpoint<double> dense;
  dense.algorithm = "GEM";
  dense.matrix = Matrix<double>(2, 2);
  dense.matrix(0, 0) = 1.0;
  const std::string dense_blob = encode_checkpoint(dense);
  SparseCheckpoint<double> sparse_back;
  EXPECT_EQ(decode_storage_checkpoint(dense_blob, sparse_back),
            CheckpointStatus::kMalformed);

  SparseCheckpoint<Float53> other_field;
  EXPECT_EQ(decode_storage_checkpoint(sparse_blob, other_field),
            CheckpointStatus::kMalformed);
}

// ---------------------------------------------------------------------------
// CRC-valid structural damage: blobs whose header and CRC verify but whose
// CSR arrays are not canonical. These cannot be produced by the encoder, so
// they are hand-assembled with the same ByteWriter the codec uses.
// ---------------------------------------------------------------------------

struct SparsePayload {
  std::uint64_t rows = 3;
  std::uint64_t cols = 4;
  std::uint64_t nnz = 2;
  std::vector<std::uint64_t> row_ptr = {0, 1, 2, 2};
  std::vector<std::uint64_t> col_idx = {0, 1};
  std::vector<double> values = {1.0, 2.0};
  std::string algorithm = "GEM";
  std::uint32_t strategy = 0;
  std::uint64_t next_step = 1;
  bool has_perm = false;
  std::vector<std::uint64_t> perm;
  std::vector<factor::PivotEvent> trace;
};

// Field by field, each entry as two ByteWriter::put_u64 calls (column, then
// the value's bits): the per-field loop that the codec's one-pass double
// path must match byte for byte.
std::string assemble_blob(const SparsePayload& p) {
  detail::ByteWriter w;
  w.put_string(p.algorithm);
  w.put_string(sparse_field_tag<double>());
  w.put_u32(p.strategy);
  w.put_u64(p.next_step);
  w.put_u64(p.rows);
  w.put_u64(p.cols);
  w.put_u64(p.nnz);
  for (const std::uint64_t r : p.row_ptr) w.put_u64(r);
  for (std::size_t i = 0; i < p.col_idx.size(); ++i) {
    w.put_u64(p.col_idx[i]);
    detail::ScalarCodec<double>::encode(w, p.values[i]);
  }
  w.put_u8(p.has_perm ? 1 : 0);
  if (p.has_perm) {
    w.put_u64(p.perm.size());
    for (const std::uint64_t to : p.perm) w.put_u64(to);
  }
  w.put_u64(p.trace.size());
  for (const factor::PivotEvent& e : p.trace) {
    w.put_u64(e.column);
    w.put_u64(e.pivot_pos);
    w.put_u64(e.pivot_row);
    w.put_u32(static_cast<std::uint32_t>(e.action));
  }
  const std::string body = w.take();
  detail::ByteWriter header;
  header.put_u32(kCheckpointMagic);
  header.put_u32(kCheckpointVersion);
  header.put_u64(body.size());
  header.put_u32(crc32(body.data(), body.size()));
  return header.take() + body;
}

TEST(SparseCheckpointRejection, HandAssembledCanonicalBlobDecodes) {
  // The baseline: the hand-assembled layout matches the real codec, so the
  // structural-damage cases below fail for the structural reason and not an
  // assembly artifact.
  SparseCheckpoint<double> back;
  ASSERT_EQ(decode_storage_checkpoint(assemble_blob(SparsePayload{}), back),
            CheckpointStatus::kOk);
  EXPECT_EQ(back.matrix.rows(), 3u);
  EXPECT_EQ(back.matrix.get(0, 0), 1.0);
  EXPECT_EQ(back.matrix.get(1, 1), 2.0);
}

TEST(SparseCheckpointRejection, CrcValidCsrViolationsAreMalformed) {
  const auto expect_malformed = [](SparsePayload p, const std::string& what) {
    SparseCheckpoint<double> back;
    EXPECT_EQ(decode_storage_checkpoint(assemble_blob(p), back),
              CheckpointStatus::kMalformed)
        << what;
  };
  {
    SparsePayload p;
    p.row_ptr = {0, 2, 1, 2};  // non-monotone row pointers
    expect_malformed(p, "non-monotone row_ptr");
  }
  {
    SparsePayload p;
    p.row_ptr = {0, 1, 2, 1};  // row_ptr.back() != nnz
    expect_malformed(p, "row_ptr tail disagrees with nnz");
  }
  {
    SparsePayload p;
    p.nnz = 3;  // declared nnz exceeds the arrays the row_ptr describes
    expect_malformed(p, "nnz overdeclared");
  }
  {
    SparsePayload p;
    p.col_idx = {0, 4};  // column out of range (cols == 4)
    expect_malformed(p, "column out of range");
  }
  {
    SparsePayload p;
    p.rows = 2;
    p.row_ptr = {0, 2, 2};
    p.col_idx = {1, 0};  // columns not increasing within row 0
    expect_malformed(p, "unsorted columns");
  }
  {
    SparsePayload p;
    p.rows = 2;
    p.row_ptr = {0, 2, 2};
    p.col_idx = {1, 1};  // duplicate column within row 0
    expect_malformed(p, "duplicate column");
  }
  {
    SparsePayload p;
    p.values = {1.0, 0.0};  // stored exact zero
    expect_malformed(p, "stored zero");
  }
}

// A checkpoint's fields as assemble_blob takes them.
SparsePayload payload_of(const SparseCheckpoint<double>& c) {
  SparsePayload p;
  p.rows = c.matrix.rows();
  p.cols = c.matrix.cols();
  p.nnz = c.matrix.nnz();
  p.row_ptr = {0};
  p.col_idx.clear();
  p.values.clear();
  for (std::size_t i = 0; i < c.matrix.rows(); ++i) {
    for (const auto& e : c.matrix.row(i)) {
      p.col_idx.push_back(e.col);
      p.values.push_back(e.value);
    }
    p.row_ptr.push_back(p.col_idx.size());
  }
  p.algorithm = c.algorithm;
  p.strategy = c.strategy;
  p.next_step = c.next_step;
  p.has_perm = c.has_perm;
  if (c.has_perm)
    for (std::size_t i = 0; i < c.perm.size(); ++i) p.perm.push_back(c.perm[i]);
  p.trace = c.trace.events();
  return p;
}

TEST(SparseCheckpointBytes, OnePassEncoderWritesThePerFieldBytes) {
  const auto dense_with = [](std::size_t rows, std::size_t cols,
                             std::size_t stride) {
    Matrix<double> m(rows, cols);
    std::size_t k = 0;
    for (std::size_t i = 0; i < rows; ++i)
      for (std::size_t j = 0; j < cols; ++j, ++k)
        if (k % stride == 0) m(i, j) = (k % 2 == 0 ? -1.0 : 1.0) * (0.1 + k);
    return SparseMatrix<double>::from_dense(m);
  };
  Matrix<double> gaps(5, 3);  // rows 0, 2 and 4 stay empty
  gaps(1, 0) = 4.9e-324;      // the smallest subnormal
  gaps(1, 2) = -1.0 / 3.0;
  gaps(3, 1) = 1e300;

  const std::map<std::string, SparseMatrix<double>> cases = {
      {"0x0", SparseMatrix<double>()},
      {"empty rows", SparseMatrix<double>::from_dense(gaps)},
      {"wide", dense_with(2, 61, 3)},
      {"tall", dense_with(61, 2, 3)},
      {"all zero", SparseMatrix<double>(6, 4)},
      {"full", dense_with(7, 7, 1)},
  };
  for (const auto& [name, matrix] : cases) {
    SparseCheckpoint<double> c = sample_checkpoint<double>();
    c.matrix = matrix;
    c.has_perm = matrix.rows() != 0;
    c.perm = Permutation(matrix.rows());
    EXPECT_EQ(encode_checkpoint(c), assemble_blob(payload_of(c))) << name;
  }
}

// A GEM reduction matrix mid-elimination, from a real sparse run's own
// checkpoint: the blob the run saved, its decode re-encoded, and the
// per-field encoding of that decode are the same bytes.
TEST(SparseCheckpointBytes, MidEliminationGemCheckpointIsThePerFieldBytes) {
  ReductionTask task;
  task.algorithm = Algorithm::kGem;
  task.backend = Backend::kSparse;
  task.instance = circuit::CvpInstance{circuit::random_circuit(4, 24, 7),
                                       {true, false, true, true}};
  CheckpointStore store;
  CheckpointConfig ckpt;
  ckpt.every = 4;
  ckpt.store = &store;
  const RunReport rep = run_on_substrate(task, Substrate::kDouble, {}, {},
                                         ckpt);
  ASSERT_EQ(rep.diagnostic, Diagnostic::kOk) << rep.detail;
  const std::map<std::uint64_t, std::string> blobs = store.blobs();
  ASSERT_GE(blobs.size(), 3u);
  const std::string& mid = std::next(blobs.begin(), blobs.size() / 2)->second;

  SparseCheckpoint<double> c;
  ASSERT_EQ(decode_storage_checkpoint(mid, c), CheckpointStatus::kOk);
  EXPECT_GT(c.next_step, 0u);
  EXPECT_GT(c.matrix.nnz(), c.matrix.rows());
  EXPECT_EQ(encode_checkpoint(c), mid);
  EXPECT_EQ(assemble_blob(payload_of(c)), mid);
}

}  // namespace
}  // namespace pfact::robustness
