// Checkpoint format tests: both CRC32 kernels against the bitwise
// definition, lossless per-field round-trips, and the rejection guarantee —
// a truncated blob, a bit flip at ANY byte offset, a version skew, or a
// field-tag mismatch is always refused with a specific CheckpointStatus,
// never parsed into a resumable state.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "factor/pivot_trace.h"
#include "matrix/matrix.h"
#include "matrix/sparse.h"
#include "numeric/rational.h"
#include "numeric/softfloat.h"
#include "robustness/checkpoint.h"
#include "robustness/crc32_kernels.h"

namespace pfact::robustness {
namespace {

using numeric::Float53;
using numeric::Rational;

using Crc32Kernel = std::uint32_t (*)(const void*, std::size_t);

TEST(Crc32, MatchesTheIeeeReferenceVector) {
  // The canonical CRC-32/ISO-HDLC check value, through the dispatched
  // crc32() and through the portable kernel directly.
  for (const Crc32Kernel kernel : {crc32, detail::crc32_slicing8}) {
    EXPECT_EQ(kernel("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(kernel("", 0), 0x00000000u);
  }
}

// The CRC register after `len` more bytes, one bit at a time: the
// definition of CRC-32/ISO-HDLC (reflected 0xEDB88320), with no tables.
std::uint32_t bitwise_update(std::uint32_t c, const unsigned char* p,
                             std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) != 0 ? (c >> 1) ^ 0xEDB88320u : c >> 1;
  }
  return c;
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<unsigned char> out(n);
  for (unsigned char& b : out) b = static_cast<unsigned char>(rng());
  return out;
}

// Every length 0..1024 at every offset 0..15 (the folded kernel's 64-byte
// loop, its 16-byte blocks and its table tail, at every alignment), then
// 1 MiB and a few odd sizes.
void expect_matches_bitwise(Crc32Kernel kernel) {
  const std::vector<unsigned char> buf = random_bytes(1024 + 16, 1);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    const unsigned char* p = buf.data() + offset;
    std::uint32_t reg = 0xFFFFFFFFu;  // bitwise register after `len` bytes
    for (std::size_t len = 0; len <= 1024; ++len) {
      ASSERT_EQ(kernel(p, len), ~reg)
          << "offset " << offset << ", length " << len;
      if (len < 1024) reg = bitwise_update(reg, p + len, 1);
    }
  }
  const std::vector<unsigned char> big = random_bytes((1u << 20) + 16, 2);
  for (const std::size_t len :
       {std::size_t{1} << 20, std::size_t{(1u << 20) - 1}, std::size_t{4099},
        std::size_t{65537}, std::size_t{100003}}) {
    for (const std::size_t offset : {0, 5}) {
      const unsigned char* p = big.data() + offset;
      EXPECT_EQ(kernel(p, len), ~bitwise_update(0xFFFFFFFFu, p, len))
          << "offset " << offset << ", length " << len;
    }
  }
}

TEST(Crc32Kernels, SlicingBy8MatchesTheBitwiseDefinition) {
  expect_matches_bitwise(detail::crc32_slicing8);
}

TEST(Crc32Kernels, FoldedMatchesTheBitwiseDefinition) {
#if PFACT_CRC32_HAVE_FOLDED
  if (!detail::crc32_folded_supported())
    GTEST_SKIP() << "this CPU lacks PCLMULQDQ or SSE4.1";
  EXPECT_EQ(detail::crc32_folded("123456789", 9), 0xCBF43926u);
  expect_matches_bitwise(detail::crc32_folded);
#else
  GTEST_SKIP() << "the folded kernel is built for x86-64 only";
#endif
}

TEST(Crc32Kernels, DispatchedCrcMatchesTheBitwiseDefinition) {
  expect_matches_bitwise(crc32);
}

template <class T>
FactorCheckpoint<T> sample_checkpoint() {
  FactorCheckpoint<T> c;
  c.algorithm = "GEM";
  c.strategy = 1;
  c.next_step = 2;
  c.matrix = Matrix<T>(3, 4);
  c.matrix(0, 0) = T(1);
  c.matrix(0, 3) = T(-1);
  c.matrix(1, 1) = T(2);
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
void expect_roundtrip(const FactorCheckpoint<T>& c) {
  const std::string blob = encode_checkpoint(c);
  FactorCheckpoint<T> back;
  ASSERT_EQ(decode_checkpoint<T>(blob, back), CheckpointStatus::kOk);
  EXPECT_EQ(back.algorithm, c.algorithm);
  EXPECT_EQ(back.strategy, c.strategy);
  EXPECT_EQ(back.next_step, c.next_step);
  ASSERT_EQ(back.matrix.rows(), c.matrix.rows());
  ASSERT_EQ(back.matrix.cols(), c.matrix.cols());
  for (std::size_t i = 0; i < c.matrix.rows(); ++i)
    for (std::size_t j = 0; j < c.matrix.cols(); ++j)
      EXPECT_TRUE(back.matrix(i, j) == c.matrix(i, j))
          << "entry (" << i << "," << j << ")";
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

TEST(CheckpointRoundTrip, DoubleIsBitExact) {
  auto c = sample_checkpoint<double>();
  c.matrix(1, 2) = 0.1;  // not exactly representable: bit pattern must survive
  expect_roundtrip(c);
}

TEST(CheckpointRoundTrip, LongDoubleIsBitExact) {
  auto c = sample_checkpoint<long double>();
  c.matrix(1, 2) = 1.0L / 3.0L;
  c.matrix(2, 0) = -7.25L;
  expect_roundtrip(c);
}

TEST(CheckpointRoundTrip, SoftFloat53IsBitExact) {
  auto c = sample_checkpoint<Float53>();
  c.matrix(1, 2) = Float53(0.1);
  expect_roundtrip(c);
}

TEST(CheckpointRoundTrip, RationalIsExact) {
  auto c = sample_checkpoint<Rational>();
  c.matrix(1, 2) = Rational(22, 7);
  c.matrix(2, 0) = Rational(-5, 3);
  expect_roundtrip(c);
}

TEST(CheckpointRejection, EveryTruncationIsRefused) {
  const std::string blob = encode_checkpoint(sample_checkpoint<double>());
  for (std::size_t len = 0; len < blob.size(); ++len) {
    FactorCheckpoint<double> back;
    const CheckpointStatus s =
        decode_checkpoint<double>(std::string_view(blob.data(), len), back);
    ASSERT_NE(s, CheckpointStatus::kOk) << "accepted at length " << len;
    EXPECT_EQ(s, CheckpointStatus::kTruncated) << "at length " << len;
  }
}

TEST(CheckpointRejection, EveryBitFlipIsRefused) {
  const std::string blob = encode_checkpoint(sample_checkpoint<double>());
  for (std::size_t at = 0; at < blob.size(); ++at) {
    for (int bit : {0, 4, 7}) {
      std::string bad = blob;
      bad[at] = static_cast<char>(bad[at] ^ (1 << bit));
      FactorCheckpoint<double> back;
      ASSERT_NE(decode_checkpoint<double>(bad, back), CheckpointStatus::kOk)
          << "accepted flip of bit " << bit << " at byte " << at;
    }
  }
}

TEST(CheckpointRejection, VersionSkewIsNamed) {
  std::string blob = encode_checkpoint(sample_checkpoint<double>());
  blob[4] = static_cast<char>(kCheckpointVersion + 1);  // version u32, LE
  FactorCheckpoint<double> back;
  EXPECT_EQ(decode_checkpoint<double>(blob, back),
            CheckpointStatus::kBadVersion);
}

TEST(CheckpointRejection, ForeignBytesAreBadMagic) {
  FactorCheckpoint<double> back;
  EXPECT_EQ(decode_checkpoint<double>("this is not a checkpoint blob!", back),
            CheckpointStatus::kBadMagic);
}

TEST(CheckpointRejection, FieldTagMismatchIsMalformed) {
  const std::string blob = encode_checkpoint(sample_checkpoint<double>());
  FactorCheckpoint<Float53> back;
  EXPECT_EQ(decode_checkpoint<Float53>(blob, back),
            CheckpointStatus::kMalformed);
}

TEST(CheckpointRejection, TrailingGarbageIsMalformed) {
  std::string blob = encode_checkpoint(sample_checkpoint<double>());
  // Extend the PAYLOAD (and fix up length+crc) so the reader finishes with
  // bytes left over: self-consistent header, inconsistent content.
  std::string body = blob.substr(kCheckpointHeaderBytes);
  body += '\0';
  detail::ByteWriter header;
  header.put_u32(kCheckpointMagic);
  header.put_u32(kCheckpointVersion);
  header.put_u64(body.size());
  header.put_u32(crc32(body.data(), body.size()));
  FactorCheckpoint<double> back;
  EXPECT_EQ(decode_checkpoint<double>(header.take() + body, back),
            CheckpointStatus::kMalformed);
}

TEST(CheckpointStore, KeepsLatestAndDropsOnDemand) {
  CheckpointStore store;
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.latest(), std::nullopt);
  store.put(2, "aa");
  store.put(6, "bbbb");
  store.put(4, "ccc");
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.latest_step(), 6u);
  EXPECT_EQ(*store.latest(), "bbbb");
  EXPECT_EQ(store.total_bytes(), 9u);
  store.drop_latest();
  EXPECT_EQ(store.latest_step(), 4u);
  EXPECT_EQ(*store.latest(), "ccc");
  store.clear();
  EXPECT_TRUE(store.empty());
}

// Regression: drop_latest on an EMPTY store must be a classified no-op
// (false, nothing touched), not UB. The resilient drivers call it
// unconditionally after a kCheckpointCorrupt attempt, and the corrupt blob
// may never have been stored at all (e.g. a worker rejected its seed blob
// before saving anything).
TEST(CheckpointStore, DropLatestOnEmptyStoreIsAClassifiedNoOp) {
  CheckpointStore store;
  EXPECT_FALSE(store.drop_latest());
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.latest(), std::nullopt);

  store.put(3, "xyz");
  EXPECT_TRUE(store.drop_latest());   // the real drop reports true...
  EXPECT_FALSE(store.drop_latest());  // ...and draining past empty is safe
  EXPECT_FALSE(store.drop_latest());
  EXPECT_TRUE(store.empty());
  // The store stays fully usable after the no-op drops.
  store.put(5, "ok");
  EXPECT_EQ(store.latest_step(), 5u);
}

// The envelope check (field-agnostic header+CRC validation, used by the
// serve/ supervisor on pipe frames) and the full decoder give the same
// verdict on every damaged blob, dense and sparse: truncations, foreign
// bytes, a flipped payload byte, bytes after the declared payload, and a
// declared length so large that header + length wraps around.
TEST(CheckpointEnvelope, AgreesWithTheFullDecoderOnDamage) {
  using SparseCheckpoint = StorageCheckpoint<sparse::SparseMatrix<double>>;
  const auto with_length = [](std::string blob, std::uint64_t length) {
    for (int i = 0; i < 8; ++i)
      blob[8 + i] = static_cast<char>(length >> (8 * i));
    return blob;
  };
  const auto expect_both = [](const std::string& blob, bool sparse,
                              CheckpointStatus want, const char* what) {
    EXPECT_EQ(validate_checkpoint_envelope(blob), want) << what;
    if (sparse) {
      SparseCheckpoint back;
      EXPECT_EQ(decode_storage_checkpoint(blob, back), want) << what;
    } else {
      FactorCheckpoint<double> back;
      EXPECT_EQ(decode_checkpoint<double>(blob, back), want) << what;
    }
  };

  const FactorCheckpoint<double> dense = sample_checkpoint<double>();
  SparseCheckpoint sparse;
  sparse.algorithm = dense.algorithm;
  sparse.next_step = dense.next_step;
  sparse.matrix = sparse::SparseMatrix<double>::from_dense(dense.matrix);
  for (const bool is_sparse : {false, true}) {
    const std::string good =
        is_sparse ? encode_checkpoint(sparse) : encode_checkpoint(dense);
    std::string flipped = good;
    flipped[good.size() - 1] =
        static_cast<char>(flipped[good.size() - 1] ^ 0x40);
    expect_both(good, is_sparse, CheckpointStatus::kOk, "intact");
    expect_both(good.substr(0, good.size() / 2), is_sparse,
                CheckpointStatus::kTruncated, "half");
    expect_both(good.substr(0, kCheckpointHeaderBytes - 1), is_sparse,
                CheckpointStatus::kTruncated, "header - 1");
    expect_both(std::string(64, 'x'), is_sparse, CheckpointStatus::kBadMagic,
                "foreign");
    expect_both(flipped, is_sparse, CheckpointStatus::kCrcMismatch,
                "flipped");
    expect_both(good + "tail", is_sparse, CheckpointStatus::kMalformed,
                "tail");
    expect_both(good + std::string(1, '\0'), is_sparse,
                CheckpointStatus::kMalformed, "one byte after");
    for (const std::uint64_t back_off : {1u, 8u, 19u, 20u, 21u}) {
      expect_both(with_length(good, ~std::uint64_t{0} - back_off + 1),
                  is_sparse, CheckpointStatus::kTruncated, "wrapping length");
    }
    expect_both(with_length(good, good.size() - kCheckpointHeaderBytes + 1),
                is_sparse, CheckpointStatus::kTruncated, "length + 1");
  }
}

TEST(CheckpointFiles, RoundTripPreservesBinaryBlobs) {
  const std::string blob = encode_checkpoint(sample_checkpoint<double>());
  const std::string path =
      testing::TempDir() + "/pfact_checkpoint_roundtrip.ckpt";
  ASSERT_TRUE(write_checkpoint_file(path, blob));
  std::string back;
  ASSERT_TRUE(read_checkpoint_file(path, back));
  EXPECT_EQ(back, blob);
  std::remove(path.c_str());
  EXPECT_FALSE(read_checkpoint_file(path, back));
}

}  // namespace
}  // namespace pfact::robustness
