#include "robustness/checkpoint.h"

#include <array>
#include <fstream>

#include "robustness/crc32_kernels.h"

#if PFACT_CRC32_HAVE_FOLDED
#include <immintrin.h>
#endif

namespace pfact::robustness {

namespace detail {

namespace {

// Slicing-by-8 tables: table[0] is the classic byte-at-a-time table;
// table[t][b] advances a byte that is t positions deeper in the 8-byte
// window.
std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t s = 1; s < 8; ++s) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[s][i] = t[0][t[s - 1][i] & 0xFFu] ^ (t[s - 1][i] >> 8);
    }
  }
  return t;
}

// Advances the CRC register `c` (no pre- or post-inversion) over `len`
// bytes, eight at a time.
std::uint32_t slicing8_update(std::uint32_t c, const unsigned char* p,
                              std::size_t len) {
  static const std::array<std::array<std::uint32_t, 256>, 8> t =
      make_crc_tables();
  while (len >= 8) {
    std::uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    if constexpr (std::endian::native == std::endian::big)
      chunk = __builtin_bswap64(chunk);
    const std::uint32_t lo = c ^ static_cast<std::uint32_t>(chunk);
    const auto hi = static_cast<std::uint32_t>(chunk >> 32);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  for (std::size_t i = 0; i < len; ++i) {
    c = t[0][(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#if PFACT_CRC32_HAVE_FOLDED
// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009) in the
// bit-reflected domain of 0xEDB88320. Each constant below is a power of x
// mod P, bit-reflected and shifted as that paper sets out.
//
// NOLINTBEGIN(portability-simd-intrinsics): a carry-less multiply has no
// std::simd spelling, and slicing8_update is the portable path beside it.

// Moves lane `a` forward by the distance the constant pair `k` encodes
// (low qword for a's low half, high qword for its high half) onto `next`.
__attribute__((target("pclmul,sse4.1"))) __m128i fold_lane(
    __m128i a, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x00),
                                     _mm_clmulepi64_si128(a, k, 0x11)),
                       next);
}

// Four 128-bit lanes fold 64 bytes per iteration; they fold into one lane,
// which takes any remaining 16-byte blocks; then 128 bits fold to 64 and a
// Barrett reduction leaves 32. Requires len >= 64 and len % 16 == 0, and
// advances the register `c` as slicing8_update does.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t fold_update(
    std::uint32_t c, const unsigned char* p, std::size_t len) {
  // x^(4*128+32) and x^(4*128-32): one lane 512 bits ahead.
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  // x^(128+32) and x^(128-32): one lane 128 bits ahead.
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  // x^64: 96 bits to 64.
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  // P (low) and the Barrett constant floor(x^64 / P) (high).
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  const auto load = [](const unsigned char* at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
  };

  __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  len -= 64;
  for (; len >= 64; p += 64, len -= 64) {
    x1 = fold_lane(x1, k1k2, load(p));
    x2 = fold_lane(x2, k1k2, load(p + 16));
    x3 = fold_lane(x3, k1k2, load(p + 32));
    x4 = fold_lane(x4, k1k2, load(p + 48));
  }
  x1 = fold_lane(x1, k3k4, x2);
  x1 = fold_lane(x1, k3k4, x3);
  x1 = fold_lane(x1, k3k4, x4);
  for (; len >= 16; p += 16, len -= 16) x1 = fold_lane(x1, k3k4, load(p));

  // 128 -> 64 bits: the low half times x^(128-32), onto the high half.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  // 96 -> 64 bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  // Barrett reduction to 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}
// NOLINTEND(portability-simd-intrinsics)
#endif

}  // namespace

std::uint32_t crc32_slicing8(const void* data, std::size_t len) {
  return ~slicing8_update(0xFFFFFFFFu, static_cast<const unsigned char*>(data),
                          len);
}

#if PFACT_CRC32_HAVE_FOLDED
bool crc32_folded_supported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

std::uint32_t crc32_folded(const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  if (len >= 64) {
    const std::size_t blocks = len & ~std::size_t{15};
    c = fold_update(c, p, blocks);
    p += blocks;
    len -= blocks;
  }
  return ~slicing8_update(c, p, len);
}
#endif

}  // namespace detail

namespace {

using Crc32Kernel = std::uint32_t (*)(const void*, std::size_t);

Crc32Kernel select_crc32_kernel() {
#if PFACT_CRC32_HAVE_FOLDED
  if (detail::crc32_folded_supported()) return detail::crc32_folded;
#endif
  return detail::crc32_slicing8;
}

}  // namespace

// Checkpoint payloads are matrix-sized and every blob is CRC-checked on
// save, on both ends of the worker pipe, and on resume, so this is on the
// save-every-k hot path. The kernel is chosen once, from CPUID.
std::uint32_t crc32(const void* data, std::size_t len) {
  static const Crc32Kernel kernel = select_crc32_kernel();
  return kernel(data, len);
}

CheckpointStatus validate_checkpoint_envelope(std::string_view blob) {
  if (blob.size() < kCheckpointHeaderBytes) return CheckpointStatus::kTruncated;
  CheckpointHeader h;
  detail::decode_fields(blob.substr(0, kCheckpointHeaderBytes), h);
  if (h.magic != kCheckpointMagic) return CheckpointStatus::kBadMagic;
  if (h.version != kCheckpointVersion) return CheckpointStatus::kBadVersion;
  // Written so that no declared length, however large, can wrap the sum.
  if (h.length > blob.size() - kCheckpointHeaderBytes)
    return CheckpointStatus::kTruncated;
  const std::string_view body = blob.substr(kCheckpointHeaderBytes, h.length);
  if (crc32(body.data(), body.size()) != h.crc)
    return CheckpointStatus::kCrcMismatch;
  if (h.length != blob.size() - kCheckpointHeaderBytes)
    return CheckpointStatus::kMalformed;  // trailing garbage after the payload
  return CheckpointStatus::kOk;
}

bool write_checkpoint_file(const std::string& path, std::string_view blob) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  return static_cast<bool>(out);
}

bool read_checkpoint_file(const std::string& path, std::string& blob) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  blob.assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return true;
}

}  // namespace pfact::robustness
