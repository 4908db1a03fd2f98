#pragma once
// The two CRC32 kernels behind robustness::crc32(), declared here (not in
// checkpoint.h) so the kernel tests can call each one directly. Library
// code calls crc32(), which picks a kernel once from CPUID.
//
// Both compute the same CRC-32/ISO-HDLC value (reflected polynomial
// 0xEDB88320, init and final xor 0xFFFFFFFF) as crc32():
//   * crc32_slicing8: the portable table kernel. It is the only path on
//     hosts other than x86-64 and on CPUs without PCLMULQDQ, and the
//     reference the folded kernel is tested against.
//   * crc32_folded: carry-less-multiply folding (PCLMULQDQ + SSE4.1) over
//     the 16-byte blocks of an input of 64 bytes or more; the table loop
//     finishes the tail and handles shorter inputs. Call it only when
//     crc32_folded_supported() is true.

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) && defined(__GNUC__)  // GCC and Clang
#define PFACT_CRC32_HAVE_FOLDED 1
#else
#define PFACT_CRC32_HAVE_FOLDED 0
#endif

namespace pfact::robustness::detail {

std::uint32_t crc32_slicing8(const void* data, std::size_t len);

#if PFACT_CRC32_HAVE_FOLDED
// True when this CPU has PCLMULQDQ and SSE4.1 (read from CPUID).
bool crc32_folded_supported();
std::uint32_t crc32_folded(const void* data, std::size_t len);
#endif

}  // namespace pfact::robustness::detail
