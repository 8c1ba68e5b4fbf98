// The carry-less-multiply CRC-32 kernel behind Crc32 (common/byte_io.h).
//
// Gopal et al., "Fast CRC Computation for Generic Polynomials Using
// PCLMULQDQ Instruction" (Intel, 2009): 64-byte blocks fold into four
// 128-bit lanes with PCLMULQDQ, the lanes fold down to one, any remaining
// 16-byte blocks fold into it, and a Barrett reduction leaves the 32-bit
// CRC. The constants are the paper's for the reflected 0xEDB88320
// polynomial. The fold takes `size & ~15` bytes when size >= 64, the
// slicing-by-8 table loop (Crc32Table) the tail and short inputs, so
// every value equals Crc32Table's, chaining included.
//
// Crc32 picks the kernel once per process: the fold when
// ResolveSimdKernel(SimdMode::kAuto) is avx2 and the host reports
// PCLMULQDQ, the tables otherwise (so HK_SIMD=scalar pins the tables).
#ifndef HK_SIMD_CRC32_FOLD_H_
#define HK_SIMD_CRC32_FOLD_H_

#include <cstddef>
#include <cstdint>

namespace hk {
namespace simd {

// The shape of both kernels (Crc32Fold, and Crc32Table in common/byte_io.h).
using Crc32Kernel = uint32_t (*)(const uint8_t* data, size_t size, uint32_t seed);

// True when the host can run Crc32Fold (x86-64 with PCLMULQDQ and SSE4.1).
bool Crc32FoldAvailable();

// Crc32Table's value, computed by the fold. Call only when
// Crc32FoldAvailable().
uint32_t Crc32Fold(const uint8_t* data, size_t size, uint32_t seed = 0);

}  // namespace simd
}  // namespace hk

#endif  // HK_SIMD_CRC32_FOLD_H_
