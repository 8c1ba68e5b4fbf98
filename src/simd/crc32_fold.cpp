// PCLMULQDQ CRC-32 (see simd/crc32_fold.h) and Crc32's once-per-process
// choice between it and the tables. Compiled into every x86-64 build with
// a function-level target attribute, like kernels_avx2.cpp, and only ever
// called after cpuid reported PCLMULQDQ and SSE4.1.
#include "simd/crc32_fold.h"

#include "common/byte_io.h"
#include "simd/simd.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>

#define HK_CLMUL __attribute__((target("pclmul,sse4.1")))
#endif

namespace hk {
namespace simd {

#if defined(__x86_64__) || defined(_M_X64)

namespace {

HK_CLMUL inline __m128i Load(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// One fold step: x's low and high halves, each carry-less-multiplied by
// its distance constant in k, xored onto the next 128 bits.
HK_CLMUL inline __m128i Fold(__m128i x, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

// Folds `size` bytes (size >= 64, a multiple of 16) into the running CRC
// register `crc` (the complemented state the table loop carries) and
// returns the new register.
HK_CLMUL uint32_t FoldBlocks(const uint8_t* data, size_t size, uint32_t crc) {
  // The paper's constants, bit-reflected and shifted left by one:
  // k1, k2 = x^(4*128+32), x^(4*128-32) mod P fold a lane 512 bits on;
  // k3, k4 = x^(128+32), x^(128-32) mod P fold 128 bits on; k5 = x^64 mod
  // P; mu = x^64 / P is the Barrett quotient and 0x1db710641 is P.
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i mu_poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 = _mm_xor_si128(Load(data), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = Load(data + 16);
  __m128i x3 = Load(data + 32);
  __m128i x4 = Load(data + 48);
  data += 64;
  size -= 64;
  for (; size >= 64; data += 64, size -= 64) {
    x1 = Fold(x1, k1k2, Load(data));
    x2 = Fold(x2, k1k2, Load(data + 16));
    x3 = Fold(x3, k1k2, Load(data + 32));
    x4 = Fold(x4, k1k2, Load(data + 48));
  }
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  for (; size >= 16; data += 16, size -= 16) {
    x1 = Fold(x1, k3k4, Load(data));
  }

  // 128 -> 64 bits, then 64 -> 32 + 32, then Barrett down to 32.
  __m128i t = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), t);
  t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0x00);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4), t);
  t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), mu_poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), mu_poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

}  // namespace

bool Crc32FoldAvailable() {
  return __builtin_cpu_supports("pclmul") != 0 && __builtin_cpu_supports("sse4.1") != 0;
}

uint32_t Crc32Fold(const uint8_t* data, size_t size, uint32_t seed) {
  if (size < 64) {
    return Crc32Table(data, size, seed);
  }
  const size_t folded = size & ~size_t{15};
  const uint32_t crc = ~FoldBlocks(data, folded, ~seed);
  return Crc32Table(data + folded, size - folded, crc);
}

#else

bool Crc32FoldAvailable() { return false; }

uint32_t Crc32Fold(const uint8_t* data, size_t size, uint32_t seed) {
  return Crc32Table(data, size, seed);
}

#endif  // defined(__x86_64__) || defined(_M_X64)

}  // namespace simd

namespace {

simd::Crc32Kernel ChooseCrc32Kernel() {
  const bool vector = ResolveSimdKernel(SimdMode::kAuto) == SimdKernel::kAvx2;
  return vector && simd::Crc32FoldAvailable() ? &simd::Crc32Fold : &Crc32Table;
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t size, uint32_t seed) {
  static const simd::Crc32Kernel kernel = ChooseCrc32Kernel();
  return kernel(data, size, seed);
}

}  // namespace hk
