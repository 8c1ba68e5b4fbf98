// Runtime SIMD dispatch for the HeavyKeeper hot-path kernels.
//
// Two kernels exist: a portable scalar fallback and an AVX2 path (x86-64,
// selected via cpuid at construction time). A sketch resolves its kernel
// once, when it is built:
//
//   simd=auto    - best kernel the host supports (the default). The HK_SIMD
//                  environment variable overrides *auto* resolution only
//                  (CI forces the fallback path on AVX2 runners with
//                  HK_SIMD=scalar); an explicit spec always wins.
//   simd=scalar  - portable path, always available.
//   simd=avx2    - x86 gather-compare kernels; construction throws if the
//                  host cpuid does not report AVX2.
//
// Every kernel is bit-identical to the scalar path (same hashes, same
// bucket transitions, decay coins drawn scalar in packet order), so the
// mode is a pure speed knob: it is excluded from checkpoint compatibility
// checks and a blob written under one kernel loads under any other.
// The checkpoint CRC follows the auto resolution too: Crc32 runs the
// PCLMULQDQ fold (simd/crc32_fold.h) when auto resolves to avx2, so
// HK_SIMD=scalar also pins it to its table loop.
//
// This header is dependency-free so core/ can hold a SimdMode in its config
// without a cycle; the kernels themselves live in simd/hk_kernels.h.
#ifndef HK_SIMD_SIMD_H_
#define HK_SIMD_SIMD_H_

#include <cstdint>

namespace hk {

// What the spec/config asks for.
enum class SimdMode { kAuto, kScalar, kAvx2 };

// What actually runs.
enum class SimdKernel { kScalar, kAvx2 };

// Addressing constants a batch-prepare kernel needs, extracted once from a
// sketch's hash family (core/heavykeeper.cpp refreshes this whenever the
// family changes - construction, Section III-F expansion, restore). Kept
// here rather than in simd/hk_kernels.h so core/ can cache one without an
// include cycle.
struct SimdPrepareParams {
  uint64_t fp_seed = 0;  // Fingerprinter seed
  uint32_t fp_bits = 16;
  uint32_t rows = 0;     // arrays currently addressed (<= 8)
  uint64_t w = 0;        // buckets per array (<= 2^29, see the ctor clamp)
  uint64_t mul[8] = {};  // TwoWiseHash multiplier per row (odd)
  uint64_t add[8] = {};  // TwoWiseHash addend per row
};

// True when the host can execute `kernel` (scalar: always; avx2: x86-64
// with cpuid AVX2).
bool SimdKernelAvailable(SimdKernel kernel);

// Resolve a requested mode to the kernel that will run. kAuto picks the
// best available kernel, unless the HK_SIMD environment variable names a
// valid *and available* kernel (unknown or unavailable values are ignored
// so a stale env cannot break construction). An explicit mode ignores the
// environment entirely and throws std::invalid_argument when the host
// lacks it - a spec that says avx2 must never silently run scalar.
SimdKernel ResolveSimdKernel(SimdMode mode);

// Kernel name for SnapshotStats / serve STATS ("scalar", "avx2").
const char* SimdKernelName(SimdKernel kernel);

// Spec-grammar token for a mode ("auto", "scalar", "avx2").
const char* SimdModeToken(SimdMode mode);

// Parse a spec token; returns false on unknown tokens.
bool ParseSimdMode(const char* token, SimdMode* out);

}  // namespace hk

#endif  // HK_SIMD_SIMD_H_
