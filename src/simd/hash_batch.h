// Batched HashBytes for fixed-width keys (PcapReader::NextBatch's id
// derivation). The pcap replay path hashes one small key per packet - 13 bytes
// for a five-tuple, 8 for an address pair, 4 for src-only - and the scalar
// xxHash64-style construction is pure 64-bit multiply/rotate chains, so
// four keys vectorize cleanly per AVX2 iteration.
//
// Layout contract: keys are packed into fixed kHashBatchStride-byte slots
// (one per record, zero padding irrelevant - only the first `len` bytes
// are hashed), `len` is uniform across the batch and <= the stride. Every
// out[i] is bit-identical to HashBytes(keys + i * stride, len, seed).
#ifndef HK_SIMD_HASH_BATCH_H_
#define HK_SIMD_HASH_BATCH_H_

#include <cstddef>
#include <cstdint>

#include "simd/simd.h"

namespace hk {
namespace simd {

inline constexpr size_t kHashBatchStride = 16;

// out[i] = HashBytes(keys + i * kHashBatchStride, len, seed) for i < n.
// Dispatches on `kernel`; the scalar kernel (and any batch tail) runs the
// common/hash.cpp implementation directly.
void HashBytesBatch(SimdKernel kernel, const uint8_t* keys, size_t n, size_t len,
                    uint64_t seed, uint64_t* out);

#if defined(__x86_64__) || defined(_M_X64)
// Returns the number of slots handled (a multiple of 4; the caller hashes
// the tail scalar). Requires len <= kHashBatchStride.
size_t HashBytesBatchAvx2(const uint8_t* keys, size_t n, size_t len, uint64_t seed,
                          uint64_t* out);
#endif

}  // namespace simd
}  // namespace hk

#endif  // HK_SIMD_HASH_BATCH_H_
