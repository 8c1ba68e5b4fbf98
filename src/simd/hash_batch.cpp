#include "simd/hash_batch.h"

#include "common/hash.h"

namespace hk {
namespace simd {

void HashBytesBatch(SimdKernel kernel, const uint8_t* keys, size_t n, size_t len,
                    uint64_t seed, uint64_t* out) {
  size_t done = 0;
#if defined(__x86_64__) || defined(_M_X64)
  if (kernel == SimdKernel::kAvx2 && len <= kHashBatchStride) {
    done = HashBytesBatchAvx2(keys, n, len, seed, out);
  }
#endif
  (void)kernel;
  for (; done < n; ++done) {
    out[done] = HashBytes(keys + done * kHashBatchStride, len, seed);
  }
}

}  // namespace simd
}  // namespace hk
