// Arch-neutral dispatch for the vector kernels: core/ calls these and never
// sees an #ifdef. A kernel that is not compiled into this binary simply
// reports "not handled" and the caller runs its scalar loop.
#include "simd/hk_kernels.h"

namespace hk {
namespace simd {

bool ProbeQuery(SimdKernel kernel, const uint32_t* words, const uint32_t* idx, uint32_t fpw,
                uint32_t cmask, uint32_t* best) {
#if defined(__x86_64__) || defined(_M_X64)
  if (kernel == SimdKernel::kAvx2) {
    *best = ProbeQueryAvx2(words, idx, fpw, cmask);
    return true;
  }
#endif
  (void)kernel;
  (void)words;
  (void)idx;
  (void)fpw;
  (void)cmask;
  (void)best;
  return false;
}

size_t PrepareBatch(SimdKernel kernel, const SimdPrepareParams& params, const FlowId* ids,
                    size_t n, HeavyKeeper::Prepared* out) {
#if defined(__x86_64__) || defined(_M_X64)
  if (kernel == SimdKernel::kAvx2) {
    return PrepareBatchAvx2(params, ids, n, out);
  }
#endif
  (void)kernel;
  (void)params;
  (void)ids;
  (void)n;
  (void)out;
  return 0;
}

}  // namespace simd
}  // namespace hk
