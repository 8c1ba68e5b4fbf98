// Vector kernels for the HeavyKeeper hot path (see simd/simd.h for the
// dispatch model). Three stages are vectorized:
//
//   1. PrepareBatch - lane-parallel seeded hashing: the fingerprint
//      (HashU64 + Mix64) and all d bucket indices (multiply-shift +
//      Lemire reduction) for 4 keys per AVX2 iteration. Exact integer
//      replication of HeavyKeeper::Prepare, so handles are bit-identical.
//   2. InsertMinimumVec / ProbeQuery - a 4-lane probe of the d = 4 mapped
//      packed words: four loads into one 128-bit register, one xor+mask
//      fingerprint test per lane, and a horizontal min (first-smallest
//      decay candidate) or max (query) instead of a 4-iteration loop.
//      Narrow (4-byte) words at exactly d = 4 only: the wide-word layout,
//      d < 4 (where the probe cannot pay for itself) and d = 5..8 or an
//      expanded sketch (which no workload runs) stay on the scalar loop,
//      which gives bit-identical results.
//   3. HashBytesBatch (simd/hash_batch.h) - the flow-id hash of
//      PcapReader::NextBatch, which feeds the TraceReplayer burst loop.
//
// Basic/Parallel inserts keep the scalar apply loop: every mapped bucket
// mutates, so the bottleneck is the d scattered *stores* (AVX2 has no
// scatter) - only the Minimum discipline's scan-then-touch-one shape gives
// the probe something to win. The Minimum kernel flips its one decay coin
// scalar, in packet order, from the caller's RNG, which is what keeps it
// bit-identical to the scalar path.
#ifndef HK_SIMD_HK_KERNELS_H_
#define HK_SIMD_HK_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "core/heavykeeper.h"
#include "simd/simd.h"

namespace hk {
namespace simd {

// What one vector Minimum insert did, so the caller can count it exactly
// as the scalar scan does: the estimate, the Situation 3 decay coin, and
// the Section III-F stuck verdict (every decay candidate beyond the
// cutoff; the caller runs NoteStuck()).
struct MinimumOutcome {
  uint32_t estimate = 0;
  bool coin = false;   // a decay coin was flipped
  bool heads = false;  // ... and came up heads (decremented or claimed)
  bool stuck = false;
};

// One-shot vector Minimum insert over the 4 mapped narrow words: probe +
// transition + coin in a single call per packet, entirely in 128-bit
// registers. `gate` is the Optimization II increment gate as a saturated
// 32-bit value (UINT32_MAX when monitored). Returns false when `kernel`
// has no vector probe (scalar, or unavailable in this build) - the caller
// runs its scalar loop. Defined below (inline, after the per-ISA
// declarations) so the dispatch branch folds into the caller and the
// packet costs exactly one call.
bool InsertMinimumVec(SimdKernel kernel, uint32_t* words, const uint32_t* idx, uint32_t fpw,
                      uint32_t cmask, uint32_t gate, uint32_t counter_max, const DecayTable& decay,
                      Rng& rng, MinimumOutcome* out);

// Vector point query over the 4 mapped narrow words: max counter among
// fingerprint-matching lanes. Same fallback contract as above.
bool ProbeQuery(SimdKernel kernel, const uint32_t* words, const uint32_t* idx, uint32_t fpw,
                uint32_t cmask, uint32_t* best);

// Lane-parallel Prepare: fills out[0..r) bit-identically to r calls of
// HeavyKeeper::Prepare and returns r, a multiple of the kernel's lane
// count (0 for the scalar kernel); the caller prepares the tail itself.
size_t PrepareBatch(SimdKernel kernel, const SimdPrepareParams& params, const FlowId* ids,
                    size_t n, HeavyKeeper::Prepared* out);

// --- per-ISA entry points (defined in kernels_<isa>.cpp) ----------------
#if defined(__x86_64__) || defined(_M_X64)
uint32_t ProbeQueryAvx2(const uint32_t* words, const uint32_t* idx, uint32_t fpw, uint32_t cmask);
MinimumOutcome InsertMinimumAvx2(uint32_t* words, const uint32_t* idx, uint32_t fpw, uint32_t cmask,
                                 uint32_t gate, uint32_t counter_max, const DecayTable& decay,
                                 Rng& rng);
size_t PrepareBatchAvx2(const SimdPrepareParams& params, const FlowId* ids, size_t n,
                        HeavyKeeper::Prepared* out);
#endif

inline bool InsertMinimumVec(SimdKernel kernel, uint32_t* words, const uint32_t* idx, uint32_t fpw,
                             uint32_t cmask, uint32_t gate, uint32_t counter_max,
                             const DecayTable& decay, Rng& rng, MinimumOutcome* out) {
#if defined(__x86_64__) || defined(_M_X64)
  if (kernel == SimdKernel::kAvx2) {
    *out = InsertMinimumAvx2(words, idx, fpw, cmask, gate, counter_max, decay, rng);
    return true;
  }
#endif
  (void)kernel;
  (void)words;
  (void)idx;
  (void)fpw;
  (void)cmask;
  (void)gate;
  (void)counter_max;
  (void)decay;
  (void)rng;
  (void)out;
  return false;
}

}  // namespace simd
}  // namespace hk

#endif  // HK_SIMD_HK_KERNELS_H_
