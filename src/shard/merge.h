// Merging per-shard / per-epoch top-k reports into one global top-k.
//
// Two merge semantics live here, picked by MergeMode:
//
//   kDisjoint - the inputs partition the flow space, so every flow appears
//     in at most one list and its merged estimate is that list's estimate,
//     unchanged. This is the sharded fast path (shard/partition.h):
//     key-partitioned shards guarantee disjointness, merging never adds
//     cross-shard error, and a flow ranked r-th globally is ranked <= r-th
//     inside its shard, so it appears in the shard's list whenever the
//     shard reports >= k entries. Callers: ShardedTopK::Snapshot/TopK.
//     Feeding overlapping lists through this mode silently emits duplicate
//     flow ids (each occurrence ranked by its own estimate) - that is the
//     documented contract, not a bug; use kSumById when inputs can overlap.
//
//   kSumById - the inputs cover disjoint *slices* of the traffic (time
//     slices of one stream, or switches that forward disjoint flows), so
//     the same flow may appear in several lists and its estimate is the
//     SUM of its per-slice estimates. A flow absent from a slice's report
//     contributes 0 for that slice (the slice's sketch either never saw it
//     or ranked it below the report cutoff), so merged estimates are lower
//     bounds of a full-resolution sketch over the union. Callers:
//     WindowedTopK::Snapshot/TopK (window/windowed_topk.h), which merges
//     its ring of per-epoch reports, and the network-wide collector in
//     examples/network_collector.cpp, which sums per-switch reports.
//
// Relative to one sketch with the same *total* memory, a k-shard split
// changes the error profile in two documented ways: each shard's arrays
// are 1/N the width but see only ~1/N of the flows (collision pressure per
// bucket stays comparable), and each shard keeps its own k-entry candidate
// store, so the sharded instance spends up to (N-1) * k extra entries on
// candidates. tests/differential_test.cpp pins the resulting tolerance.
#ifndef HK_SHARD_MERGE_H_
#define HK_SHARD_MERGE_H_

#include <cstddef>
#include <vector>

#include "common/flow_key.h"

namespace hk {

enum class MergeMode {
  kDisjoint,  // inputs partition the key space; ids must not repeat
  kSumById,   // inputs may overlap; duplicate ids combine by summing
};

// Merge the per-list reports, order by (estimate desc, id asc) - the
// TopKAlgorithm reporting order - and keep the k largest. kDisjoint takes
// each list in that order, as TopK() returns it, and merges the lists
// without sorting; kSumById inputs need not be sorted. The default mode
// keeps the historical disjoint-shard semantics; see the mode contract
// above before switching.
std::vector<FlowCount> MergeTopK(const std::vector<std::vector<FlowCount>>& per_shard, size_t k,
                                 MergeMode mode = MergeMode::kDisjoint);

}  // namespace hk

#endif  // HK_SHARD_MERGE_H_
