#include "shard/merge.h"

#include <algorithm>
#include <unordered_map>

namespace hk {
namespace {

// Each list is already in report order, so the merged report takes the
// best head among the lists, k times: O(k * lists), no sort.
std::vector<FlowCount> MergeRanked(const std::vector<std::vector<FlowCount>>& lists, size_t k) {
  size_t total = 0;
  for (const auto& list : lists) {
    total += list.size();
  }
  std::vector<FlowCount> merged;
  merged.reserve(std::min(k, total));
  std::vector<size_t> next(lists.size(), 0);
  while (merged.size() < k) {
    const FlowCount* best = nullptr;
    size_t from = 0;
    for (size_t i = 0; i < lists.size(); ++i) {
      if (next[i] < lists[i].size() &&
          (best == nullptr || RanksBefore(lists[i][next[i]], *best))) {
        best = &lists[i][next[i]];
        from = i;
      }
    }
    if (best == nullptr) {
      break;
    }
    merged.push_back(*best);
    ++next[from];
  }
  return merged;
}

}  // namespace

std::vector<FlowCount> MergeTopK(const std::vector<std::vector<FlowCount>>& per_shard, size_t k,
                                 MergeMode mode) {
  if (mode == MergeMode::kDisjoint) {
    return MergeRanked(per_shard, k);
  }
  // Overlapping inputs (per-epoch reports of one stream): estimates for
  // the same flow accumulate across lists before ranking.
  std::unordered_map<FlowId, uint64_t> sums;
  for (const auto& list : per_shard) {
    for (const FlowCount& fc : list) {
      sums[fc.id] += fc.count;
    }
  }
  std::vector<FlowCount> merged;
  merged.reserve(sums.size());
  for (const auto& [id, count] : sums) {
    merged.push_back({id, count});
  }
  RankTopK(merged, k);
  return merged;
}

}  // namespace hk
