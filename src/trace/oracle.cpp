#include "trace/oracle.h"

#include <algorithm>

namespace hk {

void Oracle::AddTrace(const Trace& trace) {
  counts_.reserve(counts_.size() + trace.num_flows);
  for (const FlowId id : trace.packets) {
    ++counts_[id];
  }
  total_ += trace.packets.size();
}

uint64_t Oracle::Count(FlowId id) const {
  const auto it = counts_.find(id);
  return it == counts_.end() ? 0 : it->second;
}

std::vector<FlowCount> Oracle::TopK(size_t k) const {
  std::vector<FlowCount> all;
  all.reserve(counts_.size());
  for (const auto& [id, count] : counts_) {
    all.push_back({id, count});
  }
  RankTopK(all, k);
  return all;
}

uint64_t Oracle::KthSize(size_t k) const {
  if (k == 0 || counts_.size() < k) {
    return 0;
  }
  std::vector<uint64_t> sizes;
  sizes.reserve(counts_.size());
  for (const auto& [id, count] : counts_) {
    sizes.push_back(count);
  }
  std::nth_element(sizes.begin(), sizes.begin() + (k - 1), sizes.end(),
                   std::greater<uint64_t>());
  return sizes[k - 1];
}

}  // namespace hk
