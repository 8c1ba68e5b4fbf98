#include "summary/lazy_topk.h"

#include <cassert>

namespace hk {

LazyTopKStore::LazyTopKStore(size_t capacity) : capacity_(capacity), values_(capacity) {
  heap_.reserve(capacity);
  telemetry::Registry& registry = telemetry::Registry::Get();
  tm_admissions_ = registry.GetCounter("hk_store_admissions_total",
                                       "Flows admitted into a top-k candidate store",
                                       "store=\"lazy\"");
  tm_evictions_ = registry.GetCounter("hk_store_evictions_total",
                                      "Minimum flows expelled to make room for an admission",
                                      "store=\"lazy\"");
  tm_root_resyncs_ = registry.GetCounter(
      "hk_store_root_resyncs_total",
      "Lazy-heap root refreshes (stale minimum re-synced before it was trusted)",
      "store=\"lazy\"");
}

void LazyTopKStore::Insert(FlowId id, uint64_t count) {
  assert(!Contains(id) && !Full());
  values_.Insert(id, count);
  heap_.push_back({id, count});
  SiftUp(heap_.size() - 1);
  tm_admissions_->Add();
}

void LazyTopKStore::ReplaceMin(FlowId id, uint64_t count) {
  assert(!Contains(id) && !heap_.empty());
  FixRoot();  // expel the *fresh* minimum, exactly as the eager heap would
  values_.Erase(heap_[0].id);
  values_.Insert(id, count);
  heap_[0] = {id, count};
  SiftDown(0);
  // The sift may have surfaced an entry whose count was raised while it sat
  // below the root; let the next MinCount() re-verify.
  root_stale_ = true;
  tm_admissions_->Add();
  tm_evictions_->Add();
}

void LazyTopKStore::FixRoot() const {
  if (!root_stale_ || heap_.empty()) {
    return;
  }
  while (true) {
    const uint64_t fresh = *values_.Find(heap_[0].id);
    if (heap_[0].count == fresh) {
      break;
    }
    heap_[0].count = fresh;
    SiftDown(0);
    tm_root_resyncs_->Add();
  }
  root_stale_ = false;
}

std::vector<FlowCount> LazyTopKStore::TopK(size_t k) const {
  std::vector<FlowCount> all = Entries();
  RankTopK(all, k);
  return all;
}

std::vector<FlowCount> LazyTopKStore::Entries() const {
  std::vector<FlowCount> all;
  all.reserve(values_.size());
  values_.ForEach([&all](FlowId id, uint64_t count) { all.push_back({id, count}); });
  return all;
}

void LazyTopKStore::SiftUp(size_t i) {
  const FlowCount e = heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (heap_[parent].count <= e.count) {
      break;
    }
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void LazyTopKStore::SiftDown(size_t i) const {
  const FlowCount e = heap_[i];
  const size_t n = heap_.size();
  while (true) {
    size_t child = 2 * i + 1;
    if (child >= n) {
      break;
    }
    if (child + 1 < n && heap_[child + 1].count < heap_[child].count) {
      ++child;
    }
    if (heap_[child].count >= e.count) {
      break;
    }
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = e;
}

}  // namespace hk
