#include "summary/min_heap.h"

#include <cassert>

namespace hk {

IndexedMinHeap::IndexedMinHeap(size_t capacity) : capacity_(capacity) {
  heap_.reserve(capacity);
  pos_.reserve(capacity);
}

uint64_t IndexedMinHeap::Value(FlowId id) const {
  const auto it = pos_.find(id);
  return it == pos_.end() ? 0 : heap_[it->second].count;
}

void IndexedMinHeap::Insert(FlowId id, uint64_t count) {
  assert(!Contains(id) && !Full());
  heap_.push_back({id, count});
  pos_[id] = heap_.size() - 1;
  SiftUp(heap_.size() - 1);
}

void IndexedMinHeap::ReplaceMin(FlowId id, uint64_t count) {
  assert(!Contains(id) && !heap_.empty());
  pos_.erase(heap_[0].id);
  heap_[0] = {id, count};
  pos_[id] = 0;
  SiftDown(0);
}

void IndexedMinHeap::RaiseCount(FlowId id, uint64_t count) {
  const auto it = pos_.find(id);
  assert(it != pos_.end());
  const size_t i = it->second;
  if (heap_[i].count >= count) {
    return;
  }
  heap_[i].count = count;
  SiftDown(i);  // the value grew, so it can only move toward the leaves
}

std::vector<FlowCount> IndexedMinHeap::TopK(size_t k) const {
  std::vector<FlowCount> all = heap_;
  RankTopK(all, k);
  return all;
}

void IndexedMinHeap::Place(size_t i, const FlowCount& e) {
  heap_[i] = e;
  pos_[e.id] = i;
}

void IndexedMinHeap::SiftUp(size_t i) {
  const FlowCount e = heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (heap_[parent].count <= e.count) {
      break;
    }
    Place(i, heap_[parent]);
    i = parent;
  }
  Place(i, e);
}

void IndexedMinHeap::SiftDown(size_t i) {
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
    Place(i, heap_[child]);
    i = child;
  }
  Place(i, e);
}

}  // namespace hk
