#include "summary/stream_summary.h"

#include <algorithm>
#include <cassert>

namespace hk {

StreamSummary::StreamSummary(size_t capacity) : capacity_(capacity) {
  items_.reserve(capacity);
  groups_.reserve(std::min<size_t>(capacity, 1024));
  index_.reserve(capacity);
}

uint64_t StreamSummary::Count(FlowId id) const {
  const auto it = index_.find(id);
  if (it == index_.end()) {
    return 0;
  }
  return groups_[items_[it->second].group].count;
}

uint64_t StreamSummary::Error(FlowId id) const {
  const auto it = index_.find(id);
  if (it == index_.end()) {
    return 0;
  }
  return items_[it->second].error;
}

uint64_t StreamSummary::MinCount() const {
  if (head_group_ < 0) {
    return 0;
  }
  return groups_[head_group_].count;
}

FlowId StreamSummary::SpaceSavingUpdate(FlowId id) {
  if (Contains(id)) {
    Increment(id);
    return 0;
  }
  if (!Full()) {
    Insert(id, 1, 0);
    return 0;
  }
  const Entry victim = PopMin();
  Insert(id, victim.count + 1, victim.count);
  return victim.id;
}

FlowId StreamSummary::SpaceSavingUpdate(FlowId id, uint64_t weight) {
  if (weight == 0) {
    return 0;
  }
  if (Contains(id)) {
    RaiseCount(id, Count(id) + weight);
    return 0;
  }
  if (!Full()) {
    Insert(id, weight, 0);
    return 0;
  }
  const Entry victim = PopMin();
  Insert(id, victim.count + weight, victim.count);
  return victim.id;
}

void StreamSummary::Increment(FlowId id) {
  const auto it = index_.find(id);
  assert(it != index_.end());
  const int32_t item = it->second;
  const int32_t group = items_[item].group;
  const uint64_t new_count = groups_[group].count + 1;
  DetachItem(item);
  AttachWithCount(item, new_count, group >= 0 && groups_[group].first >= 0 ? group : -1);
}

void StreamSummary::Insert(FlowId id, uint64_t count, uint64_t error) {
  assert(!Contains(id) && !Full());
  const int32_t item = AllocItem();
  items_[item].id = id;
  items_[item].error = error;
  index_.emplace(id, item);
  AttachWithCount(item, count, -1);
}

void StreamSummary::RaiseCount(FlowId id, uint64_t count) {
  const auto it = index_.find(id);
  assert(it != index_.end());
  const int32_t item = it->second;
  const int32_t group = items_[item].group;
  if (groups_[group].count >= count) {
    return;
  }
  DetachItem(item);
  AttachWithCount(item, count, group >= 0 && groups_[group].first >= 0 ? group : -1);
}

void StreamSummary::Remove(FlowId id) {
  const auto it = index_.find(id);
  assert(it != index_.end());
  const int32_t item = it->second;
  DetachItem(item);
  index_.erase(it);
  FreeItem(item);
}

StreamSummary::Entry StreamSummary::PopMin() {
  assert(head_group_ >= 0);
  const int32_t item = groups_[head_group_].first;
  Entry entry{items_[item].id, groups_[head_group_].count, items_[item].error};
  DetachItem(item);
  index_.erase(entry.id);
  FreeItem(item);
  return entry;
}

std::vector<StreamSummary::Entry> StreamSummary::Entries() const {
  std::vector<Entry> out;
  out.reserve(size());
  for (int32_t g = head_group_; g >= 0; g = groups_[g].next) {
    for (int32_t i = groups_[g].first; i >= 0; i = items_[i].next) {
      out.push_back({items_[i].id, groups_[g].count, items_[i].error});
    }
  }
  return out;
}

std::vector<StreamSummary::Entry> StreamSummary::TopK(size_t k) const {
  std::vector<Entry> all = Entries();
  RankTopK(all, k);
  return all;
}

int32_t StreamSummary::AllocItem() {
  if (!free_items_.empty()) {
    const int32_t idx = free_items_.back();
    free_items_.pop_back();
    return idx;
  }
  items_.emplace_back();
  return static_cast<int32_t>(items_.size() - 1);
}

int32_t StreamSummary::AllocGroup() {
  if (!free_groups_.empty()) {
    const int32_t idx = free_groups_.back();
    free_groups_.pop_back();
    return idx;
  }
  groups_.emplace_back();
  return static_cast<int32_t>(groups_.size() - 1);
}

void StreamSummary::FreeItem(int32_t idx) { free_items_.push_back(idx); }

void StreamSummary::FreeGroup(int32_t idx) { free_groups_.push_back(idx); }

void StreamSummary::DetachItem(int32_t item) {
  const int32_t group = items_[item].group;
  const int32_t prev = items_[item].prev;
  const int32_t next = items_[item].next;
  if (prev >= 0) {
    items_[prev].next = next;
  } else {
    groups_[group].first = next;
  }
  if (next >= 0) {
    items_[next].prev = prev;
  }
  items_[item].prev = items_[item].next = -1;
  items_[item].group = -1;
  if (groups_[group].first < 0) {
    // Group emptied: unlink it from the group list.
    const int32_t gp = groups_[group].prev;
    const int32_t gn = groups_[group].next;
    if (gp >= 0) {
      groups_[gp].next = gn;
    } else {
      head_group_ = gn;
    }
    if (gn >= 0) {
      groups_[gn].prev = gp;
    }
    FreeGroup(group);
  }
}

void StreamSummary::AttachWithCount(int32_t item, uint64_t count, int32_t hint) {
  // Find the first group with group.count >= count, scanning forward from
  // the hint (or the head). Note the hint group may have been freed by a
  // preceding DetachItem; callers only pass hints that are still live.
  int32_t after = -1;  // last group with count < `count`
  int32_t cur = head_group_;
  if (hint >= 0 && groups_[hint].first >= 0 && groups_[hint].count < count) {
    after = hint;
    cur = groups_[hint].next;
  }
  while (cur >= 0 && groups_[cur].count < count) {
    after = cur;
    cur = groups_[cur].next;
  }

  int32_t group;
  if (cur >= 0 && groups_[cur].count == count) {
    group = cur;
  } else {
    group = AllocGroup();
    groups_[group].count = count;
    groups_[group].first = -1;
    groups_[group].prev = after;
    groups_[group].next = cur;
    if (after >= 0) {
      groups_[after].next = group;
    } else {
      head_group_ = group;
    }
    if (cur >= 0) {
      groups_[cur].prev = group;
    }
  }

  items_[item].group = group;
  items_[item].prev = -1;
  items_[item].next = groups_[group].first;
  if (groups_[group].first >= 0) {
    items_[groups_[group].first].prev = item;
  }
  groups_[group].first = item;
}

}  // namespace hk
