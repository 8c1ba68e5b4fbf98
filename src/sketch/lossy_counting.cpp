#include "sketch/lossy_counting.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/byte_io.h"
#include "sketch/registry.h"

namespace hk {

LossyCounting::LossyCounting(size_t m, size_t key_bytes)
    : capacity_(std::max<size_t>(m, 1)), key_bytes_(key_bytes) {
  entries_.reserve(capacity_ + 1);
}

std::unique_ptr<LossyCounting> LossyCounting::FromMemory(size_t bytes, size_t key_bytes) {
  const size_t m = std::max<size_t>(bytes / StreamSummary::BytesPerEntry(key_bytes), 1);
  return std::make_unique<LossyCounting>(m, key_bytes);
}

void LossyCounting::Insert(FlowId id) {
  ++processed_;
  auto it = entries_.find(id);
  if (it != entries_.end()) {
    ++it->second.count;
  } else {
    if (entries_.size() >= capacity_) {
      PruneToCapacity();
    }
    // delta upper-bounds the packets this flow may have had before being
    // admitted; the floor keeps the bound valid across capacity prunes.
    entries_.emplace(id, Entry{1, std::max(epoch_ - 1, floor_)});
  }
  if (processed_ % capacity_ == 0) {
    // Epoch boundary: advance and apply the classic prune rule.
    ++epoch_;
    PruneBelow(epoch_);
  }
}

void LossyCounting::PruneBelow(uint64_t threshold) {
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.count + it->second.delta <= threshold) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

void LossyCounting::PruneToCapacity() {
  // Find the median upper bound and discard everything at or below it; this
  // keeps the largest flows and frees ~half the table in O(m).
  std::vector<uint64_t> bounds;
  bounds.reserve(entries_.size());
  for (const auto& [id, e] : entries_) {
    bounds.push_back(e.count + e.delta);
  }
  const size_t mid = bounds.size() / 2;
  std::nth_element(bounds.begin(), bounds.begin() + mid, bounds.end());
  uint64_t threshold = bounds[mid];
  PruneBelow(threshold);
  // Degenerate case (all equal): drop everything at that bound.
  while (entries_.size() >= capacity_) {
    PruneBelow(++threshold);
  }
  floor_ = std::max(floor_, threshold);
}

std::vector<FlowCount> LossyCounting::TopK(size_t k) const {
  std::vector<FlowCount> all;
  all.reserve(entries_.size());
  for (const auto& [id, e] : entries_) {
    all.push_back({id, e.count + e.delta});
  }
  RankTopK(all, k);
  return all;
}

uint64_t LossyCounting::EstimateSize(FlowId id) const {
  const auto it = entries_.find(id);
  return it == entries_.end() ? 0 : it->second.count + it->second.delta;
}

bool LossyCounting::SaveState(std::vector<uint8_t>* out) const {
  ByteAppend(*out, static_cast<uint64_t>(capacity_));
  ByteAppend(*out, processed_);
  ByteAppend(*out, epoch_);
  ByteAppend(*out, floor_);
  ByteAppend(*out, static_cast<uint64_t>(entries_.size()));
  for (const auto& [id, e] : entries_) {
    ByteAppend(*out, id);
    ByteAppend(*out, e.count);
    ByteAppend(*out, e.delta);
  }
  return true;
}

bool LossyCounting::LoadState(const uint8_t* data, size_t size) {
  ByteReader reader(data, size);
  uint64_t capacity = 0;
  uint64_t processed = 0;
  uint64_t epoch = 0;
  uint64_t floor = 0;
  uint64_t n = 0;
  if (!reader.Read(&capacity) || capacity != capacity_ || !reader.Read(&processed) ||
      !reader.Read(&epoch) || !reader.Read(&floor) || !reader.Read(&n) || n > capacity_) {
    return false;
  }
  std::unordered_map<FlowId, Entry> entries;
  entries.reserve(capacity_ + 1);
  for (uint64_t i = 0; i < n; ++i) {
    FlowId id = 0;
    Entry e;
    if (!reader.Read(&id) || !reader.Read(&e.count) || !reader.Read(&e.delta) ||
        !entries.emplace(id, e).second) {
      return false;
    }
  }
  if (!reader.Done()) {
    return false;
  }
  processed_ = processed;
  epoch_ = epoch;
  floor_ = floor;
  entries_ = std::move(entries);
  return true;
}

HK_REGISTER_SKETCHES(LossyCounting) {
  RegisterSketch({"LC",
                  {"Lossy-Counting"},
                  {},
                  [](const SketchArgs& args) -> std::unique_ptr<TopKAlgorithm> {
                    return LossyCounting::FromMemory(args.memory_bytes(), args.key_bytes());
                  }});
}

}  // namespace hk
