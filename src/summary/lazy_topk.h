// Lazy-threshold top-k candidate store.
//
// The HeavyKeeper pipelines query the store on every packet (Step 1 of both
// insertion algorithms: "is flow fi monitored?") and raise a monitored
// flow's count on most of them. An eagerly maintained min-heap pays a hash
// lookup plus an O(log k) sift for every raise, even though the only value
// the algorithms ever need from the heap is nmin - and nmin moves only when
// the *minimum* flow's count changes or a new flow is admitted.
//
// LazyTopKStore keeps the authoritative counts in a flat hash map and lets
// the heap go stale: Raise() is a compare-and-store (the monitored fast
// path touches no heap node), and heap entries are re-synced top-down only
// when the root might be stale (classic lazy-deletion heap). Every
// observable value - Contains, Value, MinCount, admission decisions, TopK
// counts - is exactly what the eager IndexedMinHeap would produce, because:
//   * raising a non-minimum flow can never lower nmin (counts only grow),
//   * the heap is ordered by stale counts, each a lower bound of the fresh
//     count, so once the root's stale count equals its fresh count it is a
//     true minimum over all fresh counts.
// The one divergence is the eviction tie-break: when several entries share
// the minimum count, ReplaceMin may expel a different (equally valid)
// victim than the eager heap, whose internal order depends on its sift
// history. The pipelines swap it in as the default Store with reports
// identical up to those tie-breaks (the differential harness holds across
// the swap, and same-seed runs of the same store remain bit-deterministic).
//
// Find()/Raise() expose the compare-only fast path: one open-addressing
// lookup (FlowSlotMap below) yields the slot pointer, and Raise writes
// through it, flagging the root dirty only when the raised flow *is* the
// root. The generic RaiseCount() keeps the duck-typed store API used by the
// ablation benches.
#ifndef HK_SUMMARY_LAZY_TOPK_H_
#define HK_SUMMARY_LAZY_TOPK_H_

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/flow_key.h"
#include "common/hash.h"
#include "common/slab.h"
#include "telemetry/telemetry.h"

namespace hk {

// Fixed-capacity open-addressing map FlowId -> count backing the lazy
// store's membership check: one Mix64, one masked probe start, and a short
// linear scan in a power-of-2 slab kept at most half full - several times
// cheaper than the node-based unordered_map it replaces on the per-packet
// path. Deletion backward-shifts the probe chain (no tombstones). The
// all-zero slot encodes "empty", so the real flow id 0 is carried in a
// dedicated side slot.
//
// Slot pointers from Find()/Insert() stay valid only until the next
// Insert/Erase (linear probing relocates entries); the pipelines' lookup ->
// raise sequence never interleaves a mutation, which is the pattern this
// serves.
class FlowSlotMap {
 public:
  explicit FlowSlotMap(size_t capacity) {
    // 2 * capacity rounded up to a power of two must fit a size_t; past
    // that the doubling below would wrap to 0 and never end.
    if (capacity > std::numeric_limits<size_t>::max() / 4) {
      throw std::length_error("FlowSlotMap: capacity " + std::to_string(capacity) +
                              " is too large");
    }
    size_t n = 16;
    while (n < capacity * 2) {
      n <<= 1;
    }
    mask_ = n - 1;
    slots_.Resize(n);
  }

  size_t size() const { return size_; }

  uint64_t* Find(FlowId id) {
    if (id == 0) {
      return has_zero_ ? &zero_count_ : nullptr;
    }
    for (size_t i = Mix64(id) & mask_;; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.id == id) {
        return &slot.count;
      }
      if (slot.id == 0) {
        return nullptr;
      }
    }
  }
  const uint64_t* Find(FlowId id) const {
    return const_cast<FlowSlotMap*>(this)->Find(id);
  }

  // Pre: !Find(id) and the table is not beyond half full.
  uint64_t* Insert(FlowId id, uint64_t count) {
    ++size_;
    if (id == 0) {
      has_zero_ = true;
      zero_count_ = count;
      return &zero_count_;
    }
    size_t i = Mix64(id) & mask_;
    while (slots_[i].id != 0) {
      i = (i + 1) & mask_;
    }
    slots_[i] = {id, count};
    return &slots_[i].count;
  }

  // Pre: Find(id). Backward-shift deletion keeps probe chains intact.
  void Erase(FlowId id) {
    --size_;
    if (id == 0) {
      has_zero_ = false;
      return;
    }
    size_t i = Mix64(id) & mask_;
    while (slots_[i].id != id) {
      i = (i + 1) & mask_;
    }
    size_t hole = i;
    for (size_t j = (hole + 1) & mask_; slots_[j].id != 0; j = (j + 1) & mask_) {
      // An entry may fill the hole only if its home position does not lie
      // inside the (hole, j] probe segment (standard Robin-Hood deletion
      // condition for linear probing).
      const size_t home = Mix64(slots_[j].id) & mask_;
      const bool movable = ((j - home) & mask_) >= ((j - hole) & mask_);
      if (movable) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = {0, 0};
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (has_zero_) {
      fn(FlowId{0}, zero_count_);
    }
    for (const Slot& slot : slots_) {
      if (slot.id != 0) {
        fn(slot.id, slot.count);
      }
    }
  }

 private:
  struct Slot {
    FlowId id = 0;
    uint64_t count = 0;
  };

  Slab<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
  bool has_zero_ = false;
  uint64_t zero_count_ = 0;
};

class LazyTopKStore {
 public:
  explicit LazyTopKStore(size_t capacity);

  size_t capacity() const { return capacity_; }
  size_t size() const { return heap_.size(); }
  bool Full() const { return heap_.size() >= capacity_; }
  bool Contains(FlowId id) const { return values_.Find(id) != nullptr; }

  // Count tracked for `id` (0 if absent).
  uint64_t Value(FlowId id) const {
    const uint64_t* slot = values_.Find(id);
    return slot == nullptr ? 0 : *slot;
  }

  // Slot pointer to the tracked count, or nullptr when untracked. Valid
  // until the next Insert/ReplaceMin (FlowSlotMap relocation rules).
  uint64_t* Find(FlowId id) { return values_.Find(id); }

  // Raise through a Find() slot: compare-only unless the minimum itself
  // grows (then the next MinCount() re-syncs the heap top-down).
  void Raise(FlowId id, uint64_t* slot, uint64_t count) {
    if (count > *slot) {
      *slot = count;
      if (!heap_.empty() && heap_[0].id == id) {
        root_stale_ = true;
      }
    }
  }

  // Smallest tracked count; 0 when empty. This is the paper's nmin.
  uint64_t MinCount() const {
    FixRoot();
    return heap_.empty() ? 0 : heap_[0].count;
  }

  // Insert a new flow. Pre: !Contains(id) && !Full().
  void Insert(FlowId id, uint64_t count);

  // Expel the minimum flow and insert `id` in its place.
  // Pre: !Contains(id), size() > 0.
  void ReplaceMin(FlowId id, uint64_t count);

  // Raise an existing flow's count to max(current, count). Pre: Contains(id).
  void RaiseCount(FlowId id, uint64_t count) { Raise(id, values_.Find(id), count); }

  // Tracked flows sorted by (count desc, id asc), truncated to k.
  std::vector<FlowCount> TopK(size_t k) const;

  // All tracked flows with fresh counts (order unspecified).
  std::vector<FlowCount> Entries() const;

  // Paper-convention accounting (Section VI-A): the candidate store is
  // charged key + 32-bit count per entry, exactly like HeapTopKStore -
  // auxiliary index structures (here the FlowSlotMap table, there the
  // unordered position map) are not charged, so swapping backends never
  // changes an experiment's memory split. The real allocation is
  // ~sizeof(FlowCount) + 2-3 slot words per entry.
  static size_t BytesPerEntry(size_t key_bytes) { return key_bytes + 4; }

 private:
  // Re-establish "heap_[0] is a fresh minimum": repeatedly refresh the root
  // from the value map and sift it down against the (stale, lower-bound)
  // keys until the root is clean. Amortized: each Raise of the minimum flow
  // funds at most one sift here.
  void FixRoot() const;
  void SiftUp(size_t i);
  void SiftDown(size_t i) const;

  size_t capacity_;
  // heap_ keys are lower bounds of values_ entries; values_ is authoritative.
  mutable std::vector<FlowCount> heap_;
  mutable bool root_stale_ = false;
  FlowSlotMap values_;

  // store="lazy" series.
  telemetry::Counter* tm_admissions_;
  telemetry::Counter* tm_evictions_;
  telemetry::Counter* tm_root_resyncs_;
};

}  // namespace hk

#endif  // HK_SUMMARY_LAZY_TOPK_H_
