#include "sketch/heavy_guardian.h"

#include <algorithm>
#include <utility>

#include "common/byte_io.h"
#include "sketch/registry.h"

namespace hk {

HeavyGuardian::HeavyGuardian(size_t buckets, size_t slots, size_t key_bytes, double b,
                             uint64_t seed)
    : grid_(std::max<size_t>(buckets, 1) * std::max<size_t>(slots, 1)),
      buckets_(std::max<size_t>(buckets, 1)),
      slots_(std::max<size_t>(slots, 1)),
      key_bytes_(key_bytes),
      hash_(TwoWiseHash::FromSeed(seed ^ 0x96aadULL)),
      decay_(&SharedDecayTable(DecayFunction::kExponential, b)),
      rng_(Mix64(seed ^ 0x9d1aULL)) {}

std::unique_ptr<HeavyGuardian> HeavyGuardian::FromMemory(size_t bytes, size_t key_bytes,
                                                         uint64_t seed) {
  const size_t slot_bytes = key_bytes + 4;
  const size_t buckets = std::max<size_t>(bytes / (kDefaultSlots * slot_bytes), 1);
  return std::make_unique<HeavyGuardian>(buckets, kDefaultSlots, key_bytes, 1.08, seed);
}

void HeavyGuardian::Insert(FlowId id) {
  Slot* const row = Row(hash_.Index(id, buckets_));
  Slot* weakest = row;
  for (size_t s = 0; s < slots_; ++s) {
    Slot& slot = row[s];
    if (slot.count > 0 && slot.id == id) {
      ++slot.count;
      return;
    }
    if (slot.count < weakest->count) {
      weakest = &slot;
    }
  }
  if (weakest->count == 0) {
    *weakest = {id, 1};
    return;
  }
  if (decay_->ShouldDecay(weakest->count, rng_)) {
    if (--weakest->count == 0) {
      *weakest = {id, 1};
    }
  }
}

uint64_t HeavyGuardian::EstimateSize(FlowId id) const {
  const Slot* const row = Row(hash_.Index(id, buckets_));
  for (size_t s = 0; s < slots_; ++s) {
    if (row[s].count > 0 && row[s].id == id) {
      return row[s].count;
    }
  }
  return 0;
}

std::vector<FlowCount> HeavyGuardian::TopK(size_t k) const {
  std::vector<FlowCount> all;
  for (const Slot& slot : grid_) {
    if (slot.count > 0) {
      all.push_back({slot.id, slot.count});
    }
  }
  RankTopK(all, k);
  return all;
}

bool HeavyGuardian::SaveState(std::vector<uint8_t>* out) const {
  ByteAppend(*out, static_cast<uint64_t>(buckets_));
  ByteAppend(*out, static_cast<uint64_t>(slots_));
  // Field-by-field (not a struct memcpy): Slot padding stays out of the
  // blob. The decay RNG restarts from the seed on load, per the contract.
  for (const Slot& slot : grid_) {
    ByteAppend(*out, slot.id);
    ByteAppend(*out, slot.count);
  }
  return true;
}

bool HeavyGuardian::LoadState(const uint8_t* data, size_t size) {
  ByteReader reader(data, size);
  uint64_t buckets = 0;
  uint64_t slots = 0;
  if (!reader.Read(&buckets) || !reader.Read(&slots) || buckets != buckets_ ||
      slots != slots_) {
    return false;
  }
  Slab<Slot> grid(buckets_ * slots_);
  for (Slot& slot : grid) {
    if (!reader.Read(&slot.id) || !reader.Read(&slot.count)) {
      return false;
    }
  }
  if (!reader.Done()) {
    return false;
  }
  grid_ = std::move(grid);
  return true;
}

HK_REGISTER_SKETCHES(HeavyGuardian) {
  RegisterSketch({"HeavyGuardian",
                  {},
                  {},
                  [](const SketchArgs& args) -> std::unique_ptr<TopKAlgorithm> {
                    return HeavyGuardian::FromMemory(args.memory_bytes(), args.key_bytes(),
                                                     args.seed());
                  }});
}

}  // namespace hk
