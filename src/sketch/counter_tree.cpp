#include "sketch/counter_tree.h"

#include <algorithm>
#include <utility>

#include "common/byte_io.h"
#include "sketch/registry.h"

namespace hk {

CounterTree::CounterTree(const Geometry& geometry, uint64_t seed)
    : geometry_(geometry), hashes_(geometry.s, seed ^ 0xc7ee5ULL), rng_(Mix64(seed ^ 0x7ce3ULL)) {
  geometry_.leaves = std::max<size_t>(geometry_.leaves, geometry_.s);
  size_t width = geometry_.leaves;
  for (size_t l = 0; l < geometry_.layers; ++l) {
    levels_.emplace_back(std::max<size_t>(width, 1), 0);
    // Ceiling division: parent of leaf j is j / degree, so the last leaf
    // (width - 1) must map inside the next level.
    width = (width + geometry_.degree - 1) / geometry_.degree;
  }
}

std::unique_ptr<CounterTree> CounterTree::FromMemory(size_t bytes, uint64_t seed) {
  Geometry g;
  // Total bytes = leaves * (1 + 1/r + 1/r^2) for 8-bit counters, r = 2.
  g.leaves = std::max<size_t>(bytes * 4 / 7, 8);
  return std::make_unique<CounterTree>(g, seed);
}

void CounterTree::Insert(FlowId id) {
  seen_.insert(id);
  ++total_;
  const size_t j = rng_.NextBounded(geometry_.s);
  size_t idx = hashes_.Index(j, id, levels_[0].size());
  // Increment with carry: an overflowing 8-bit counter wraps and carries
  // one into its parent.
  for (size_t l = 0; l < levels_.size(); ++l) {
    if (++levels_[l][idx] != 0) {
      break;  // no overflow
    }
    if (l + 1 >= levels_.size()) {
      levels_[l][idx] = 0xff;  // top level saturates
      break;
    }
    idx /= geometry_.degree;
  }
}

uint64_t CounterTree::ChainValue(size_t leaf) const {
  uint64_t value = 0;
  uint64_t scale = 1;
  size_t idx = leaf;
  for (size_t l = 0; l < levels_.size(); ++l) {
    value += scale * levels_[l][idx];
    scale *= 256;
    idx /= geometry_.degree;
  }
  return value;
}

uint64_t CounterTree::EstimateSize(FlowId id) const {
  uint64_t sum = 0;
  for (size_t j = 0; j < geometry_.s; ++j) {
    sum += ChainValue(hashes_.Index(j, id, levels_[0].size()));
  }
  // Counter-sum estimator: subtract the expected background noise. Shared
  // ancestors also fold sibling carries in, so the noise term uses the
  // virtual-array share of the total traffic.
  const double noise = static_cast<double>(geometry_.s) * static_cast<double>(total_) /
                       static_cast<double>(levels_[0].size());
  const double est = static_cast<double>(sum) - noise;
  return est <= 0.0 ? 0 : static_cast<uint64_t>(est);
}

std::vector<FlowCount> CounterTree::TopK(size_t k) const {
  std::vector<FlowCount> all;
  all.reserve(seen_.size());
  for (const FlowId id : seen_) {
    all.push_back({id, EstimateSize(id)});
  }
  RankTopK(all, k);
  return all;
}

size_t CounterTree::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& level : levels_) {
    bytes += level.size();
  }
  return bytes;
}

bool CounterTree::SaveState(std::vector<uint8_t>* out) const {
  ByteAppend(*out, total_);
  ByteAppend(*out, static_cast<uint64_t>(levels_.size()));
  for (const auto& level : levels_) {
    ByteAppendBlob(*out, level);
  }
  // The candidate list (evaluation-only memory) is part of the observable
  // state: TopK reports exactly the flows seen so far.
  ByteAppend(*out, static_cast<uint64_t>(seen_.size()));
  for (const FlowId id : seen_) {
    ByteAppend(*out, id);
  }
  return true;
}

bool CounterTree::LoadState(const uint8_t* data, size_t size) {
  ByteReader reader(data, size);
  uint64_t total = 0;
  uint64_t num_levels = 0;
  if (!reader.Read(&total) || !reader.Read(&num_levels) || num_levels != levels_.size()) {
    return false;
  }
  std::vector<std::vector<uint8_t>> levels(levels_.size());
  for (size_t l = 0; l < levels.size(); ++l) {
    if (!reader.ReadBlob(&levels[l]) || levels[l].size() != levels_[l].size()) {
      return false;
    }
  }
  uint64_t n = 0;
  if (!reader.Read(&n)) {
    return false;
  }
  std::unordered_set<FlowId> seen;
  seen.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    FlowId id = 0;
    if (!reader.Read(&id) || !seen.insert(id).second) {
      return false;
    }
  }
  if (!reader.Done()) {
    return false;
  }
  total_ = total;
  levels_ = std::move(levels);
  seen_ = std::move(seen);
  return true;
}

HK_REGISTER_SKETCHES(CounterTree) {
  RegisterSketch({"CounterTree",
                  {"Counter-Tree"},
                  {},
                  [](const SketchArgs& args) -> std::unique_ptr<TopKAlgorithm> {
                    return CounterTree::FromMemory(args.memory_bytes(), args.seed());
                  }});
}

}  // namespace hk
