#include "sketch/css.h"

#include <algorithm>
#include <utility>

#include "sketch/registry.h"
#include "summary/summary_state.h"

namespace hk {

namespace {

// TinyTable derives fingerprints by quotienting, so the effective
// fingerprint width grows with the table: bigger tables spend more bits per
// entry to keep the per-entry collision rate roughly constant.
uint32_t FingerprintBitsFor(size_t m) {
  uint32_t bits = Css::kFingerprintBits;
  size_t capacity = 4096;  // 12 bits cover TinyTable's base configuration
  while (capacity < m && bits < 20) {
    capacity <<= 1;
    ++bits;
  }
  return bits;
}

}  // namespace

Css::Css(size_t m, uint64_t seed)
    : summary_(std::max<size_t>(m, 1)),
      fingerprint_(FingerprintBitsFor(m), Mix64(seed ^ 0xc55ULL)) {
  owners_.reserve(summary_.capacity());
}

std::unique_ptr<Css> Css::FromMemory(size_t bytes, uint64_t seed) {
  return std::make_unique<Css>(std::max<size_t>(bytes / kBytesPerEntry, 1), seed);
}

void Css::Insert(FlowId id) {
  const uint64_t fp = fingerprint_(id);
  const bool existed = summary_.Contains(fp);
  const FlowId evicted = summary_.SpaceSavingUpdate(fp);
  if (evicted != 0) {
    owners_.erase(evicted);
  }
  if (!existed) {
    owners_[fp] = id;  // this flow claimed the (new or recycled) entry
  }
}

std::vector<FlowCount> Css::TopK(size_t k) const {
  std::vector<FlowCount> out;
  for (const auto& e : summary_.TopK(k)) {
    const auto it = owners_.find(e.id);
    if (it != owners_.end()) {
      out.push_back({it->second, e.count});
    }
  }
  // The summary ranks ties by fingerprint; a report ranks them by id.
  RankTopK(out, k);
  return out;
}

uint64_t Css::EstimateSize(FlowId id) const {
  // Fingerprint collisions conflate counts exactly as a real TinyTable does.
  return summary_.Count(fingerprint_(id));
}

bool Css::SaveState(std::vector<uint8_t>* out) const {
  ByteAppend(*out, static_cast<uint64_t>(summary_.capacity()));
  ByteAppend(*out, static_cast<uint64_t>(fingerprint_.bits()));
  AppendSummaryEntries(*out, summary_);  // keyed by fingerprint
  ByteAppend(*out, static_cast<uint64_t>(owners_.size()));
  for (const auto& [fp, id] : owners_) {
    ByteAppend(*out, fp);
    ByteAppend(*out, id);
  }
  return true;
}

bool Css::LoadState(const uint8_t* data, size_t size) {
  ByteReader reader(data, size);
  uint64_t capacity = 0;
  uint64_t bits = 0;
  if (!reader.Read(&capacity) || !reader.Read(&bits) || capacity != summary_.capacity() ||
      bits != fingerprint_.bits()) {
    return false;
  }
  std::optional<StreamSummary> summary = ReadSummaryEntries(reader, summary_.capacity());
  if (!summary.has_value()) {
    return false;
  }
  uint64_t n = 0;
  if (!reader.Read(&n) || n > summary_.capacity()) {
    return false;
  }
  std::unordered_map<uint64_t, FlowId> owners;
  owners.reserve(summary_.capacity());
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t fp = 0;
    FlowId id = 0;
    if (!reader.Read(&fp) || !reader.Read(&id) || !summary->Contains(fp) ||
        !owners.emplace(fp, id).second) {
      return false;
    }
  }
  if (!reader.Done()) {
    return false;
  }
  summary_ = std::move(*summary);
  owners_ = std::move(owners);
  return true;
}

HK_REGISTER_SKETCHES(Css) {
  RegisterSketch({"CSS",
                  {},
                  {},
                  [](const SketchArgs& args) -> std::unique_ptr<TopKAlgorithm> {
                    return Css::FromMemory(args.memory_bytes(), args.seed());
                  }});
}

}  // namespace hk
