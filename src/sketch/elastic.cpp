#include "sketch/elastic.h"

#include <algorithm>
#include <utility>

#include "common/byte_io.h"
#include "sketch/registry.h"

namespace hk {

ElasticSketch::ElasticSketch(size_t heavy_buckets, size_t light_counters, size_t key_bytes,
                             uint64_t seed)
    : heavy_(std::max<size_t>(heavy_buckets, 1)),
      light_(std::max<size_t>(light_counters, 1), 0),
      heavy_hash_(TwoWiseHash::FromSeed(seed ^ 0xe1a5ULL)),
      light_hash_(TwoWiseHash::FromSeed(Mix64(seed ^ 0x1194ULL))),
      key_bytes_(key_bytes) {}

std::unique_ptr<ElasticSketch> ElasticSketch::FromMemory(size_t bytes, size_t key_bytes,
                                                         uint64_t seed) {
  const size_t heavy_bytes = bytes * 3 / 4;
  const size_t bucket_bytes = key_bytes + 9;
  const size_t heavy_buckets = std::max<size_t>(heavy_bytes / bucket_bytes, 1);
  const size_t light_counters = std::max<size_t>(bytes - heavy_buckets * bucket_bytes, 1);
  return std::make_unique<ElasticSketch>(heavy_buckets, light_counters, key_bytes, seed);
}

void ElasticSketch::LightAdd(FlowId id, uint64_t value) {
  uint8_t& c = light_[light_hash_.Index(id, light_.size())];
  const uint64_t next = c + value;
  c = next > 0xff ? 0xff : static_cast<uint8_t>(next);
}

uint64_t ElasticSketch::LightQuery(FlowId id) const {
  return light_[light_hash_.Index(id, light_.size())];
}

void ElasticSketch::Insert(FlowId id) {
  HeavyBucket& bucket = heavy_[heavy_hash_.Index(id, heavy_.size())];
  if (bucket.vote_pos == 0) {
    bucket = {id, 1, 0, false};
    return;
  }
  if (bucket.key == id) {
    ++bucket.vote_pos;
    return;
  }
  ++bucket.vote_neg;
  if (bucket.vote_neg >= kLambda * bucket.vote_pos) {
    // Evict the resident flow into the light part; the new flow takes over.
    LightAdd(bucket.key, bucket.vote_pos);
    bucket = {id, 1, 1, true};
  } else {
    // The packet itself is recorded in the light part (vote- only counts it
    // toward the eviction decision).
    LightAdd(id, 1);
  }
}

uint64_t ElasticSketch::EstimateSize(FlowId id) const {
  const HeavyBucket& bucket = heavy_[heavy_hash_.Index(id, heavy_.size())];
  if (bucket.vote_pos > 0 && bucket.key == id) {
    return bucket.vote_pos + (bucket.flag ? LightQuery(id) : 0);
  }
  return LightQuery(id);
}

std::vector<FlowCount> ElasticSketch::TopK(size_t k) const {
  std::vector<FlowCount> all;
  all.reserve(heavy_.size());
  for (const auto& bucket : heavy_) {
    if (bucket.vote_pos == 0) {
      continue;
    }
    const uint64_t est =
        bucket.vote_pos + (bucket.flag ? LightQuery(bucket.key) : 0);
    all.push_back({bucket.key, est});
  }
  RankTopK(all, k);
  return all;
}

size_t ElasticSketch::MemoryBytes() const {
  return heavy_.size() * HeavyBucketBytes() + light_.size();
}

bool ElasticSketch::SaveState(std::vector<uint8_t>* out) const {
  ByteAppend(*out, static_cast<uint64_t>(heavy_.size()));
  for (const HeavyBucket& bucket : heavy_) {
    ByteAppend(*out, bucket.key);
    ByteAppend(*out, bucket.vote_pos);
    ByteAppend(*out, bucket.vote_neg);
    ByteAppend(*out, static_cast<uint8_t>(bucket.flag ? 1 : 0));
  }
  ByteAppendBlob(*out, light_);
  return true;
}

bool ElasticSketch::LoadState(const uint8_t* data, size_t size) {
  ByteReader reader(data, size);
  uint64_t n = 0;
  if (!reader.Read(&n) || n != heavy_.size()) {
    return false;
  }
  std::vector<HeavyBucket> heavy(heavy_.size());
  for (HeavyBucket& bucket : heavy) {
    uint8_t flag = 0;
    if (!reader.Read(&bucket.key) || !reader.Read(&bucket.vote_pos) ||
        !reader.Read(&bucket.vote_neg) || !reader.Read(&flag) || flag > 1) {
      return false;
    }
    bucket.flag = flag != 0;
  }
  std::vector<uint8_t> light;
  if (!reader.ReadBlob(&light) || light.size() != light_.size() || !reader.Done()) {
    return false;
  }
  heavy_ = std::move(heavy);
  light_ = std::move(light);
  return true;
}

HK_REGISTER_SKETCHES(ElasticSketch) {
  RegisterSketch({"Elastic",
                  {},
                  {},
                  [](const SketchArgs& args) -> std::unique_ptr<TopKAlgorithm> {
                    return ElasticSketch::FromMemory(args.memory_bytes(), args.key_bytes(),
                                                     args.seed());
                  }});
}

}  // namespace hk
