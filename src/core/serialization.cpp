#include "core/serialization.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

#include "common/byte_io.h"

namespace hk {
namespace {

constexpr uint64_t kMagic = 0x484b534b45544348ULL;  // "HKSKETCH"

// Format history:
//   v1  one (uint32 fp, uint32 c) pair per bucket - the pre-slab layout.
//   v2  one packed word per bucket (counter low, fingerprint high), sized
//       HeavyKeeperConfig::BucketBytes(); the on-disk image of the slab.
// The loader accepts both; the writer emits v2.
constexpr uint32_t kVersionV1 = 1;
constexpr uint32_t kVersion = 2;

// True when no packed word has a bit set at or above `used_bits` (counter
// width + fingerprint width), i.e. every fingerprint fits its field. The
// only check a v2 image needs: a counter field cannot overflow its width.
template <typename W>
bool FieldsFit(const uint8_t* image, size_t words, uint32_t used_bits) {
  if (used_bits >= sizeof(W) * 8) {
    return true;
  }
  W overflow = 0;
  for (size_t i = 0; i < words; ++i) {
    W word;
    std::memcpy(&word, image + i * sizeof(W), sizeof(W));
    overflow |= word >> used_bits;
  }
  return overflow == 0;
}

// v1 pairs packed into v2 words (counters saturate at the field width, as
// the pre-slab restore did). False on a fingerprint wider than its field.
template <typename W>
bool PackV1(const uint8_t* pairs, size_t buckets, const HeavyKeeperConfig& config,
            std::vector<uint8_t>* image) {
  const uint32_t cb = config.CounterFieldBits();
  const uint64_t cmax = (uint64_t{1} << cb) - 1;
  image->resize(buckets * sizeof(W));
  for (size_t i = 0; i < buckets; ++i) {
    uint32_t fp = 0;
    uint32_t c = 0;
    std::memcpy(&fp, pairs + 8 * i, sizeof(fp));
    std::memcpy(&c, pairs + 8 * i + 4, sizeof(c));
    if (uint64_t{fp} >> config.fingerprint_bits != 0) {
      return false;
    }
    const W word = static_cast<W>((W{fp} << cb) | std::min<uint64_t>(c, cmax));
    std::memcpy(image->data() + i * sizeof(W), &word, sizeof(W));
  }
  return true;
}

}  // namespace

void AppendSerializedSketch(const HeavyKeeper& sketch, std::vector<uint8_t>* out) {
  const HeavyKeeperConfig& config = sketch.config();
  const std::span<const uint8_t> image = sketch.SlabImage();
  ByteAppend(*out, kMagic);
  ByteAppend(*out, kVersion);
  ByteAppend(*out, static_cast<uint64_t>(config.d));
  ByteAppend(*out, static_cast<uint64_t>(config.w));
  ByteAppend(*out, config.b);
  ByteAppend(*out, static_cast<uint32_t>(config.decay_function));
  ByteAppend(*out, config.fingerprint_bits);
  ByteAppend(*out, config.counter_bits);
  ByteAppend(*out, config.seed);
  ByteAppend(*out, config.expansion_threshold);
  ByteAppend(*out, static_cast<uint64_t>(config.max_arrays));
  ByteAppend(*out, sketch.stuck_events());
  ByteAppend(*out, sketch.expansions());
  ByteAppend(*out, static_cast<uint64_t>(sketch.num_arrays()));
  // v2 payload: the packed slab words, self-describing via the config
  // fields above (BucketBytes() and CounterFieldBits() derive from them).
  out->insert(out->end(), image.begin(), image.end());
}

std::vector<uint8_t> SerializeSketch(const HeavyKeeper& sketch) {
  std::vector<uint8_t> out;
  AppendSerializedSketch(sketch, &out);
  return out;
}

std::optional<HeavyKeeper> DeserializeSketch(const uint8_t* data, size_t size) {
  ByteReader reader(data, size);
  uint64_t magic = 0;
  uint32_t version = 0;
  if (!reader.Read(&magic) || magic != kMagic || !reader.Read(&version) ||
      (version != kVersionV1 && version != kVersion)) {
    return std::nullopt;
  }

  HeavyKeeperConfig config;
  uint64_t d = 0;
  uint64_t w = 0;
  uint32_t decay_function = 0;
  uint64_t max_arrays = 0;
  uint64_t stuck_events = 0;
  uint64_t expansions = 0;
  uint64_t num_arrays = 0;
  if (!reader.Read(&d) || !reader.Read(&w) || !reader.Read(&config.b) ||
      !reader.Read(&decay_function) || !reader.Read(&config.fingerprint_bits) ||
      !reader.Read(&config.counter_bits) || !reader.Read(&config.seed) ||
      !reader.Read(&config.expansion_threshold) || !reader.Read(&max_arrays) ||
      !reader.Read(&stuck_events) || !reader.Read(&expansions) || !reader.Read(&num_arrays)) {
    return std::nullopt;
  }
  config.d = d;
  config.w = w;
  config.decay_function = static_cast<DecayFunction>(decay_function);
  config.max_arrays = max_arrays;
  // Geometry limits: a legitimate writer can never exceed
  // kMaxPreparedArrays arrays (the constructor clamps d and max_arrays),
  // and Prepare() addresses arrays through a fixed idx[kMaxPreparedArrays]
  // handle - so a header claiming more is corrupt, not just unusual. The
  // constructor also clamps the fingerprint width to 1..32, so a width
  // outside it cannot have been written either.
  if (d == 0 || d > HeavyKeeper::kMaxPreparedArrays ||
      num_arrays > HeavyKeeper::kMaxPreparedArrays || config.fingerprint_bits == 0 ||
      config.fingerprint_bits > 32) {
    return std::nullopt;
  }
  if (num_arrays != d + expansions || num_arrays > max_arrays + d || w == 0) {
    return std::nullopt;
  }

  // The payload must be exactly num_arrays * w buckets; checked by division
  // first so a crafted w cannot overflow the product.
  const size_t word_bytes = config.BucketBytes();
  const size_t stored_bytes = version == kVersionV1 ? 2 * sizeof(uint32_t) : word_bytes;
  const size_t payload = reader.remaining();
  if (w > payload / (num_arrays * stored_bytes) || payload != num_arrays * w * stored_bytes) {
    return std::nullopt;
  }
  const uint8_t* stored = reader.Borrow(payload);
  const size_t buckets = num_arrays * w;
  std::span<const uint8_t> image(stored, payload);
  std::vector<uint8_t> packed;
  if (version == kVersionV1) {
    const bool ok = word_bytes == 8 ? PackV1<uint64_t>(stored, buckets, config, &packed)
                                    : PackV1<uint32_t>(stored, buckets, config, &packed);
    if (!ok) {
      return std::nullopt;
    }
    image = packed;
  } else {
    const uint32_t used_bits = config.CounterFieldBits() + config.fingerprint_bits;
    const bool ok = word_bytes == 8 ? FieldsFit<uint64_t>(stored, buckets, used_bits)
                                    : FieldsFit<uint32_t>(stored, buckets, used_bits);
    if (!ok) {
      return std::nullopt;  // a field overflows the packed word: corrupt
    }
  }
  return HeavyKeeper::Restore(config, image, stuck_events, expansions);
}

bool SaveSketch(const HeavyKeeper& sketch, const std::string& path) {
  const auto buffer = SerializeSketch(sketch);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  const bool ok = std::fwrite(buffer.data(), 1, buffer.size(), f) == buffer.size();
  std::fclose(f);
  return ok;
}

std::optional<HeavyKeeper> LoadSketch(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return std::nullopt;
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<uint8_t> buffer(static_cast<size_t>(size));
  const bool ok = std::fread(buffer.data(), 1, buffer.size(), f) == buffer.size();
  std::fclose(f);
  if (!ok) {
    return std::nullopt;
  }
  return DeserializeSketch(buffer);
}

}  // namespace hk
