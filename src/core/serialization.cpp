#include "core/serialization.h"

#include <cstring>

#include "common/byte_io.h"

namespace hk {
namespace {

constexpr uint64_t kMagic = 0x484b534b45544348ULL;  // "HKSKETCH"

// Format v2: one packed word per bucket (counter low, fingerprint high),
// sized HeavyKeeperConfig::BucketBytes(); the on-disk image of the slab.
// It is the only version written or loaded; any other version is refused.
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
      version != kVersion) {
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
  const size_t payload = reader.remaining();
  if (w > payload / (num_arrays * word_bytes) || payload != num_arrays * w * word_bytes) {
    return std::nullopt;
  }
  const uint8_t* image = reader.Borrow(payload);
  const size_t buckets = num_arrays * w;
  const uint32_t used_bits = config.CounterFieldBits() + config.fingerprint_bits;
  const bool fit = word_bytes == 8 ? FieldsFit<uint64_t>(image, buckets, used_bits)
                                   : FieldsFit<uint32_t>(image, buckets, used_bits);
  if (!fit) {
    return std::nullopt;  // a field overflows the packed word: corrupt
  }
  return HeavyKeeper::Restore(config, {image, payload}, stuck_events, expansions);
}

}  // namespace hk
