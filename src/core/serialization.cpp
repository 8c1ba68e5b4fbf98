#include "core/serialization.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <span>

#include "common/byte_io.h"

namespace hk {
namespace {

constexpr uint64_t kMagic = 0x484b534b45544348ULL;  // "HKSKETCH"

// Format v3, the one written: the v2 header, the decay RNG's four words,
// then the slab in groups of 64 words, each a uint64 occupancy mask (bit i
// set when word i is not the all-zero empty bucket) followed by the group's
// occupied words in order. Most of a drained sketch's buckets are empty, so
// this is a fraction of the slab; a fully occupied one costs a mask per 64
// words more. A state has exactly one v3 encoding: the decoder refuses mask
// bits past the last bucket, a packed zero word, a word count other than
// the payload's, and a field wider than its width.
constexpr uint32_t kVersion = 3;
// Format v2, still loaded and no longer written: the header, then the slab
// image verbatim. It has no RNG, so its decay coins restart from the seed.
constexpr uint32_t kVersionV2 = 2;

constexpr size_t kHeaderBytes = 96 + sizeof(Rng::State);
constexpr size_t kGroupWords = 64;

template <typename W>
W LoadWord(const uint8_t* p) {
  W word = 0;
  std::memcpy(&word, p, sizeof(W));
  return word;
}

// The bits above a packed word's counter and fingerprint fields: a word
// with any of them set has a field wider than its width.
template <typename W>
W HighBits(uint32_t used_bits) {
  return used_bits >= sizeof(W) * 8 ? 0 : static_cast<W>(~W{0} << used_bits);
}

// Bit i of the result is flags[i] (each 0 or 1): one multiply gathers
// eight flag bytes into a mask byte, the products' bits never overlapping.
uint64_t PackFlags(const uint8_t* flags) {
  uint64_t mask = 0;
  for (size_t byte = 0; byte < kGroupWords / 8; ++byte) {
    uint64_t eight = LoadWord<uint64_t>(flags + 8 * byte);
    if constexpr (std::endian::native == std::endian::big) {
      eight = __builtin_bswap64(eight);
    }
    mask |= ((eight * 0x0102040810204080ULL) >> 56) << (8 * byte);
  }
  return mask;
}

// One group of 64 words at `src` as its mask and occupied words into
// `group`; returns the bytes written there.
template <typename W>
size_t EncodeGroup(const uint8_t* src, uint8_t* group) {
  uint8_t flags[kGroupWords];
  for (size_t i = 0; i < kGroupWords; ++i) {
    flags[i] = LoadWord<W>(src + i * sizeof(W)) != 0;
  }
  const uint64_t mask = PackFlags(flags);
  std::memcpy(group, &mask, sizeof(mask));
  uint8_t* out = group + sizeof(mask);
  if (mask == ~uint64_t{0}) {
    std::memcpy(out, src, kGroupWords * sizeof(W));
    return sizeof(mask) + kGroupWords * sizeof(W);
  }
  for (uint64_t m = mask; m != 0; m &= m - 1) {
    std::memcpy(out, src + std::countr_zero(m) * sizeof(W), sizeof(W));
    out += sizeof(W);
  }
  return static_cast<size_t>(out - group);
}

template <typename W>
void AppendGroups(std::span<const uint8_t> image, std::vector<uint8_t>* out) {
  constexpr size_t kGroupBytes = kGroupWords * sizeof(W);
  constexpr size_t kChunkBytes = 16 * 1024;
  // Encoded groups gather here and go into `out` a chunk at a time: an
  // insert per group costs about as much as encoding it.
  uint8_t chunk[kChunkBytes + sizeof(uint64_t) + kGroupBytes];
  size_t used = 0;
  const auto flush = [&] {
    out->insert(out->end(), chunk, chunk + used);
    used = 0;
  };
  size_t at = 0;
  for (; at + kGroupBytes <= image.size(); at += kGroupBytes) {
    used += EncodeGroup<W>(image.data() + at, chunk + used);
    if (used >= kChunkBytes) {
      flush();
    }
  }
  if (at < image.size()) {
    // The last group, zero-padded: padding words are empty, so their mask
    // bits stay clear.
    uint8_t tail[kGroupBytes] = {};
    std::memcpy(tail, image.data() + at, image.size() - at);
    used += EncodeGroup<W>(tail, chunk + used);
  }
  flush();
}

// Decodes v3 groups of `words` words into the zeroed `slab`; false on any
// departure from the one encoding a state has.
template <typename W>
bool ReadGroups(ByteReader& reader, size_t words, uint32_t used_bits, uint8_t* slab) {
  const W high = HighBits<W>(used_bits);
  for (size_t base = 0; base < words; base += kGroupWords) {
    uint64_t mask = 0;
    if (!reader.Read(&mask)) {
      return false;
    }
    const size_t live = std::min(kGroupWords, words - base);
    if (live < kGroupWords && (mask >> live) != 0) {
      return false;  // a bit past the last bucket
    }
    const uint8_t* packed = reader.Borrow(std::popcount(mask) * sizeof(W));
    if (packed == nullptr) {
      return false;
    }
    for (uint64_t m = mask; m != 0; m &= m - 1, packed += sizeof(W)) {
      const W word = LoadWord<W>(packed);
      if (word == 0 || (word & high) != 0) {
        return false;  // an empty bucket packed, or a field overflowing
      }
      std::memcpy(slab + (base + std::countr_zero(m)) * sizeof(W), &word, sizeof(W));
    }
  }
  return reader.Done();
}

// True when no word of a v2 image has a field wider than its width.
template <typename W>
bool FieldsFit(const uint8_t* image, size_t words, uint32_t used_bits) {
  W all = 0;
  for (size_t i = 0; i < words; ++i) {
    all |= LoadWord<W>(image + i * sizeof(W));
  }
  return (all & HighBits<W>(used_bits)) == 0;
}

}  // namespace

void AppendSerializedSketch(const HeavyKeeper& sketch, std::vector<uint8_t>* out) {
  const HeavyKeeperConfig& config = sketch.config();
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
  ByteAppend(*out, sketch.rng_state());
  // The payload is self-describing via the config fields above
  // (BucketBytes() and CounterFieldBits() derive from them).
  if (config.BucketBytes() == 8) {
    AppendGroups<uint64_t>(sketch.SlabImage(), out);
  } else {
    AppendGroups<uint32_t>(sketch.SlabImage(), out);
  }
}

std::vector<uint8_t> SerializeSketch(const HeavyKeeper& sketch) {
  std::vector<uint8_t> out;
  AppendSerializedSketch(sketch, &out);
  return out;
}

size_t SerializedSketchBound(size_t slab_bytes) {
  const size_t groups = (slab_bytes / sizeof(uint32_t) + kGroupWords - 1) / kGroupWords;
  return kHeaderBytes + groups * sizeof(uint64_t) + slab_bytes;
}

std::optional<HeavyKeeper> DeserializeSketch(const uint8_t* data, size_t size) {
  ByteReader reader(data, size);
  uint64_t magic = 0;
  uint32_t version = 0;
  if (!reader.Read(&magic) || magic != kMagic || !reader.Read(&version) ||
      (version != kVersion && version != kVersionV2)) {
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
  std::optional<Rng::State> rng;
  if (version == kVersion) {
    Rng::State state{};
    if (!reader.Read(&state) || state == Rng::State{}) {
      return std::nullopt;
    }
    rng = state;
  }
  config.d = d;
  config.w = w;
  config.decay_function = static_cast<DecayFunction>(decay_function);
  config.max_arrays = max_arrays;
  // Geometry limits: the constructor clamps d and max_arrays to
  // kMaxPreparedArrays (Prepare() addresses arrays through a fixed
  // idx[kMaxPreparedArrays] handle), w to kMaxWidth and the fingerprint
  // width to 1..32, so a header past any of them was not written by a
  // sketch: it is corrupt, not just unusual. The caps also keep
  // num_arrays * w within 2^32. No spec yields a decay base that is not
  // finite, and the decay table would convert one to integer thresholds.
  if (d == 0 || d > HeavyKeeper::kMaxPreparedArrays ||
      max_arrays > HeavyKeeper::kMaxPreparedArrays ||
      num_arrays > HeavyKeeper::kMaxPreparedArrays || w == 0 || w > HeavyKeeper::kMaxWidth ||
      config.fingerprint_bits == 0 || config.fingerprint_bits > 32 ||
      decay_function > static_cast<uint32_t>(DecayFunction::kSigmoid) || !std::isfinite(config.b)) {
    return std::nullopt;
  }
  if (num_arrays != d + expansions || num_arrays > max_arrays + d) {
    return std::nullopt;
  }

  const size_t buckets = num_arrays * w;
  const bool wide = config.BucketBytes() == 8;
  const uint32_t used_bits = config.CounterFieldBits() + config.fingerprint_bits;
  if (version == kVersionV2) {
    const size_t payload = reader.remaining();
    if (payload != buckets * config.BucketBytes()) {
      return std::nullopt;
    }
    const uint8_t* image = reader.Borrow(payload);
    const bool fit = wide ? FieldsFit<uint64_t>(image, buckets, used_bits)
                          : FieldsFit<uint32_t>(image, buckets, used_bits);
    if (!fit) {
      return std::nullopt;
    }
    const auto copy_image = [&](std::span<uint8_t> slab) {
      std::memcpy(slab.data(), image, payload);
      return true;
    };
    return HeavyKeeper::Restore(config, stuck_events, expansions, std::nullopt, copy_image);
  }
  // Refused before the sketch is allocated: a payload too short for the
  // masks alone. So the slab a blob can make this allocate is at most 64x
  // the blob's size.
  if ((buckets + kGroupWords - 1) / kGroupWords > reader.remaining() / sizeof(uint64_t)) {
    return std::nullopt;
  }
  const auto read_groups = [&](std::span<uint8_t> slab) {
    return wide ? ReadGroups<uint64_t>(reader, buckets, used_bits, slab.data())
                : ReadGroups<uint32_t>(reader, buckets, used_bits, slab.data());
  };
  return HeavyKeeper::Restore(config, stuck_events, expansions, rng, read_groups);
}

}  // namespace hk
