#include "core/serialization.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>

#include "common/random.h"
#include "trace/generators.h"

namespace hk {
namespace {

// Slab storage is the one user of the aligned operator new (replaced
// below): counting its calls shows whether a refused blob got as far as
// allocating a sketch.
std::atomic<size_t> g_aligned_allocations{0};

// v3 adds the decay RNG's words to the v2 header; w sits at offset 20 in
// both.
constexpr size_t kV2HeaderBytes = 96;
constexpr size_t kHeaderBytes = kV2HeaderBytes + sizeof(Rng::State);
constexpr size_t kWidthAt = 20;

HeavyKeeperConfig SmallConfig(size_t d, size_t w, uint64_t seed, uint32_t fp = 16) {
  HeavyKeeperConfig config;
  config.d = d;
  config.w = w;
  config.seed = seed;
  config.fingerprint_bits = fp;
  return config;
}

HeavyKeeper MakeLoadedSketch(uint64_t seed, HeavyKeeperConfig config = SmallConfig(2, 512, 0),
                             uint64_t flows = 3000) {
  config.seed = seed;
  HeavyKeeper sketch(config);
  Rng rng(seed ^ 0x11);
  for (int i = 0; i < 20000; ++i) {
    sketch.InsertBasic(rng.NextBounded(flows) + 1);
  }
  return sketch;
}

// The v2 layout, which nothing writes any more: the v3 header without its
// RNG words and version 2, then the slab image verbatim.
std::vector<uint8_t> PackV2(const HeavyKeeper& sketch) {
  std::vector<uint8_t> blob = SerializeSketch(sketch);
  blob.resize(kV2HeaderBytes);
  const uint32_t version = 2;
  std::memcpy(blob.data() + 8, &version, sizeof(version));
  const std::span<const uint8_t> image = sketch.SlabImage();
  blob.insert(blob.end(), image.begin(), image.end());
  return blob;
}

// Where each v3 group sits in a blob: its mask's offset and value, and the
// offset of its first packed word.
struct Group {
  size_t mask_at;
  uint64_t mask;
  size_t words_at;
};

std::vector<Group> ParseGroups(const std::vector<uint8_t>& blob, size_t words, size_t word_bytes) {
  std::vector<Group> groups;
  size_t at = kHeaderBytes;
  for (size_t base = 0; base < words; base += 64) {
    Group g{at, 0, at + sizeof(uint64_t)};
    std::memcpy(&g.mask, blob.data() + at, sizeof(g.mask));
    at = g.words_at + std::popcount(g.mask) * word_bytes;
    groups.push_back(g);
  }
  EXPECT_EQ(at, blob.size());
  return groups;
}

void SetMask(std::vector<uint8_t>* blob, const Group& g, uint64_t mask) {
  std::memcpy(blob->data() + g.mask_at, &mask, sizeof(mask));
}

// A packed word of `word_bytes` inserted at `at`.
void InsertWord(std::vector<uint8_t>* blob, size_t at, uint64_t word, size_t word_bytes) {
  uint8_t bytes[8];
  std::memcpy(bytes, &word, sizeof(word));  // little-endian: the low word_bytes
  blob->insert(blob->begin() + static_cast<ptrdiff_t>(at), bytes, bytes + word_bytes);
}

TEST(SerializationTest, RoundTripAnswersIdentically) {
  const HeavyKeeper original = MakeLoadedSketch(7);
  const auto buffer = SerializeSketch(original);
  const auto restored = DeserializeSketch(buffer);
  ASSERT_TRUE(restored.has_value());

  for (FlowId id = 1; id <= 3000; ++id) {
    ASSERT_EQ(restored->Query(id), original.Query(id)) << "flow " << id;
  }
  EXPECT_EQ(restored->num_arrays(), original.num_arrays());
  EXPECT_EQ(restored->MemoryBytes(), original.MemoryBytes());
  EXPECT_EQ(restored->stuck_events(), original.stuck_events());
  EXPECT_EQ(restored->rng_state(), original.rng_state());
  EXPECT_EQ(SerializeSketch(*restored), buffer);
}

TEST(SerializationTest, RestoredSketchKeepsCounting) {
  HeavyKeeper original = MakeLoadedSketch(9);
  auto restored = DeserializeSketch(SerializeSketch(original));
  ASSERT_TRUE(restored.has_value());

  // Continue the stream on both; matching-fingerprint increments are
  // deterministic, so a resident flow's counter advances identically.
  const FlowId hot = 1;
  const uint32_t before = original.Query(hot);
  for (int i = 0; i < 100; ++i) {
    original.InsertBasic(hot);
    restored->InsertBasic(hot);
  }
  EXPECT_EQ(original.Query(hot), restored->Query(hot));
  EXPECT_GE(original.Query(hot), before);
}

TEST(SerializationTest, ExpandedSketchRoundTrips) {
  HeavyKeeperConfig config;
  config.d = 1;
  config.w = 1;
  config.seed = 3;
  config.expansion_threshold = 5;
  config.max_arrays = 4;
  HeavyKeeper sketch(config);
  for (int i = 0; i < 2000; ++i) {
    sketch.InsertBasic(1);
  }
  for (int i = 0; i < 12; ++i) {
    sketch.InsertBasic(2);  // trigger stuck events and expansion
  }
  ASSERT_GT(sketch.expansions(), 0u);

  const auto restored = DeserializeSketch(SerializeSketch(sketch));
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->num_arrays(), sketch.num_arrays());
  EXPECT_EQ(restored->expansions(), sketch.expansions());
  // Queries must agree, including flows held in the expansion array.
  EXPECT_EQ(restored->Query(1), sketch.Query(1));
  EXPECT_EQ(restored->Query(2), sketch.Query(2));
}

TEST(SerializationTest, RejectsGarbage) {
  EXPECT_FALSE(DeserializeSketch(nullptr, 0).has_value());
  const std::vector<uint8_t> garbage(100, 0xab);
  EXPECT_FALSE(DeserializeSketch(garbage).has_value());
}

// --- v2, loaded read-only -------------------------------------------------

TEST(SerializationTest, LoadsV2WithTheRngAtTheSeed) {
  const HeavyKeeper sketch = MakeLoadedSketch(13);
  const auto restored = DeserializeSketch(PackV2(sketch));
  ASSERT_TRUE(restored.has_value());
  EXPECT_TRUE(std::ranges::equal(restored->SlabImage(), sketch.SlabImage()));
  EXPECT_EQ(restored->rng_state(), HeavyKeeper(sketch.config()).rng_state());
}

TEST(SerializationTest, RejectsTruncation) {
  const auto buffer = PackV2(MakeLoadedSketch(17));
  for (const size_t cut : {buffer.size() - 1, buffer.size() / 2, size_t{16}}) {
    EXPECT_FALSE(DeserializeSketch(buffer.data(), cut).has_value()) << "cut " << cut;
  }
}

TEST(SerializationTest, RejectsTrailingBytes) {
  auto buffer = PackV2(MakeLoadedSketch(19));
  buffer.push_back(0);
  EXPECT_FALSE(DeserializeSketch(buffer).has_value());
}

TEST(SerializationTest, AcceptsOnlyVersionsTwoAndThree) {
  // The version field follows the 8-byte magic. An empty sketch's payload
  // is resized to what a v1 blob of its geometry held - one 8-byte (fp, c)
  // pair per bucket, all empty - so v1 is refused for its version alone.
  const HeavyKeeper empty(SmallConfig(2, 512, 1));
  ASSERT_TRUE(DeserializeSketch(PackV2(empty)).has_value());
  ASSERT_TRUE(DeserializeSketch(SerializeSketch(empty)).has_value());
  auto buffer = PackV2(empty);
  buffer.resize(kV2HeaderBytes + 2 * 512 * 8, 0);
  for (const uint32_t version : {0u, 1u, 4u}) {
    std::memcpy(buffer.data() + 8, &version, sizeof(version));
    EXPECT_FALSE(DeserializeSketch(buffer).has_value()) << "version " << version;
  }
  // A v3 blob relabelled v2, and a v2 blob relabelled v3.
  for (const uint32_t version : {2u, 3u}) {
    auto relabelled = version == 2 ? SerializeSketch(empty) : PackV2(empty);
    std::memcpy(relabelled.data() + 8, &version, sizeof(version));
    EXPECT_FALSE(DeserializeSketch(relabelled).has_value()) << "version " << version;
  }
}

TEST(SerializationTest, RejectsGeometryBeyondPreparedArrayLimit) {
  // A legitimate writer can never produce more than kMaxPreparedArrays
  // arrays (the constructor clamps d and max_arrays). A crafted header
  // claiming d = 16 would otherwise restore a sketch whose Prepare()
  // overruns its fixed idx[kMaxPreparedArrays] handle.
  auto buffer = PackV2(MakeLoadedSketch(29));  // d=2, w=512
  // Header offsets: magic(8) version(4) d@12 w@20 b@28 decay@36 fp@40
  // cb@44 seed@48 expansion_threshold@56 max_arrays@64 stuck@72
  // expansions@80 num_arrays@88, payload@96 (v3: RNG@96, payload@128).
  // Rewrite d, max_arrays and num_arrays to 16 and pad the payload so every
  // *other* consistency check passes - only the kMaxPreparedArrays guard
  // can reject it.
  const uint64_t bad = HeavyKeeper::kMaxPreparedArrays * 2;
  std::memcpy(buffer.data() + 12, &bad, sizeof(bad));
  std::memcpy(buffer.data() + 64, &bad, sizeof(bad));
  std::memcpy(buffer.data() + 88, &bad, sizeof(bad));
  buffer.resize(kV2HeaderBytes + static_cast<size_t>(bad) * 512 * 4, 0);
  EXPECT_FALSE(DeserializeSketch(buffer).has_value());

  const uint64_t zero_d = 0;
  std::memcpy(buffer.data() + 12, &zero_d, sizeof(zero_d));
  EXPECT_FALSE(DeserializeSketch(buffer).has_value());
}

TEST(SerializationTest, RejectsANonFiniteDecayBase) {
  constexpr size_t kDecayBaseAt = 28;
  const double inf = std::numeric_limits<double>::infinity();
  for (const double b : {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    for (auto blob : {SerializeSketch(MakeLoadedSketch(27)), PackV2(MakeLoadedSketch(27))}) {
      std::memcpy(blob.data() + kDecayBaseAt, &b, sizeof(b));
      EXPECT_FALSE(DeserializeSketch(blob).has_value()) << b;
    }
  }
}

TEST(SerializationTest, V2PayloadIsPackedWordSized) {
  // A v2 blob loads only with exactly one packed 4-byte word per bucket.
  const HeavyKeeper sketch = MakeLoadedSketch(23);  // default 16+16 geometry
  auto buffer = PackV2(sketch);
  const size_t buckets = sketch.num_arrays() * sketch.width();
  ASSERT_EQ(buffer.size(), kV2HeaderBytes + 4 * buckets);
  ASSERT_TRUE(DeserializeSketch(buffer).has_value());
  buffer.resize(buffer.size() - 4);
  EXPECT_FALSE(DeserializeSketch(buffer).has_value());
  buffer.resize(buffer.size() + 8);
  EXPECT_FALSE(DeserializeSketch(buffer).has_value());
}

// --- v3 -------------------------------------------------------------------

// Narrow (4-byte) and wide (8-byte: fp=24) words, both with a partial last
// group (2 x 100 buckets = 3 groups of 64 and one of 8), some buckets
// empty (60 flows).
HeavyKeeper NarrowPartial() { return MakeLoadedSketch(31, SmallConfig(2, 100, 0), 60); }
HeavyKeeper WidePartial() { return MakeLoadedSketch(37, SmallConfig(2, 100, 0, 24), 60); }

TEST(SerializationTest, V3PayloadIsMasksAndOccupiedWords) {
  const HeavyKeeper d4 = MakeLoadedSketch(41, SmallConfig(4, 256, 0), 300);
  for (const HeavyKeeper& sketch : {NarrowPartial(), WidePartial(), d4}) {
    const size_t word_bytes = sketch.config().BucketBytes();
    const size_t words = sketch.num_arrays() * sketch.width();
    size_t occupied = 0;
    for (size_t i = 0; i < words; ++i) {
      uint64_t word = 0;
      std::memcpy(&word, sketch.SlabImage().data() + i * word_bytes, word_bytes);
      occupied += word != 0 ? 1 : 0;
    }
    ASSERT_GT(occupied, 0u);
    ASSERT_LT(occupied, words);
    const auto blob = SerializeSketch(sketch);
    EXPECT_EQ(blob.size(), kHeaderBytes + (words + 63) / 64 * 8 + occupied * word_bytes);
    EXPECT_LE(blob.size(), SerializedSketchBound(sketch.SlabImage().size()));
  }
}

TEST(SerializationTest, FullyOccupiedSketchMeetsTheBound) {
  // Every bucket occupied: the encoder's worst case, a mask per 64 words
  // on top of the slab, which SerializedSketchBound states exactly for
  // 4-byte words filling whole groups.
  for (const uint32_t fp : {16u, 24u}) {
    const HeavyKeeperConfig config = SmallConfig(2, 128, 3, fp);
    const size_t word_bytes = config.BucketBytes();
    const auto occupy_all = [&](std::span<uint8_t> slab) {
      const uint64_t occupied = uint64_t{1} << config.counter_bits | 1;  // fp 1, count 1
      for (size_t at = 0; at < slab.size(); at += word_bytes) {
        std::memcpy(slab.data() + at, &occupied, word_bytes);
      }
      return true;
    };
    const auto full = HeavyKeeper::Restore(config, 0, 0, std::nullopt, occupy_all);
    ASSERT_TRUE(full.has_value());
    const auto blob = SerializeSketch(*full);
    const size_t slab = full->SlabImage().size();
    EXPECT_EQ(blob.size(), kHeaderBytes + slab + slab / (64 * full->config().BucketBytes()) * 8);
    EXPECT_LE(blob.size(), SerializedSketchBound(slab)) << "fp " << fp;
    if (fp == 16) {
      EXPECT_EQ(blob.size(), SerializedSketchBound(slab));
    }
    const auto restored = DeserializeSketch(blob);
    ASSERT_TRUE(restored.has_value());
    EXPECT_TRUE(std::ranges::equal(restored->SlabImage(), full->SlabImage()));
  }
}

TEST(SerializationTest, V3RejectsEveryTruncation) {
  for (const HeavyKeeper& sketch : {NarrowPartial(), WidePartial()}) {
    const auto blob = SerializeSketch(sketch);
    ASSERT_TRUE(DeserializeSketch(blob).has_value());
    for (size_t cut = 0; cut < blob.size(); ++cut) {
      ASSERT_FALSE(DeserializeSketch(blob.data(), cut).has_value()) << "cut " << cut;
    }
  }
}

TEST(SerializationTest, V3RejectsAMaskBitPastTheLastBucket) {
  for (const HeavyKeeper& sketch : {NarrowPartial(), WidePartial()}) {
    const size_t word_bytes = sketch.config().BucketBytes();
    const size_t words = sketch.num_arrays() * sketch.width();
    auto blob = SerializeSketch(sketch);
    const Group last = ParseGroups(blob, words, word_bytes).back();
    const size_t live = words % 64;
    ASSERT_EQ(live, 8u);
    // Bit `live` is the first past the last bucket; its word goes last in
    // the group, which is the blob's end, so the count still matches.
    SetMask(&blob, last, last.mask | uint64_t{1} << live);
    InsertWord(&blob, blob.size(), 0x00010001, word_bytes);
    EXPECT_FALSE(DeserializeSketch(blob).has_value()) << word_bytes << "-byte words";
  }
}

TEST(SerializationTest, V3RejectsAPackedZeroWord) {
  for (const HeavyKeeper& sketch : {NarrowPartial(), WidePartial()}) {
    const size_t word_bytes = sketch.config().BucketBytes();
    const size_t words = sketch.num_arrays() * sketch.width();
    const auto blob = SerializeSketch(sketch);
    const Group g = ParseGroups(blob, words, word_bytes).front();
    ASSERT_NE(~g.mask, 0u);
    // Claim the first empty bucket of the first group, packing `word` for
    // it where its bit's rank puts it.
    const int bit = std::countr_one(g.mask);
    const size_t rank = std::popcount(g.mask & ((uint64_t{1} << bit) - 1));
    const auto with_word = [&](uint64_t word) {
      auto out = blob;
      SetMask(&out, g, g.mask | uint64_t{1} << bit);
      InsertWord(&out, g.words_at + rank * word_bytes, word, word_bytes);
      return out;
    };
    EXPECT_FALSE(DeserializeSketch(with_word(0)).has_value()) << word_bytes << "-byte words";
    // The same edit with an occupied word is a valid state.
    EXPECT_TRUE(DeserializeSketch(with_word(0x00010001)).has_value()) << word_bytes;
  }
}

TEST(SerializationTest, V3RejectsAWordCountOtherThanThePayloads) {
  for (const HeavyKeeper& sketch : {NarrowPartial(), WidePartial()}) {
    const size_t word_bytes = sketch.config().BucketBytes();
    const size_t words = sketch.num_arrays() * sketch.width();
    const auto blob = SerializeSketch(sketch);
    const Group g = ParseGroups(blob, words, word_bytes)[1];
    ASSERT_NE(g.mask, 0u);
    auto fewer_bits = blob;  // one word more in the payload than the masks say
    SetMask(&fewer_bits, g, g.mask & (g.mask - 1));
    EXPECT_FALSE(DeserializeSketch(fewer_bits).has_value()) << word_bytes;
    auto more_bits = blob;  // one word fewer
    SetMask(&more_bits, g, g.mask | uint64_t{1} << std::countr_one(g.mask));
    EXPECT_FALSE(DeserializeSketch(more_bits).has_value()) << word_bytes;
    // Trailing bytes, one or a whole empty mask's worth.
    for (const size_t extra : {size_t{1}, size_t{8}}) {
      auto longer = blob;
      longer.resize(blob.size() + extra, 0);
      EXPECT_FALSE(DeserializeSketch(longer).has_value()) << word_bytes << " +" << extra;
    }
  }
}

TEST(SerializationTest, V3RejectsAFieldOverflow) {
  // fp=12 leaves bits 28..31 of a 4-byte word unused; fp=24, bits 40..63
  // of an 8-byte one.
  for (const auto& [fp, used_bits] : {std::pair{12u, 28}, std::pair{24u, 40}}) {
    const HeavyKeeper sketch = MakeLoadedSketch(43, SmallConfig(2, 100, 0, fp), 60);
    const size_t word_bytes = sketch.config().BucketBytes();
    const auto blob = SerializeSketch(sketch);
    const Group g = ParseGroups(blob, 200, word_bytes).front();
    ASSERT_NE(g.mask, 0u);
    for (const int bit : {used_bits - 1, used_bits}) {
      auto flipped = blob;
      uint64_t word = 0;
      std::memcpy(&word, flipped.data() + g.words_at, word_bytes);
      word ^= uint64_t{1} << bit;
      std::memcpy(flipped.data() + g.words_at, &word, word_bytes);
      // A bit inside the fingerprint field is a valid state; above it, not.
      EXPECT_EQ(DeserializeSketch(flipped).has_value(), bit < used_bits)
          << "fp " << fp << " bit " << bit;
    }
  }
}

TEST(SerializationTest, V3RejectsTheAllZeroRng) {
  auto blob = SerializeSketch(NarrowPartial());
  std::fill(blob.begin() + kV2HeaderBytes, blob.begin() + kHeaderBytes, uint8_t{0});
  EXPECT_FALSE(DeserializeSketch(blob).has_value());
}

TEST(SerializationTest, V3RefusesMasksThatCannotFitBeforeAllocating) {
  // w = 2^16 at d = 2 is 2048 groups, whose masks alone need 16 KiB; a
  // payload shorter than that is refused with no slab allocated, which
  // caps what a blob can make the decoder allocate at 64x its size.
  const HeavyKeeper empty(SmallConfig(2, 1, 47));
  auto blob = SerializeSketch(empty);
  ASSERT_EQ(blob.size(), kHeaderBytes + 8);
  const uint64_t w = uint64_t{1} << 16;
  std::memcpy(blob.data() + kWidthAt, &w, sizeof(w));
  const size_t masks = 2 * w / 64 * 8;
  for (const size_t payload : {size_t{8}, masks - 8}) {
    blob.resize(kHeaderBytes + payload, 0);
    const size_t before = g_aligned_allocations.load();
    EXPECT_FALSE(DeserializeSketch(blob).has_value()) << payload;
    EXPECT_EQ(g_aligned_allocations.load(), before)
        << "allocated for a " << payload << "-byte payload";
  }
  // Room for every (empty) mask: a valid empty sketch, which allocates.
  blob.resize(kHeaderBytes + masks, 0);
  const size_t before = g_aligned_allocations.load();
  const auto restored = DeserializeSketch(blob);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->width(), w);
  EXPECT_GT(g_aligned_allocations.load(), before);
  // A width past kMaxWidth cannot have been written by a sketch.
  const uint64_t too_wide = HeavyKeeper::kMaxWidth + 1;
  std::memcpy(blob.data() + kWidthAt, &too_wide, sizeof(too_wide));
  EXPECT_FALSE(DeserializeSketch(blob).has_value());
}

// --- the decay RNG travels with the state ---------------------------------

using InsertFn = void (*)(HeavyKeeper&, FlowId);

// Feeds `stream` to a sketch, snapshots it at `cut`, restores the snapshot
// and feeds the rest to both: the two must end bit-identical. A copy
// restored from the v2 layout (RNG back at the seed) must not, or the
// stream would not have exercised the decay coins after the cut.
void ExpectSameContinuation(const HeavyKeeperConfig& config, InsertFn insert,
                            const std::vector<FlowId>& stream, size_t cut) {
  HeavyKeeper original(config);
  for (size_t i = 0; i < cut; ++i) {
    insert(original, stream[i]);
  }
  auto restored = DeserializeSketch(SerializeSketch(original));
  auto from_seed = DeserializeSketch(PackV2(original));
  ASSERT_TRUE(restored.has_value());
  ASSERT_TRUE(from_seed.has_value());
  for (size_t i = cut; i < stream.size(); ++i) {
    insert(original, stream[i]);
    insert(*restored, stream[i]);
    insert(*from_seed, stream[i]);
  }
  EXPECT_TRUE(std::ranges::equal(restored->SlabImage(), original.SlabImage()));
  EXPECT_EQ(restored->stuck_events(), original.stuck_events());
  EXPECT_EQ(restored->expansions(), original.expansions());
  EXPECT_FALSE(std::ranges::equal(from_seed->SlabImage(), original.SlabImage()));
}

std::vector<FlowId> MouseStream(size_t n, uint64_t flows, uint64_t seed) {
  Rng rng(seed);
  std::vector<FlowId> stream(n);
  for (FlowId& id : stream) {
    id = rng.NextBounded(flows) + 1;
  }
  return stream;
}

void InsertMinimum(HeavyKeeper& sketch, FlowId id) { sketch.InsertMinimum(id, true, 0); }
void InsertBasic(HeavyKeeper& sketch, FlowId id) { sketch.InsertBasic(id); }

TEST(SerializationTest, RestoredSketchFlipsTheSameDecayCoins) {
  const std::vector<FlowId> stream = MouseStream(20000, 2000, 51);
  // d = 2: the scalar Minimum scan.
  ExpectSameContinuation(SmallConfig(2, 64, 53), &InsertMinimum, stream, 10000);
  // d = 4: the vector probe where the host has AVX2 (simd=auto).
  ExpectSameContinuation(SmallConfig(4, 64, 55), &InsertMinimum, stream, 10000);
}

TEST(SerializationTest, RestoredExpandedSketchFlipsTheSameDecayCoins) {
  // Elephants first, holding about half the buckets past the decay cutoff;
  // then mice, which get stuck where both their buckets hold one (so the
  // sketch expands) and decay one another elsewhere, after the cut too.
  HeavyKeeperConfig config = SmallConfig(2, 16, 57);
  config.b = 2;  // decay stops at counters near 40
  config.expansion_threshold = 20;
  config.max_arrays = 4;
  std::vector<FlowId> stream;
  for (int round = 0; round < 200; ++round) {
    for (FlowId elephant = 1; elephant <= 8; ++elephant) {
      stream.push_back(elephant);
    }
  }
  const std::vector<FlowId> mice = MouseStream(20000, 5000, 59);
  for (const FlowId id : mice) {
    stream.push_back(id + 1000);
  }
  const size_t cut = stream.size() - mice.size() / 2;
  HeavyKeeper probe(config);
  for (size_t i = 0; i < cut; ++i) {
    probe.InsertBasic(stream[i]);
  }
  ASSERT_GT(probe.expansions(), 0u) << "the cut must come after an expansion";
  ExpectSameContinuation(config, &InsertBasic, stream, cut);
}

}  // namespace
}  // namespace hk

// Counting replacements of the aligned forms (the default new[] and
// nothrow forms call these).
void* operator new(std::size_t size, std::align_val_t align) {
  hk::g_aligned_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  const size_t alignment = std::max(static_cast<size_t>(align), sizeof(void*));
  if (posix_memalign(&p, alignment, size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
