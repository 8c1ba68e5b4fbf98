#include "core/serialization.h"

#include <gtest/gtest.h>

#include <cstring>

#include "common/random.h"
#include "trace/generators.h"

namespace hk {
namespace {

HeavyKeeper MakeLoadedSketch(uint64_t seed) {
  HeavyKeeperConfig config;
  config.d = 2;
  config.w = 512;
  config.seed = seed;
  HeavyKeeper sketch(config);
  Rng rng(seed ^ 0x11);
  for (int i = 0; i < 20000; ++i) {
    sketch.InsertBasic(rng.NextBounded(3000) + 1);
  }
  return sketch;
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

TEST(SerializationTest, RejectsTruncation) {
  const auto buffer = SerializeSketch(MakeLoadedSketch(17));
  for (const size_t cut : {buffer.size() - 1, buffer.size() / 2, size_t{16}}) {
    EXPECT_FALSE(DeserializeSketch(buffer.data(), cut).has_value()) << "cut " << cut;
  }
}

TEST(SerializationTest, RejectsTrailingBytes) {
  auto buffer = SerializeSketch(MakeLoadedSketch(19));
  buffer.push_back(0);
  EXPECT_FALSE(DeserializeSketch(buffer).has_value());
}

TEST(SerializationTest, RejectsEveryVersionButTwo) {
  // The version field follows the 8-byte magic. An empty sketch's payload
  // is resized to what a v1 blob of its geometry held - one 8-byte (fp, c)
  // pair per bucket, all empty - so v1 is refused for its version alone.
  HeavyKeeperConfig config;
  config.d = 2;
  config.w = 512;
  auto buffer = SerializeSketch(HeavyKeeper(config));
  ASSERT_TRUE(DeserializeSketch(buffer).has_value());
  buffer.resize(96 + 2 * 512 * 8, 0);
  for (const uint32_t version : {0u, 1u, 3u}) {
    std::memcpy(buffer.data() + 8, &version, sizeof(version));
    EXPECT_FALSE(DeserializeSketch(buffer).has_value()) << "version " << version;
  }
}

TEST(SerializationTest, RejectsGeometryBeyondPreparedArrayLimit) {
  // A legitimate writer can never produce more than kMaxPreparedArrays
  // arrays (the constructor clamps d and max_arrays). A crafted header
  // claiming d = 16 would otherwise restore a sketch whose Prepare()
  // overruns its fixed idx[kMaxPreparedArrays] handle.
  auto buffer = SerializeSketch(MakeLoadedSketch(29));  // d=2, w=512, v2
  // Header offsets: magic(8) version(4) d@12 w@20 b@28 decay@36 fp@40
  // cb@44 seed@48 expansion_threshold@56 max_arrays@64 stuck@72
  // expansions@80 num_arrays@88, payload@96. Rewrite d, max_arrays and
  // num_arrays to 16 and pad the payload so every *other* consistency
  // check passes - only the kMaxPreparedArrays guard can reject it.
  const uint64_t bad = HeavyKeeper::kMaxPreparedArrays * 2;
  std::memcpy(buffer.data() + 12, &bad, sizeof(bad));
  std::memcpy(buffer.data() + 64, &bad, sizeof(bad));
  std::memcpy(buffer.data() + 88, &bad, sizeof(bad));
  buffer.resize(96 + static_cast<size_t>(bad) * 512 * 4, 0);
  EXPECT_FALSE(DeserializeSketch(buffer).has_value());

  const uint64_t zero_d = 0;
  std::memcpy(buffer.data() + 12, &zero_d, sizeof(zero_d));
  EXPECT_FALSE(DeserializeSketch(buffer).has_value());
}

TEST(SerializationTest, V2PayloadIsPackedWordSized) {
  const HeavyKeeper sketch = MakeLoadedSketch(23);  // default 16+16 geometry
  const auto buffer = SerializeSketch(sketch);
  // 96-byte header, then one packed 4-byte word per bucket.
  const size_t buckets = sketch.num_arrays() * sketch.width();
  EXPECT_EQ(buffer.size(), 96 + 4 * buckets);
}

}  // namespace
}  // namespace hk
