// Weighted updates (library extension; the paper lists them as unsupported,
// Section III-F). InsertBasicWeighted(id, w) must behave like w unit
// insertions: identical in the deterministic cases, statistically identical
// through the decay case, and never over-estimating.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "common/random.h"
#include "core/heavykeeper.h"
#include "core/hk_topk.h"

namespace hk {
namespace {

HeavyKeeperConfig SmallConfig(uint64_t seed = 7) {
  HeavyKeeperConfig config;
  config.d = 2;
  config.w = 256;
  config.counter_bits = 32;
  config.seed = seed;
  return config;
}

TEST(WeightedInsertTest, MatchingCaseEqualsUnitInsertions) {
  HeavyKeeper weighted(SmallConfig());
  HeavyKeeper unit(SmallConfig());
  weighted.InsertBasicWeighted(1, 500);
  for (int i = 0; i < 500; ++i) {
    unit.InsertBasic(1);
  }
  EXPECT_EQ(weighted.Query(1), unit.Query(1));
  EXPECT_EQ(weighted.Query(1), 500u);
}

TEST(WeightedInsertTest, AccumulatesAcrossCalls) {
  HeavyKeeper sketch(SmallConfig());
  sketch.InsertBasicWeighted(1, 100);
  sketch.InsertBasicWeighted(1, 250);
  EXPECT_EQ(sketch.Query(1), 350u);
}

TEST(WeightedInsertTest, ZeroWeightIsANoOp) {
  HeavyKeeper sketch(SmallConfig());
  sketch.InsertBasicWeighted(1, 10);
  EXPECT_EQ(sketch.InsertBasicWeighted(1, 0), 10u);
  EXPECT_EQ(sketch.Query(1), 10u);
}

TEST(WeightedInsertTest, SaturatesAtCounterWidth) {
  HeavyKeeperConfig config = SmallConfig();
  config.counter_bits = 8;  // max 255
  HeavyKeeper sketch(config);
  sketch.InsertBasicWeighted(1, 1000);
  EXPECT_EQ(sketch.Query(1), 255u);
}

TEST(WeightedInsertTest, HeavyWeightEvictsSmallResident) {
  // A resident with weight 3 faces a challenger of weight 1000: the decay
  // coins at C = 3, 2, 1 almost surely all land within the first few units,
  // and the challenger keeps the remaining weight.
  HeavyKeeperConfig config;
  config.d = 1;
  config.w = 1;
  config.seed = 5;
  config.counter_bits = 32;
  HeavyKeeper sketch(config);
  sketch.InsertBasicWeighted(1, 3);
  const uint32_t estimate = sketch.InsertBasicWeighted(2, 1000);
  EXPECT_GT(estimate, 950u);
  EXPECT_EQ(sketch.Query(1), 0u);
  EXPECT_EQ(sketch.Query(2), estimate);
}

TEST(WeightedInsertTest, ImmovableResidentStaysAndStuckIsCounted) {
  HeavyKeeperConfig config;
  config.d = 1;
  config.w = 1;
  config.seed = 9;
  config.counter_bits = 32;
  HeavyKeeper sketch(config);
  sketch.InsertBasicWeighted(1, 100000);  // far beyond the decay cutoff
  const uint64_t before = sketch.stuck_events();
  EXPECT_EQ(sketch.InsertBasicWeighted(2, 100000), 0u);
  EXPECT_EQ(sketch.Query(1), 100000u);
  EXPECT_GT(sketch.stuck_events(), before);
}

TEST(WeightedInsertTest, NeverOverestimatesOnWeightedStream) {
  // Byte-count style workload: random weights, collision-free fingerprints.
  HeavyKeeperConfig config = SmallConfig(11);
  config.fingerprint_bits = 32;
  HeavyKeeper sketch(config);
  std::map<FlowId, uint64_t> truth;
  Rng rng(13);
  for (int i = 0; i < 5000; ++i) {
    const FlowId id = rng.NextBounded(300) + 1;
    const uint32_t weight = static_cast<uint32_t>(rng.NextBounded(1500)) + 40;  // bytes
    sketch.InsertBasicWeighted(id, weight);
    truth[id] += weight;
  }
  for (const auto& [id, total] : truth) {
    EXPECT_LE(sketch.Query(id), total) << "flow " << id;
  }
}

// --- unmonitored-flow weighted decay path ---------------------------------
//
// At the pipeline level, InsertWeighted on a flow *not* in the candidate
// store must replay its weight unit by unit (the admission gates depend on
// the evolving nmin, and decay coins must be spent at the per-unit counter
// values). With a shared seed that replay is bit-identical to the repeated
// unit insertions - including the decay coins it flips against resident
// fingerprints - which is exactly the TopKAlgorithm contract rule 1.

// A pipeline whose store is saturated by `hot` flows, so `challenger` is
// unmonitored and its weighted inserts take the decay/admission path.
std::unique_ptr<HeavyKeeperTopK<>> SaturatedPipeline(uint64_t seed) {
  HeavyKeeperConfig config;
  config.d = 2;
  config.w = 64;  // small arrays: the challenger collides with residents
  config.counter_bits = 32;
  config.seed = seed;
  auto pipeline = std::make_unique<HeavyKeeperTopK<>>(HkVersion::kMinimum, config, /*k=*/8,
                                                      /*key_bytes=*/4);
  for (FlowId hot = 100; hot < 108; ++hot) {
    for (int i = 0; i < 50; ++i) {
      pipeline->Insert(hot);
    }
  }
  return pipeline;
}

TEST(WeightedInsertTest, UnmonitoredWeightedReplaysUnitByUnitExactly) {
  for (const uint64_t seed : {3u, 11u, 29u}) {
    auto weighted = SaturatedPipeline(seed);
    auto repeated = SaturatedPipeline(seed);
    ASSERT_FALSE(weighted->store().Contains(7));  // the challenger is unmonitored

    weighted->InsertWeighted(7, 40);
    for (int u = 0; u < 40; ++u) {
      repeated->Insert(7);
    }

    // Bit-identical sketch state (decay coins included) and reports.
    EXPECT_EQ(weighted->sketch().DebugDump(), repeated->sketch().DebugDump()) << seed;
    EXPECT_EQ(weighted->TopK(8), repeated->TopK(8)) << seed;
    EXPECT_EQ(weighted->EstimateSize(7), repeated->EstimateSize(7)) << seed;
  }
}

TEST(WeightedInsertTest, UnmonitoredWeightedBatchMatchesScalarWeighted) {
  for (const uint64_t seed : {5u, 17u}) {
    auto batched = SaturatedPipeline(seed);
    auto scalar = SaturatedPipeline(seed);

    const std::vector<FlowId> ids = {7, 9, 7, 11, 9, 7};
    const std::vector<uint64_t> weights = {12, 3, 0, 25, 7, 5};
    batched->InsertBatch(ids, weights);
    for (size_t i = 0; i < ids.size(); ++i) {
      scalar->InsertWeighted(ids[i], weights[i]);
    }

    EXPECT_EQ(batched->sketch().DebugDump(), scalar->sketch().DebugDump()) << seed;
    EXPECT_EQ(batched->TopK(8), scalar->TopK(8)) << seed;
  }
}

TEST(WeightedInsertTest, WeightedAdmissionMatchesUnitAdmission) {
  // The challenger's weighted insert must admit it to the store at exactly
  // the same point in the stream as the unit-by-unit run - Theorem 1's
  // nmin + 1 gate evaluated per unit.
  for (const uint64_t seed : {7u, 13u, 23u}) {
    auto weighted = SaturatedPipeline(seed);
    auto repeated = SaturatedPipeline(seed);
    const uint64_t big = 200;  // enough to decay through any resident here
    weighted->InsertWeighted(9, big);
    for (uint64_t u = 0; u < big; ++u) {
      repeated->Insert(9);
    }
    EXPECT_EQ(weighted->store().Contains(9), repeated->store().Contains(9)) << seed;
    EXPECT_EQ(weighted->EstimateSize(9), repeated->EstimateSize(9)) << seed;
  }
}

// --- collapsed geometric weighted decay (config.collapsed_weighted_decay) --
//
// The opt-in collapsed path replaces the per-unit decay coin replay with one
// geometric sample per counter level (DecayTable::GeometricTrials): exactly
// equivalent for weight == 1 (the last unit always flips a plain coin) and
// statistically equivalent for larger weights, closing the unmonitored
// "replay tax" the ladder's L2/weighted rows measure.

HeavyKeeperConfig CollapsedConfig(uint64_t seed, bool collapsed) {
  HeavyKeeperConfig config;
  config.d = 1;
  config.w = 1;
  config.seed = seed;
  config.counter_bits = 32;
  config.collapsed_weighted_decay = collapsed;
  return config;
}

TEST(CollapsedWeightedDecayTest, WeightOneIsBitIdenticalToReplay) {
  // A weight-1 stream must leave both modes in identical states: the
  // collapsed path's last (here: only) unit flips the same plain coin.
  for (const uint64_t seed : {2u, 19u, 83u}) {
    HeavyKeeperConfig replay = SmallConfig(seed);
    HeavyKeeperConfig collapsed = SmallConfig(seed);
    collapsed.collapsed_weighted_decay = true;
    HeavyKeeper a(replay);
    HeavyKeeper b(collapsed);
    Rng rng(seed * 31);
    for (int i = 0; i < 8000; ++i) {
      const FlowId id = 1 + rng.NextBounded(60);  // heavy collisions on w=256
      ASSERT_EQ(a.InsertBasicWeighted(id, 1), b.InsertBasicWeighted(id, 1)) << i;
    }
    EXPECT_EQ(a.DebugDump(), b.DebugDump()) << seed;
  }
}

TEST(CollapsedWeightedDecayTest, DeterministicCasesUnaffected) {
  // Matching and empty buckets collapse identically in both modes; only the
  // randomized mismatch case differs in RNG consumption.
  HeavyKeeper replay(CollapsedConfig(5, false));
  HeavyKeeper collapsed(CollapsedConfig(5, true));
  EXPECT_EQ(replay.InsertBasicWeighted(1, 500), collapsed.InsertBasicWeighted(1, 500));
  EXPECT_EQ(replay.InsertBasicWeighted(1, 250), collapsed.InsertBasicWeighted(1, 250));
  EXPECT_EQ(replay.Query(1), collapsed.Query(1));
  EXPECT_EQ(replay.Query(1), 750u);
}

TEST(CollapsedWeightedDecayTest, ChiSquareMatchesPerUnitReplay) {
  // Resident counter C0 faces a fixed challenger weight; the distribution
  // of the resident's surviving counter (0 = evicted) must match between
  // the replay and collapsed modes. Two-sample chi-square over a fixed
  // seed schedule - deterministic, so a failure is a real semantics drift.
  constexpr uint32_t kResident = 12;
  constexpr uint32_t kWeight = 12;
  constexpr int kTrials = 3000;
  constexpr int kBins = kResident + 1;
  std::vector<int> replay_counts(kBins, 0);
  std::vector<int> collapsed_counts(kBins, 0);
  for (int t = 0; t < kTrials; ++t) {
    const uint64_t seed = 10000 + t;
    for (const bool collapsed : {false, true}) {
      HeavyKeeper sketch(CollapsedConfig(seed, collapsed));
      sketch.InsertBasicWeighted(1, kResident);
      sketch.InsertBasicWeighted(2, kWeight);
      const uint32_t survived = sketch.Query(1);
      ASSERT_LE(survived, kResident);
      (collapsed ? collapsed_counts : replay_counts)[survived] += 1;
    }
  }
  // Pool sparse bins (pooled expectation < 8) to keep the statistic valid.
  double chi2 = 0.0;
  int df = -1;
  int pooled_a = 0;
  int pooled_b = 0;
  auto accumulate = [&](int a, int b) {
    const double ea = (a + b) / 2.0;
    chi2 += (a - ea) * (a - ea) / ea + (b - ea) * (b - ea) / ea;
    ++df;
  };
  for (int bin = 0; bin < kBins; ++bin) {
    pooled_a += replay_counts[bin];
    pooled_b += collapsed_counts[bin];
    if (pooled_a + pooled_b >= 16) {
      accumulate(pooled_a, pooled_b);
      pooled_a = pooled_b = 0;
    }
  }
  if (pooled_a + pooled_b > 0) {
    accumulate(pooled_a, pooled_b);
  }
  ASSERT_GE(df, 4) << "outcome distribution collapsed into too few bins";
  // Critical value at alpha = 0.001 for df <= 12 is < 32.9; the fixed seeds
  // make the comparison reproducible.
  EXPECT_LT(chi2, 32.9) << "collapsed decay distribution drifted from replay";
}

TEST(CollapsedWeightedDecayTest, PipelineWeightOneStreamBitIdentical) {
  // At the pipeline level a weight-1 stream through the collapsed spec must
  // be indistinguishable from the replay spec, store state included.
  for (const uint64_t seed : {3u, 11u}) {
    auto replay = SaturatedPipeline(seed);
    HeavyKeeperConfig config;
    config.d = 2;
    config.w = 64;
    config.counter_bits = 32;
    config.seed = seed;
    config.collapsed_weighted_decay = true;
    auto collapsed = std::make_unique<HeavyKeeperTopK<>>(HkVersion::kMinimum, config,
                                                         /*k=*/8, /*key_bytes=*/4);
    for (FlowId hot = 100; hot < 108; ++hot) {
      for (int i = 0; i < 50; ++i) {
        collapsed->Insert(hot);
      }
    }
    Rng rng(seed + 99);
    for (int i = 0; i < 5000; ++i) {
      const FlowId id = 1 + rng.NextBounded(40);
      replay->InsertWeighted(id, 1);
      collapsed->InsertWeighted(id, 1);
    }
    EXPECT_EQ(replay->sketch().DebugDump(), collapsed->sketch().DebugDump()) << seed;
    EXPECT_EQ(replay->TopK(8), collapsed->TopK(8)) << seed;
  }
}

TEST(CollapsedWeightedDecayTest, PipelineFindsTheSameByteElephants) {
  // Full byte-weighted stream: the collapsed pipeline must report the same
  // elephant set with estimates in the same ballpark (different RNG paths,
  // so only statistical agreement is required).
  auto make = [](bool collapsed) {
    HeavyKeeperConfig config = HeavyKeeperConfig::FromMemory(16 * 1024, 2, 7);
    config.counter_bits = 32;
    config.collapsed_weighted_decay = collapsed;
    return std::make_unique<HeavyKeeperTopK<>>(HkVersion::kMinimum, config, /*k=*/10,
                                               /*key_bytes=*/4);
  };
  auto replay = make(false);
  auto collapsed = make(true);
  Rng rng(401);
  for (int i = 0; i < 40000; ++i) {
    FlowId id;
    uint64_t bytes;
    if (i % 8 == 0) {
      id = 1 + rng.NextBounded(5);  // jumbo senders
      bytes = 1500;
    } else {
      id = 1000 + rng.NextBounded(4000);  // mice: unmonitored replay path
      bytes = 64 + rng.NextBounded(200);
    }
    replay->InsertWeighted(id, bytes);
    collapsed->InsertWeighted(id, bytes);
  }
  for (FlowId id = 1; id <= 5; ++id) {
    const double r = static_cast<double>(replay->EstimateSize(id));
    const double c = static_cast<double>(collapsed->EstimateSize(id));
    ASSERT_GT(r, 0.0) << id;
    ASSERT_GT(c, 0.0) << id;
    EXPECT_NEAR(c / r, 1.0, 0.25) << "flow " << id;
  }
}

TEST(CollapsedWeightedDecayTest, UnmonitoredRunDeterministicSituations) {
  // Direct checks of MinimumWeightedUnmonitoredRun's arithmetic phases.
  HeavyKeeperConfig config = CollapsedConfig(13, true);
  {
    // Gate-open match: admission after exactly nmin + 1 - c units.
    HeavyKeeper sketch(config);
    sketch.InsertBasicWeighted(1, 3);  // matching bucket at c = 3
    uint64_t consumed = 0;
    bool admitted = false;
    ASSERT_TRUE(sketch.MinimumWeightedUnmonitoredRun(sketch.Prepare(1), 100, /*nmin=*/10,
                                                     &consumed, &admitted));
    EXPECT_TRUE(admitted);
    EXPECT_EQ(consumed, 8u);  // 3 -> 11 = nmin + 1
    EXPECT_EQ(sketch.Query(1), 11u);
  }
  {
    // Saturation below nmin + 1: no admission, the whole weight is consumed.
    HeavyKeeperConfig narrow = CollapsedConfig(17, true);
    narrow.counter_bits = 4;  // counter_max = 15
    HeavyKeeper sketch(narrow);
    sketch.InsertBasicWeighted(1, 3);
    uint64_t consumed = 0;
    bool admitted = false;
    ASSERT_TRUE(sketch.MinimumWeightedUnmonitoredRun(sketch.Prepare(1), 100, /*nmin=*/20,
                                                     &consumed, &admitted));
    EXPECT_FALSE(admitted);
    EXPECT_EQ(consumed, 100u);
    EXPECT_EQ(sketch.Query(1), 15u);  // pegged at the 4-bit limit
  }
  {
    // Immovable minimum (past the decay cutoff): per-unit stuck accounting,
    // collapsed into one addition.
    HeavyKeeper sketch(config);
    sketch.InsertBasicWeighted(1, 100000);  // far beyond the cutoff
    const uint64_t before = sketch.stuck_events();
    uint64_t consumed = 0;
    bool admitted = false;
    ASSERT_TRUE(sketch.MinimumWeightedUnmonitoredRun(sketch.Prepare(2), 777, /*nmin=*/5,
                                                     &consumed, &admitted));
    EXPECT_FALSE(admitted);
    EXPECT_EQ(consumed, 777u);
    EXPECT_EQ(sketch.stuck_events(), before + 777);
    EXPECT_EQ(sketch.Query(1), 100000u);  // resident untouched
  }
  {
    // The run refuses to apply when the collapse is off or expansion is on.
    HeavyKeeper off(CollapsedConfig(19, false));
    off.InsertBasicWeighted(1, 5);
    uint64_t consumed = 0;
    bool admitted = false;
    EXPECT_FALSE(off.MinimumWeightedUnmonitoredRun(off.Prepare(2), 10, 3, &consumed,
                                                   &admitted));
    HeavyKeeperConfig expanding = CollapsedConfig(23, true);
    expanding.expansion_threshold = 4;
    HeavyKeeper exp_sketch(expanding);
    exp_sketch.InsertBasicWeighted(1, 5);
    EXPECT_FALSE(exp_sketch.MinimumWeightedUnmonitoredRun(exp_sketch.Prepare(2), 10, 3,
                                                          &consumed, &admitted));
  }
}

TEST(WeightedInsertTest, FindsByteCountElephants) {
  // Elephants by bytes, not packets: a few flows send jumbo frames.
  HeavyKeeperConfig config = HeavyKeeperConfig::FromMemory(16 * 1024, 2, 3);
  config.counter_bits = 32;
  HeavyKeeper sketch(config);
  Rng rng(17);
  for (int i = 0; i < 30000; ++i) {
    if (i % 10 == 0) {
      sketch.InsertBasicWeighted(rng.NextBounded(5) + 1, 1500);  // jumbo senders
    } else {
      sketch.InsertBasicWeighted(1000 + rng.NextBounded(5000), 64);  // tiny mice
    }
  }
  for (FlowId id = 1; id <= 5; ++id) {
    EXPECT_GT(sketch.Query(id), 500'000u) << "jumbo flow " << id << " lost";
  }
}

}  // namespace
}  // namespace hk
