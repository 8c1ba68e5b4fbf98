#include "core/hk_topk.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "common/random.h"
#include "metrics/accuracy.h"
#include "trace/generators.h"
#include "trace/oracle.h"

namespace hk {
namespace {

Trace SkewedTrace(uint64_t seed, uint64_t packets = 200000) {
  ZipfTraceConfig config;
  config.num_packets = packets;
  config.num_ranks = packets / 10;
  config.skew = 1.0;
  config.seed = seed;
  return MakeZipfTrace(config);
}

class HkVersionSweep : public ::testing::TestWithParam<HkVersion> {};

TEST_P(HkVersionSweep, HighPrecisionOnSkewedStream) {
  const Trace trace = SkewedTrace(31);
  Oracle oracle(trace);
  auto algo = HeavyKeeperTopK<>::Builder()
                  .version(GetParam())
                  .memory_bytes(50 * 1024)
                  .k(100)
                  .key_kind(KeyKind::kSynthetic4B)
                  .seed(1)
                  .Build();
  for (const FlowId id : trace.packets) {
    algo->Insert(id);
  }
  const auto report = EvaluateTopK(algo->TopK(100), oracle, 100);
  EXPECT_GE(report.precision, 0.9) << HkVersionName(GetParam());
  EXPECT_LE(report.are, 0.1) << HkVersionName(GetParam());
}

TEST_P(HkVersionSweep, EstimatesNeverExceedTruthWithWideFingerprints) {
  // Theorem 2 (no over-estimation) assumes no fingerprint collisions; with
  // 32-bit fingerprints and ~20k flows collisions are vanishingly rare.
  const Trace trace = SkewedTrace(37, 100000);
  Oracle oracle(trace);
  HeavyKeeperConfig config;
  config.d = 2;
  config.w = 4096;
  config.fingerprint_bits = 32;
  config.counter_bits = 32;
  config.seed = 5;
  HeavyKeeperTopK<> algo(GetParam(), config, 100, 4);
  for (const FlowId id : trace.packets) {
    algo.Insert(id);
  }
  for (const auto& fc : algo.TopK(100)) {
    EXPECT_LE(fc.count, oracle.Count(fc.id))
        << HkVersionName(GetParam()) << " flow " << fc.id;
  }
}

TEST_P(HkVersionSweep, DeterministicAcrossRuns) {
  const Trace trace = SkewedTrace(41, 50000);
  auto a = HeavyKeeperTopK<>::Builder()
               .version(GetParam())
               .memory_bytes(20 * 1024)
               .k(50)
               .key_kind(KeyKind::kSynthetic4B)
               .seed(9)
               .Build();
  auto b = HeavyKeeperTopK<>::Builder()
               .version(GetParam())
               .memory_bytes(20 * 1024)
               .k(50)
               .key_kind(KeyKind::kSynthetic4B)
               .seed(9)
               .Build();
  for (const FlowId id : trace.packets) {
    a->Insert(id);
    b->Insert(id);
  }
  const auto ta = a->TopK(50);
  const auto tb = b->TopK(50);
  ASSERT_EQ(ta.size(), tb.size());
  for (size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].id, tb[i].id);
    EXPECT_EQ(ta[i].count, tb[i].count);
  }
}

INSTANTIATE_TEST_SUITE_P(Versions, HkVersionSweep,
                         ::testing::Values(HkVersion::kBasic, HkVersion::kParallel,
                                           HkVersion::kMinimum),
                         [](const auto& info) { return HkVersionName(info.param); });

TEST(HkTopKTest, MemoryBudgetSplitsStoreAndSketch) {
  const size_t budget = 30 * 1024;
  auto algo = HeavyKeeperTopK<>::Builder()
                  .version(HkVersion::kParallel)
                  .memory_bytes(budget)
                  .k(100)
                  .key_kind(KeyKind::kFiveTuple13B)
                  .seed(1)
                  .Build();
  EXPECT_LE(algo->MemoryBytes(), budget + 8);
  EXPECT_GT(algo->MemoryBytes(), budget * 9 / 10);
  // Store: k entries; sketch gets the rest.
  EXPECT_EQ(algo->store().capacity(), 100u);
}

TEST(HkTopKTest, NameEncodesVersion) {
  auto p = HeavyKeeperTopK<>::Builder()
               .version(HkVersion::kParallel)
               .memory_bytes(1024)
               .k(10)
               .key_kind(KeyKind::kSynthetic4B)
               .seed(1)
               .Build();
  auto m = HeavyKeeperTopK<>::Builder()
               .version(HkVersion::kMinimum)
               .memory_bytes(1024)
               .k(10)
               .key_kind(KeyKind::kSynthetic4B)
               .seed(1)
               .Build();
  EXPECT_EQ(p->name(), "HeavyKeeper-Parallel");
  EXPECT_EQ(m->name(), "HeavyKeeper-Minimum");
}

TEST(HkTopKTest, OptimizationIAdmissionOnlyAtNminPlusOne) {
  // Once the store is full, the Parallel/Minimum pipelines only admit a
  // flow whose estimate is exactly nmin+1 (Theorem 1). We verify admission
  // bookkeeping stays consistent on a random stream.
  const Trace trace = SkewedTrace(43, 100000);
  auto algo = HeavyKeeperTopK<>::Builder()
                  .version(HkVersion::kParallel)
                  .memory_bytes(20 * 1024)
                  .k(20)
                  .key_kind(KeyKind::kSynthetic4B)
                  .seed(3)
                  .Build();
  for (const FlowId id : trace.packets) {
    algo->Insert(id);
  }
  const auto top = algo->TopK(20);
  EXPECT_EQ(top.size(), 20u);
  // Every admitted flow carries a positive estimate.
  for (const auto& fc : top) {
    EXPECT_GT(fc.count, 0u);
  }
}

TEST(HkTopKTest, MonitoredFlowsKeepRunningMax) {
  // A monitored flow's stored value never decreases even when the sketch
  // decays underneath it (Algorithm 1 line 22: max-update).
  HeavyKeeperConfig config;
  config.d = 1;
  config.w = 1;  // maximum contention
  config.seed = 7;
  HeavyKeeperTopK<> algo(HkVersion::kParallel, config, 4, 4);
  for (int i = 0; i < 100; ++i) {
    algo.Insert(1);
  }
  const uint64_t peak = algo.EstimateSize(1);
  ASSERT_GE(peak, 90u);
  // Another flow fights for the bucket; flow 1's stored value must hold.
  for (int i = 0; i < 100; ++i) {
    algo.Insert(2);
  }
  EXPECT_GE(algo.EstimateSize(1), peak);
}

TEST(HkTopKTest, MinimumBeatsParallelUnderTightMemory) {
  // Figure 23's qualitative claim: under very tight memory the Minimum
  // version's precision is far higher (no duplicate copies of each flow).
  const Trace trace = SkewedTrace(47, 300000);
  Oracle oracle(trace);
  const size_t budget = 6 * 1024;
  auto parallel = HeavyKeeperTopK<>::Builder()
                      .version(HkVersion::kParallel)
                      .memory_bytes(budget)
                      .k(100)
                      .key_kind(KeyKind::kSynthetic4B)
                      .seed(1)
                      .Build();
  auto minimum = HeavyKeeperTopK<>::Builder()
                     .version(HkVersion::kMinimum)
                     .memory_bytes(budget)
                     .k(100)
                     .key_kind(KeyKind::kSynthetic4B)
                     .seed(1)
                     .Build();
  for (const FlowId id : trace.packets) {
    parallel->Insert(id);
    minimum->Insert(id);
  }
  const double pp = EvaluateTopK(parallel->TopK(100), oracle, 100).precision;
  const double pm = EvaluateTopK(minimum->TopK(100), oracle, 100).precision;
  EXPECT_GT(pm + 0.02, pp) << "Minimum should not lose to Parallel when memory is tight";
}

TEST(HkTopKTest, EstimateSizeFallsBackToSketch) {
  auto algo = HeavyKeeperTopK<>::Builder()
                  .version(HkVersion::kParallel)
                  .memory_bytes(10 * 1024)
                  .k(2)
                  .key_kind(KeyKind::kSynthetic4B)
                  .seed(1)
                  .Build();
  // Fill the tiny store with two hot flows.
  for (int i = 0; i < 100; ++i) {
    algo->Insert(1);
    algo->Insert(2);
  }
  for (int i = 0; i < 30; ++i) {
    algo->Insert(3);  // not admitted (store full, estimate gated)
  }
  // Flow 3 is not tracked but the sketch still holds an estimate.
  EXPECT_FALSE(algo->store().Contains(3));
  EXPECT_GT(algo->EstimateSize(3), 0u);
}

}  // namespace
}  // namespace hk
