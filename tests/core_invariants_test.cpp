// Property suites for the paper's theorems, swept across configurations.
//
//   Theorem 2/4 (no over-estimation): with collision-free fingerprints,
//   every HeavyKeeper counter for a flow is <= its true count, at all times.
//
//   Theorem 1: when the candidate store is full and a new flow is admitted,
//   its reported estimate is exactly nmin + 1.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>

#include "common/random.h"
#include "core/heavykeeper.h"
#include "core/hk_topk.h"
#include "ovs/pipeline.h"
#include "sketch/registry.h"
#include "summary/min_heap.h"
#include "trace/generators.h"
#include "trace/oracle.h"

namespace hk {
namespace {

using Config = std::tuple<int /*version*/, size_t /*d*/, size_t /*w*/, double /*b*/,
                          uint64_t /*seed*/>;

class NoOverestimationSweep : public ::testing::TestWithParam<Config> {};

TEST_P(NoOverestimationSweep, EstimateNeverExceedsTruthAtAnyTime) {
  const auto [version_int, d, w, b, seed] = GetParam();
  const auto version = static_cast<HkVersion>(version_int);

  HeavyKeeperConfig config;
  config.d = d;
  config.w = w;
  config.b = b;
  config.fingerprint_bits = 32;  // collision-free at this flow count
  config.counter_bits = 32;
  config.seed = seed;
  HeavyKeeper hk(config);

  std::map<FlowId, uint64_t> truth;
  Rng rng(seed ^ 0xabcdULL);
  for (int i = 0; i < 30000; ++i) {
    // Skewed stream: 10 hot flows + long tail.
    const FlowId id = (rng.NextBounded(100) < 60) ? rng.NextBounded(10) + 1
                                                  : rng.NextBounded(3000) + 100;
    ++truth[id];
    switch (version) {
      case HkVersion::kBasic:
        hk.InsertBasic(id);
        break;
      case HkVersion::kParallel:
        hk.InsertParallel(id, true, 0);
        break;
      case HkVersion::kMinimum:
        hk.InsertMinimum(id, true, 0);
        break;
    }
    if (i % 500 == 0) {
      for (const auto& [fid, count] : truth) {
        ASSERT_LE(hk.Query(fid), count) << "packet " << i << " flow " << fid;
      }
    }
  }
  for (const auto& [fid, count] : truth) {
    EXPECT_LE(hk.Query(fid), count) << "flow " << fid;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NoOverestimationSweep,
    ::testing::Combine(::testing::Values(0, 1, 2),          // Basic/Parallel/Minimum
                       ::testing::Values<size_t>(1, 2, 4),  // d
                       ::testing::Values<size_t>(64, 1024),  // w
                       ::testing::Values(1.08, 1.3),        // b
                       ::testing::Values<uint64_t>(1, 99)));

class Theorem1Sweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Theorem1Sweep, AdmittedFlowsReportNminPlusOne) {
  // Instrumented re-implementation of the Parallel pipeline admission to
  // observe the (estimate, nmin) pairs at admission time.
  HeavyKeeperConfig config;
  config.d = 2;
  config.w = 2048;
  config.fingerprint_bits = 32;  // rule out collisions: test the theorem itself
  config.counter_bits = 32;
  config.seed = GetParam();
  HeavyKeeper sketch(config);
  IndexedMinHeap store(16);

  Rng rng(GetParam() ^ 0x7177ULL);
  int admissions = 0;
  for (int i = 0; i < 40000; ++i) {
    const FlowId id = (rng.NextBounded(100) < 50) ? rng.NextBounded(30) + 1
                                                  : rng.NextBounded(2000) + 100;
    const bool monitored = store.Contains(id);
    const uint64_t nmin = store.Full() ? store.MinCount() : ~0ULL;
    const uint32_t est = sketch.InsertParallel(id, monitored, nmin);
    if (monitored) {
      store.RaiseCount(id, est);
    } else if (!store.Full()) {
      store.Insert(id, est);
    } else if (est > store.MinCount()) {
      // Theorem 1: collision-free => est can only be nmin + 1 here.
      ASSERT_EQ(est, store.MinCount() + 1) << "packet " << i;
      store.ReplaceMin(id, est);
      ++admissions;
    }
  }
  EXPECT_GT(admissions, 0) << "sweep never exercised the admission path";
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem1Sweep, ::testing::Values(3, 7, 11, 19, 23));

class PipelinePrecisionSweep
    : public ::testing::TestWithParam<std::tuple<int, double, uint64_t>> {};

TEST_P(PipelinePrecisionSweep, PrecisionScalesWithSkew) {
  const auto [version_int, skew, seed] = GetParam();
  const auto version = static_cast<HkVersion>(version_int);
  ZipfTraceConfig tconfig;
  tconfig.num_packets = 150000;
  tconfig.num_ranks = 30000;
  tconfig.skew = skew;
  tconfig.seed = seed;
  const Trace trace = MakeZipfTrace(tconfig);
  Oracle oracle(trace);

  auto algo = HeavyKeeperTopK<>::Builder()
                  .version(version)
                  .memory_bytes(40 * 1024)
                  .k(50)
                  .key_kind(KeyKind::kSynthetic4B)
                  .seed(seed)
                  .Build();
  for (const FlowId id : trace.packets) {
    algo->Insert(id);
  }
  const auto top = algo->TopK(50);
  const uint64_t kth = oracle.KthSize(50);
  size_t correct = 0;
  for (const auto& fc : top) {
    if (oracle.Count(fc.id) >= kth) {
      ++correct;
    }
  }
  // At 40KB for 30k flows even the flattest sweep point must exceed 80%.
  EXPECT_GE(correct, 40u) << "skew " << skew;
}

INSTANTIATE_TEST_SUITE_P(Sweep, PipelinePrecisionSweep,
                         ::testing::Combine(::testing::Values(1, 2),  // Parallel, Minimum
                                            ::testing::Values(0.8, 1.0, 1.5, 2.0),
                                            ::testing::Values<uint64_t>(5, 6)));

// --- seed determinism (the audit the sharded pipeline depends on) ---------
//
// Everything downstream - differential tests, sharded-vs-single
// comparisons, bench JSON trajectories - assumes a seed pins the world:
// trace generators must be pure functions of their config, and the
// sharded pipeline must be a pure function of (seed, shard count, stream),
// no matter how packets are grouped into bursts or which internal order
// the shards are touched in.

TEST(SeedDeterminismTest, TraceGeneratorsArePureFunctionsOfTheirConfig) {
  ZipfTraceConfig config;
  config.num_packets = 50'000;
  config.num_ranks = 5'000;
  config.skew = 1.1;
  config.seed = 77;
  EXPECT_EQ(MakeZipfTrace(config).packets, MakeZipfTrace(config).packets);

  config.seed = 78;
  const auto other = MakeZipfTrace(config).packets;
  config.seed = 77;
  EXPECT_NE(MakeZipfTrace(config).packets, other);

  EXPECT_EQ(MakeCampusTrace(20'000, 5).packets, MakeCampusTrace(20'000, 5).packets);
  EXPECT_EQ(MakeCaidaTrace(20'000, 5).packets, MakeCaidaTrace(20'000, 5).packets);
}

TEST(SeedDeterminismTest, WirePacketsArePureFunctionsOfTheirConfig) {
  const auto a = MakeWirePackets(20'000, 2'000, 1.0, 9);
  const auto b = MakeWirePackets(20'000, 2'000, 1.0, 9);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(ParseHeader(a[i]).Id(), ParseHeader(b[i]).Id()) << i;
  }
}

TEST(SeedDeterminismTest, ShardedPipelineIsAPureFunctionOfSeedAndShardCount) {
  ZipfTraceConfig tconfig;
  tconfig.num_packets = 60'000;
  tconfig.num_ranks = 8'000;
  tconfig.skew = 1.2;
  tconfig.seed = 41;
  const auto packets = MakeZipfTrace(tconfig).packets;

  SketchDefaults defaults;
  defaults.memory_bytes = 40 * 1024;
  defaults.k = 40;
  defaults.seed = 6;

  for (const size_t shards : {1u, 2u, 5u, 8u}) {
    const std::string spec = "Sharded:n=" + std::to_string(shards) + ",inner=HK-Minimum";
    // Scalar inserts (shards touched in arrival order) vs one whole-stream
    // batch (shards touched in index order): grouping must not matter.
    auto scalar = MakeSketch(spec, defaults);
    auto batched = MakeSketch(spec, defaults);
    for (const FlowId id : packets) {
      scalar->Insert(id);
    }
    batched->InsertBatch(packets);
    EXPECT_EQ(scalar->TopK(40), batched->TopK(40)) << spec;

    // And an independent rebuild from the same seed reproduces the state.
    auto rebuilt = MakeSketch(spec, defaults);
    rebuilt->InsertBatch(packets);
    EXPECT_EQ(batched->TopK(40), rebuilt->TopK(40)) << spec;
  }
}

}  // namespace
}  // namespace hk
