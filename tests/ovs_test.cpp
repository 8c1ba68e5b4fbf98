#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/spsc_ring.h"
#include "ovs/datapath.h"
#include "ovs/pipeline.h"
#include "sketch/registry.h"
#include "sketch/space_saving.h"

namespace hk {
namespace {

TEST(SpscRingTest, FifoOrderSingleThreaded) {
  SpscRing<int> ring(8);
  const int cap = static_cast<int>(ring.capacity());
  for (int i = 0; i < cap; ++i) {
    EXPECT_TRUE(ring.TryPush(i));
  }
  EXPECT_FALSE(ring.TryPush(99));  // full
  for (int i = 0; i < cap; ++i) {
    int v = -1;
    EXPECT_TRUE(ring.TryPop(&v));
    EXPECT_EQ(v, i);
  }
  int v;
  EXPECT_FALSE(ring.TryPop(&v));  // empty
}

TEST(SpscRingTest, CapacityRoundedToPowerOfTwoMinusOne) {
  SpscRing<int> ring(5);
  EXPECT_GE(ring.capacity(), 5u);
  size_t pushed = 0;
  while (ring.TryPush(1)) {
    ++pushed;
  }
  EXPECT_EQ(pushed, ring.capacity());
}

TEST(SpscRingTest, ConcurrentStressPreservesEverything) {
  SpscRing<uint64_t> ring(1024);
  constexpr uint64_t kN = 2'000'000;
  std::atomic<bool> done{false};
  uint64_t sum = 0;
  uint64_t received = 0;
  uint64_t expected_next = 1;
  bool order_ok = true;

  std::thread consumer([&] {
    uint64_t v;
    while (true) {
      if (ring.TryPop(&v)) {
        if (v != expected_next) {
          order_ok = false;
        }
        ++expected_next;
        sum += v;
        ++received;
      } else if (done.load(std::memory_order_acquire) && ring.Empty()) {
        break;
      }
    }
  });

  for (uint64_t i = 1; i <= kN; ++i) {
    while (!ring.TryPush(i)) {
    }
  }
  done.store(true, std::memory_order_release);
  consumer.join();

  EXPECT_EQ(received, kN);
  EXPECT_TRUE(order_ok);
  EXPECT_EQ(sum, kN * (kN + 1) / 2);
}

TEST(DatapathTest, HeaderPackParseRoundTrip) {
  const FiveTuple t{0x0a010203, 0xc0a80001, 5353, 443, 17};
  EXPECT_EQ(ParseHeader(PackHeader(t)), t);
}

TEST(DatapathTest, CacheHitsAfterFirstPacket) {
  SimulatedDatapath dp(1024);
  const FiveTuple t{1, 2, 3, 4, 6};
  const RawPacket p = PackHeader(t);
  const FlowId first = dp.Process(p);
  EXPECT_EQ(dp.cache_misses(), 1u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(dp.Process(p), first);
  }
  EXPECT_EQ(dp.cache_hits(), 10u);
  EXPECT_EQ(dp.cache_misses(), 1u);
}

TEST(DatapathTest, ForwardingIsDeterministicPerFlow) {
  SimulatedDatapath dp;
  const RawPacket p = PackHeader({9, 8, 7, 6, 6});
  for (int i = 0; i < 20; ++i) {
    dp.Process(p);
  }
  // All packets of one flow leave by exactly one port.
  int ports_used = 0;
  for (size_t port = 0; port < SimulatedDatapath::kPorts; ++port) {
    if (dp.forwarded(port) > 0) {
      ++ports_used;
      EXPECT_EQ(dp.forwarded(port), 20u);
    }
  }
  EXPECT_EQ(ports_used, 1);
}

TEST(PipelineTest, AllPacketsFlowThrough) {
  const auto packets = MakeWirePackets(20000, 2000, 1.0, 3);
  PipelineConfig config;
  config.num_pipelines = 2;
  const auto result = RunPipelines(packets, nullptr, config);
  // The pipeline count is clamped to the hardware; every used pipeline must
  // carry the full packet stream.
  EXPECT_GE(result.pipelines, 1u);
  EXPECT_LE(result.pipelines, 2u);
  EXPECT_EQ(result.packets, result.pipelines * 20000);
  EXPECT_GT(result.mps, 0.0);
}

TEST(PipelineTest, AlgorithmConsumerSeesEveryPacket) {
  // A Space-Saving consumer with ample capacity counts exactly.
  const auto packets = MakeWirePackets(10000, 50, 1.0, 7);
  PipelineConfig config;
  config.num_pipelines = 1;
  SpaceSaving ss(1000, 13);
  SpaceSaving* ss_ptr = &ss;
  const auto result = RunPipelines(packets, [&](size_t) { return &ss; }, config);
  EXPECT_EQ(result.packets, 10000u);
  uint64_t counted = 0;
  for (const auto& fc : ss_ptr->TopK(1000)) {
    counted += fc.count;
  }
  EXPECT_EQ(counted, 10000u);
}

TEST(PipelineTest, SnapshotReportsCollectedPerPipeline) {
  // snapshot_k turns the run into measurement + report: one kExact
  // QueryResult per measuring pipeline, taken off the clock after the
  // consumers Flush()ed. A threaded Sharded consumer exercises the
  // quiesce path end to end (producer -> ring -> scatter -> worker).
  const auto packets = MakeWirePackets(20000, 500, 1.1, 11);
  SketchDefaults defaults;
  defaults.memory_bytes = 64 * 1024;
  defaults.k = 50;
  defaults.key_kind = KeyKind::kFiveTuple13B;
  defaults.seed = 5;
  auto algo = MakeSketch("Sharded:n=2,threads=1,inner=HK-Minimum", defaults);
  PipelineConfig config;
  config.num_pipelines = 1;
  config.snapshot_k = 10;
  const auto result = RunPipelines(packets, [&](size_t) { return algo.get(); }, config);
  EXPECT_EQ(result.packets, 20000u);
  ASSERT_EQ(result.reports.size(), result.pipelines);
  const QueryResult& report = result.reports.front();
  EXPECT_EQ(report.consistency, ConsistencyLevel::kExact);
  EXPECT_LE(report.flows.size(), 10u);
  ASSERT_FALSE(report.flows.empty());
  EXPECT_EQ(report.flows, algo->TopK(10));
  EXPECT_EQ(report.stats.worker_threads, 2u);
  EXPECT_EQ(report.stats.memory_bytes, algo->MemoryBytes());

  // The plain-OVS baseline (no algorithm) has nothing to report.
  const auto baseline = RunPipelines(packets, nullptr, config);
  EXPECT_TRUE(baseline.reports.empty());
}

TEST(PipelineTest, WirePacketsFollowZipf) {
  const auto packets = MakeWirePackets(50000, 1000, 1.2, 9);
  ASSERT_EQ(packets.size(), 50000u);
  // Count the most frequent parsed flow; with skew 1.2 it must dominate.
  std::unordered_map<FlowId, uint64_t> counts;
  for (const auto& p : packets) {
    ++counts[ParseHeader(p).Id()];
  }
  uint64_t max_count = 0;
  for (const auto& [id, c] : counts) {
    max_count = std::max(max_count, c);
  }
  EXPECT_GT(max_count, 5000u);
}

}  // namespace
}  // namespace hk
