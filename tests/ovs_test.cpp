#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/spsc_ring.h"
#include "ovs/datapath.h"
#include "ovs/pipeline.h"
#include "sketch/registry.h"
#include "sketch/space_saving.h"

namespace hk {
namespace {

TEST(SpscRingTest, FifoOrderSingleThreaded) {
  SpscRing<int> ring(8);
  const size_t cap = ring.capacity();
  for (int start = 0; start < 3; ++start) {
    // A full ring's worth, starting `start` slots into the buffer.
    std::vector<int> in(cap);
    std::iota(in.begin(), in.end(), start * 100);
    EXPECT_EQ(ring.Push(in), cap);  // room for all of it: no wait
    std::vector<int> out(cap + 1, -1);
    EXPECT_EQ(ring.Pop(std::span<int>(out).first(3)), 3u);  // at most out.size()
    EXPECT_EQ(ring.Pop(std::span<int>(out).subspan(3)), cap - 3);
    out.resize(cap);
    EXPECT_EQ(out, in);
    // Nine elements a round in an eight-slot buffer: the next round starts
    // one slot further in, and the third wraps.
    EXPECT_EQ(ring.Push(std::vector<int>{7, 8}), 2u);
    int two[2] = {};
    EXPECT_EQ(ring.Pop(two), 2u);
    EXPECT_EQ(two[0], 7);
    EXPECT_EQ(two[1], 8);
  }
  ring.Close();
  int v = 0;
  EXPECT_EQ(ring.Pop(std::span<int>(&v, 1)), 0u);  // closed and empty
}

TEST(SpscRingTest, CapacityRoundedToPowerOfTwoMinusOne) {
  SpscRing<int> ring(5);
  EXPECT_EQ(ring.capacity(), 7u);
  const std::vector<int> fill(ring.capacity(), 1);
  EXPECT_EQ(ring.Push(fill), ring.capacity());
  // The ring is full: one more element waits until a slot frees.
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_EQ(ring.Push(std::vector<int>{2}), 1u);
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(pushed.load()) << "Push returned on a full ring";
  int v = 0;
  EXPECT_EQ(ring.Pop(std::span<int>(&v, 1)), 1u);
  producer.join();
  EXPECT_TRUE(pushed.load());
}

// Producer and consumer move random-sized spans. `slow_side` (0 the
// producer, 1 the consumer, -1 neither) sleeps now and then, so the other
// side both spins and sleeps in its wait. Nothing may be lost, duplicated
// or reordered.
void StressRing(size_t capacity, uint64_t count, int slow_side) {
  SpscRing<uint64_t> ring(capacity);
  uint64_t received = 0;
  bool order_ok = true;
  std::thread consumer([&] {
    Rng rng(7);
    std::vector<uint64_t> out(97);
    uint64_t expected_next = 1;
    for (;;) {
      const size_t want = 1 + rng.NextBounded(out.size());
      const size_t got = ring.Pop(std::span<uint64_t>(out).first(want));
      if (got == 0) {
        break;
      }
      for (size_t i = 0; i < got; ++i) {
        order_ok &= out[i] == expected_next++;
      }
      received += got;
      if (slow_side == 1 && rng.NextBounded(64) == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(300));
      }
    }
  });
  Rng rng(11);
  std::vector<uint64_t> in(131);
  for (uint64_t next = 1; next <= count;) {
    const size_t n = std::min<uint64_t>(1 + rng.NextBounded(in.size()), count - next + 1);
    for (size_t i = 0; i < n; ++i) {
      in[i] = next++;
    }
    EXPECT_EQ(ring.Push(std::span<const uint64_t>(in).first(n)), n);
    if (slow_side == 0 && rng.NextBounded(64) == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  }
  ring.Close();
  consumer.join();
  EXPECT_EQ(received, count);
  EXPECT_TRUE(order_ok);
}

TEST(SpscRingTest, ConcurrentStressPreservesEverything) {
  StressRing(1024, 2'000'000, /*slow_side=*/-1);
}

TEST(SpscRingTest, SlowProducerThenSlowConsumerLoseAndReorderNothing) {
  StressRing(64, 200'000, /*slow_side=*/0);
  StressRing(64, 200'000, /*slow_side=*/1);
}

TEST(SpscRingTest, CloseWakesAPopBlockedOnAnEmptyRing) {
  SpscRing<int> ring(4);
  std::atomic<bool> returned{false};
  size_t got = 1;
  std::thread consumer([&] {
    int v = 0;
    got = ring.Pop(std::span<int>(&v, 1));
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // past the spin: asleep
  EXPECT_FALSE(returned.load()) << "Pop returned on an empty open ring";
  ring.Close();
  consumer.join();
  EXPECT_EQ(got, 0u);
}

TEST(SpscRingTest, CloseWakesAPushBlockedOnAFullRing) {
  SpscRing<int> ring(4);
  const std::vector<int> values(ring.capacity() + 5, 3);
  std::atomic<bool> returned{false};
  size_t pushed = 0;
  std::thread producer([&] {
    pushed = ring.Push(values);
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(returned.load()) << "Push returned with elements left and no room";
  ring.Close();
  producer.join();
  EXPECT_EQ(pushed, ring.capacity());  // short: only what fit before the close
  // What was pushed before the close is still delivered, then 0.
  std::vector<int> out(values.size());
  EXPECT_EQ(ring.Pop(out), ring.capacity());
  EXPECT_EQ(ring.Pop(out), 0u);
  EXPECT_EQ(ring.Push(values), 0u);  // nothing is pushed once closed
}

TEST(SpscRingTest, PopReturnsZeroOnlyAfterEverythingIsPopped) {
  SpscRing<int> ring(16);
  std::vector<int> in(10);
  std::iota(in.begin(), in.end(), 0);
  ASSERT_EQ(ring.Push(in), in.size());
  ring.Close();
  std::vector<int> out;
  int buf[3];
  size_t got = 0;
  while ((got = ring.Pop(buf)) > 0) {
    out.insert(out.end(), buf, buf + got);
  }
  EXPECT_EQ(out, in);
  EXPECT_EQ(ring.Pop(buf), 0u);
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
  EXPECT_EQ(algo->WorkerThreads(), 2u);

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
