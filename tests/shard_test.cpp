// Concurrency and determinism tests for the sharded pipeline (src/shard/):
// partition stability, merge semantics, producer/consumer stress with
// random burst sizes, shutdown while rings are still draining, the
// determinism contract - same seed and shard count means bit-identical
// results across execution modes, burst shapes, and runs - and the
// Snapshot() contract, including relaxed reads taken from other threads
// while the producer inserts (the TSan CI job runs this suite with full
// race detection).
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "core/hk_topk.h"
#include "metrics/accuracy.h"
#include "shard/merge.h"
#include "shard/partition.h"
#include "shard/sharded_topk.h"
#include "sketch/registry.h"
#include "slow_batch_algorithm.h"
#include "trace/generators.h"
#include "trace/oracle.h"

namespace hk {
namespace {

SketchDefaults TestDefaults() {
  SketchDefaults d;
  d.memory_bytes = 50 * 1024;
  d.k = 50;
  d.key_kind = KeyKind::kSynthetic4B;
  d.seed = 3;
  return d;
}

std::vector<FlowId> ZipfPackets(uint64_t n, uint64_t seed) {
  ZipfTraceConfig config;
  config.num_packets = n;
  config.num_ranks = n / 8;
  config.skew = 1.1;
  config.seed = seed;
  return MakeZipfTrace(config).packets;
}

TEST(ShardPartitionTest, StableAndBalanced) {
  const ShardPartitioner partitioner(8);
  std::vector<uint64_t> load(8, 0);
  SplitMix64 sm(42);
  for (int i = 0; i < 100'000; ++i) {
    const FlowId id = sm.Next();
    const size_t shard = partitioner.ShardOf(id);
    ASSERT_LT(shard, 8u);
    EXPECT_EQ(shard, partitioner.ShardOf(id));  // stable per flow
    ++load[shard];
  }
  for (const uint64_t l : load) {
    // 100k uniform keys over 8 shards: each shard within 10% of 12.5k.
    EXPECT_NEAR(static_cast<double>(l), 12'500.0, 1'250.0);
  }
}

TEST(ShardMergeTest, OrdersUnionAndTruncates) {
  const std::vector<std::vector<FlowCount>> per_shard = {
      {{7, 100}, {1, 5}},
      {},
      {{9, 100}, {2, 80}, {3, 5}},
  };
  const auto merged = MergeTopK(per_shard, 4);
  const std::vector<FlowCount> expected = {{7, 100}, {9, 100}, {2, 80}, {1, 5}};
  EXPECT_EQ(merged, expected);  // count desc, id asc on the tie, k-truncated
  EXPECT_EQ(MergeTopK({}, 10), std::vector<FlowCount>{});
}

TEST(ShardMergeTest, SumByIdCombinesOverlappingLists) {
  // The window-ring shape: per-epoch reports of one stream, so the same
  // flow id recurs across lists and its sliding estimate is the sum.
  const std::vector<std::vector<FlowCount>> per_epoch = {
      {{7, 100}, {2, 40}, {1, 5}},
      {},
      {{2, 70}, {7, 30}, {3, 60}},
  };
  const auto merged = MergeTopK(per_epoch, 3, MergeMode::kSumById);
  const std::vector<FlowCount> expected = {{7, 130}, {2, 110}, {3, 60}};
  EXPECT_EQ(merged, expected);
  // Regression pin for the documented kDisjoint contract: the fast path
  // fed overlapping lists emits duplicate ids instead of combining them.
  const auto disjoint = MergeTopK(per_epoch, 6, MergeMode::kDisjoint);
  size_t sevens = 0;
  for (const auto& fc : disjoint) {
    sevens += fc.id == 7 ? 1 : 0;
  }
  EXPECT_EQ(sevens, 2u);
  EXPECT_EQ(MergeTopK({}, 10, MergeMode::kSumById), std::vector<FlowCount>{});
}

// End-to-end network-wide scenario (examples/network_collector.cpp):
// traffic is sharded across three "switches" (disjoint views), each
// running its own HeavyKeeper; the collector's summed top-k must match the
// global ground truth.
TEST(ShardMergeTest, NetworkWideTopKFromShardedTraffic) {
  const Trace trace = MakeCampusTrace(300000, 11);
  Oracle oracle(trace);
  constexpr size_t kSwitches = 3;
  constexpr size_t kK = 50;

  std::vector<std::unique_ptr<HeavyKeeperTopK<>>> switches;
  for (size_t s = 0; s < kSwitches; ++s) {
    switches.push_back(HeavyKeeperTopK<>::Builder()
                           .version(HkVersion::kMinimum)
                           .memory_bytes(40 * 1024)
                           .k(2 * kK)
                           .key_kind(KeyKind::kFiveTuple13B)
                           .seed(s + 1)
                           .Build());
  }
  // Shard deterministically by flow id (as an ECMP-style splitter would).
  for (const FlowId id : trace.packets) {
    switches[id % kSwitches]->Insert(id);
  }

  std::vector<std::vector<FlowCount>> reports;
  for (const auto& sw : switches) {
    reports.push_back(sw->TopK(2 * kK));
  }
  const auto combined = MergeTopK(reports, kK, MergeMode::kSumById);
  const auto accuracy = EvaluateTopK(combined, oracle, kK);
  EXPECT_GE(accuracy.precision, 0.9);
  EXPECT_LE(accuracy.are, 0.05);
}

TEST(ShardedTopKTest, RejectsDegenerateSpecs) {
  EXPECT_THROW(MakeSketch("Sharded:n=0"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("Sharded:n=2000"), std::invalid_argument);  // > kMaxShards
  EXPECT_THROW(MakeSketch("Sharded:inner=Sharded:n=2"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("Sharded:threads=1,ring=0"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("Sharded:threads=1,burst=0"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("Sharded:n=2,inner=NotARealSketch"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("Sharded:bogus=1"), std::invalid_argument);
  // Worker count is always the shard count; threads= is a 0/1 mode switch.
  EXPECT_THROW(MakeSketch("Sharded:threads=2"), std::invalid_argument);
  // Ring tuning without the threaded mode would be silently inert.
  EXPECT_THROW(MakeSketch("Sharded:ring=64"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("Sharded:burst=16"), std::invalid_argument);
}

TEST(ShardedTopKTest, RoutesEveryFlowToItsOwningShard) {
  ShardedTopKOptions options;
  options.num_shards = 4;
  options.inner_spec = "SS:mem=64kb";
  auto algo = std::make_unique<ShardedTopK>(options, TestDefaults());
  const auto packets = ZipfPackets(20'000, 11);
  algo->InsertBatch(packets);
  // Each packet must be counted by exactly the shard the partitioner
  // names: per-shard totals add up to the stream, and a sampled flow is
  // visible only in its owning shard.
  uint64_t total = 0;
  for (size_t s = 0; s < algo->num_shards(); ++s) {
    for (const auto& fc : algo->shard(s).TopK(100'000)) {
      total += fc.count;
    }
  }
  EXPECT_EQ(total, packets.size());
  for (size_t i = 0; i < 50; ++i) {
    const FlowId id = packets[i * 97 % packets.size()];
    const size_t owner = algo->ShardOf(id);
    for (size_t s = 0; s < algo->num_shards(); ++s) {
      if (s != owner) {
        EXPECT_EQ(algo->shard(s).EstimateSize(id), 0u) << "flow " << id << " leaked to " << s;
      }
    }
  }
}

// --- determinism ----------------------------------------------------------

TEST(ShardedDeterminismTest, SingleShardThreadedEqualsSequentialInsertBatch) {
  const auto packets = ZipfPackets(100'000, 7);
  auto sequential = MakeSketch("HK-Minimum", TestDefaults());
  auto threaded = MakeSketch("Sharded:n=1,threads=1,inner=HK-Minimum", TestDefaults());
  sequential->InsertBatch(packets);
  threaded->InsertBatch(packets);
  threaded->Flush();
  EXPECT_EQ(sequential->TopK(50), threaded->TopK(50));
  for (FlowId id = 1; id <= 32; ++id) {
    EXPECT_EQ(sequential->EstimateSize(id), threaded->EstimateSize(id)) << id;
  }
}

TEST(ShardedDeterminismTest, ThreadedEqualsSynchronousAcrossBurstShapes) {
  const auto packets = ZipfPackets(120'000, 13);
  auto sync = MakeSketch("Sharded:n=4,inner=HK-Minimum", TestDefaults());
  auto threaded = MakeSketch("Sharded:n=4,threads=1,inner=HK-Minimum", TestDefaults());
  auto scalar = MakeSketch("Sharded:n=4,inner=HK-Minimum", TestDefaults());

  sync->InsertBatch(packets);

  // Threaded side: random burst sizes so ring drains interleave with
  // production arbitrarily.
  Rng rng(99);
  size_t pos = 0;
  while (pos < packets.size()) {
    const size_t burst = std::min<size_t>(1 + rng.NextBounded(1000), packets.size() - pos);
    threaded->InsertBatch(std::span<const FlowId>(packets.data() + pos, burst));
    pos += burst;
  }
  threaded->Flush();

  for (const FlowId id : packets) {
    scalar->Insert(id);
  }

  EXPECT_EQ(sync->TopK(50), threaded->TopK(50));
  EXPECT_EQ(sync->TopK(50), scalar->TopK(50));
}

TEST(ShardedDeterminismTest, RepeatedThreadedRunsAreIdentical) {
  const auto packets = ZipfPackets(80'000, 17);
  std::vector<FlowCount> first;
  for (int run = 0; run < 3; ++run) {
    auto algo = MakeSketch("Sharded:n=8,threads=1,inner=HK-Minimum", TestDefaults());
    algo->InsertBatch(packets);
    const auto top = algo->TopK(50);
    if (run == 0) {
      first = top;
      EXPECT_FALSE(first.empty());
    } else {
      EXPECT_EQ(top, first) << "run " << run << " diverged";
    }
  }
}

// --- producer/consumer stress ---------------------------------------------

TEST(ShardedStressTest, RandomBurstsCountExactlyWithExactInner) {
  // An exact inner (Space-Saving with ample capacity) turns the stress run
  // into a lossless accounting check: after Flush, the merged counts must
  // reproduce the oracle exactly, whatever the ring/burst interleaving.
  ShardedTopKOptions options;
  options.num_shards = 4;
  options.threaded = true;
  options.ring_capacity = 256;  // small ring: force back-pressure often
  options.drain_burst = 64;
  options.inner_spec = "SS:mem=256kb";
  auto algo = std::make_unique<ShardedTopK>(options, TestDefaults());

  ZipfTraceConfig config;
  config.num_packets = 300'000;
  config.num_ranks = 2'000;
  config.skew = 1.0;
  config.seed = 23;
  const auto packets = MakeZipfTrace(config).packets;
  Oracle oracle;
  for (const FlowId id : packets) {
    oracle.Add(id);
  }

  Rng rng(7);
  size_t pos = 0;
  while (pos < packets.size()) {
    const size_t burst = std::min<size_t>(1 + rng.NextBounded(2048), packets.size() - pos);
    if (burst == 1) {
      algo->Insert(packets[pos]);
    } else {
      algo->InsertBatch(std::span<const FlowId>(packets.data() + pos, burst));
    }
    pos += burst;
  }
  algo->Flush();

  for (const auto& truth : oracle.TopK(200)) {
    EXPECT_EQ(algo->EstimateSize(truth.id), truth.count) << "flow " << truth.id;
  }
}

TEST(ShardedStressTest, WeightedStreamThreadedMatchesSynchronous) {
  const auto ids = ZipfPackets(40'000, 29);
  std::vector<uint64_t> weights;
  weights.reserve(ids.size());
  Rng rng(31);
  for (size_t i = 0; i < ids.size(); ++i) {
    weights.push_back(rng.NextBounded(4));  // exercises weight-0 skipping too
  }
  auto sync = MakeSketch("Sharded:n=4,inner=HK-Minimum:cb=32", TestDefaults());
  auto threaded = MakeSketch("Sharded:n=4,threads=1,inner=HK-Minimum:cb=32", TestDefaults());
  sync->InsertBatch(ids, weights);
  threaded->InsertBatch(ids, weights);
  threaded->Flush();
  EXPECT_EQ(sync->TopK(50), threaded->TopK(50));
}

// A test double that counts applied packets into caller-owned storage, so
// the drain guarantee stays observable after the ShardedTopK is gone.
class CountingAlgorithm : public TopKAlgorithm {
 public:
  explicit CountingAlgorithm(uint64_t* applied) : applied_(applied) {}

  void Insert(FlowId) override { ++*applied_; }
  std::vector<FlowCount> TopK(size_t) const override { return {}; }
  uint64_t EstimateSize(FlowId) const override { return 0; }
  std::string name() const override { return "counting-test-double"; }
  size_t MemoryBytes() const override { return sizeof(*this); }

 private:
  uint64_t* applied_;  // written only by this shard's worker
};

TEST(ShardedStressTest, ShutdownWhileDrainingAppliesEverything) {
  // Destroy the instance the moment the producer is done: the rings are
  // still full of queued packets, and the destructor must drain them (not
  // drop them) before joining. Injected counting inners write into
  // storage that outlives the instance, so the guarantee is checked on
  // the rounds that really do race the drain.
  constexpr size_t kShards = 4;
  constexpr uint64_t kPackets = 50'000;
  for (int round = 0; round < 5; ++round) {
    uint64_t applied[kShards] = {};
    ShardedTopKOptions options;
    options.num_shards = kShards;
    options.threaded = true;
    options.ring_capacity = 128;  // small rings: the producer finishes well
    options.drain_burst = 32;     // ahead of the workers
    std::vector<std::unique_ptr<TopKAlgorithm>> inners;
    for (size_t s = 0; s < kShards; ++s) {
      inners.push_back(std::make_unique<CountingAlgorithm>(&applied[s]));
    }
    auto algo = std::make_unique<ShardedTopK>(options, std::move(inners));
    SplitMix64 sm(1000 + round);
    for (uint64_t i = 0; i < kPackets; ++i) {
      algo->Insert(sm.Next());
    }
    algo.reset();  // no Flush: the destructor races the drain
    uint64_t total = 0;
    for (const uint64_t a : applied) {
      total += a;
    }
    EXPECT_EQ(total, kPackets) << "round " << round << " lost packets on shutdown";
  }
}

TEST(ShardedTopKTest, SaveStateRollsBackWhenAnInnerCannotCheckpoint) {
  // Inner states are written in place: the first shard's blob is already
  // in `out` when the test double refuses, so the refusal must undo it.
  uint64_t applied = 0;
  std::vector<std::unique_ptr<TopKAlgorithm>> inners;
  inners.push_back(MakeSketch("HK-Minimum", TestDefaults()));
  inners.push_back(std::make_unique<CountingAlgorithm>(&applied));
  ShardedTopK sharded(ShardedTopKOptions{}, std::move(inners));
  const std::vector<uint8_t> prefix = {1, 2, 3};
  std::vector<uint8_t> out = prefix;
  EXPECT_FALSE(sharded.SaveState(&out));
  EXPECT_EQ(out, prefix);
}

double CpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec / 1e6; };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// An idle threaded instance costs no CPU: once Flush() has drained the
// rings, each worker sleeps in its ring's Pop until the next packet or the
// destructor's Close.
TEST(ShardedTopKTest, IdleThreadedInstanceCostsNoCpu) {
  for (const size_t n : {2, 8}) {
    const std::string spec = "Sharded:n=" + std::to_string(n) + ",threads=1,inner=HK-Minimum";
    auto algo = MakeSketch(spec, TestDefaults());
    algo->InsertBatch(ZipfPackets(100'000, 19));
    algo->Flush();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));  // past the workers' spin
    const double cpu_before = CpuSeconds();
    std::this_thread::sleep_for(std::chrono::seconds(1));
    const double idle_cpu = CpuSeconds() - cpu_before;
    EXPECT_LT(idle_cpu, 0.010) << spec << ": CPU seconds used over one idle second";
    // A sleeping worker wakes for the next packets.
    algo->InsertBatch(std::vector<FlowId>(1'000, 7));
    algo->Flush();
    EXPECT_GE(algo->EstimateSize(7), 900u) << spec;
  }
}

TEST(ShardedStressTest, FlushFromProducerMakesAllInsertsVisible) {
  auto algo = MakeSketch("Sharded:n=8,threads=1,ring=64,inner=SS:mem=128kb", TestDefaults());
  for (int i = 0; i < 5'000; ++i) {
    algo->Insert(42);
    algo->Insert(static_cast<FlowId>(100 + (i % 10)));
  }
  algo->Flush();
  EXPECT_EQ(algo->EstimateSize(42), 5'000u);
}

// --- Snapshot contract ----------------------------------------------------

TEST(SnapshotContractTest, DefaultSnapshotWrapsFlushedTopK) {
  // Synchronous algorithms inherit the base implementation: always exact,
  // flows identical to TopK(k), stats populated.
  for (const std::string spec : {"HK-Minimum", "SS", "CM"}) {
    auto algo = MakeSketch(spec, TestDefaults());
    algo->InsertBatch(ZipfPackets(20'000, 11));
    const QueryResult result = algo->Snapshot({.k = 20});
    EXPECT_EQ(result.consistency, ConsistencyLevel::kExact) << spec;
    EXPECT_EQ(result.flows, algo->TopK(20)) << spec;
    EXPECT_EQ(result.stats.tracked_flows, result.flows.size()) << spec;
    EXPECT_EQ(result.stats.min_tracked, result.flows.back().count) << spec;
    EXPECT_EQ(result.stats.worker_threads, 0u) << spec;
    EXPECT_EQ(result.stats.memory_bytes, algo->MemoryBytes()) << spec;
  }
}

TEST(SnapshotContractTest, ShardedSnapshotIsAlwaysExact) {
  // Synchronous Sharded has no workers to overtake: even a relaxed request
  // reads every applied packet, and the label says so.
  auto algo = MakeSketch("Sharded:n=4,inner=HK-Minimum", TestDefaults());
  algo->InsertBatch(ZipfPackets(50'000, 13));
  const QueryResult relaxed = algo->Snapshot({.k = 30, .consistency = ConsistencyLevel::kRelaxed});
  EXPECT_EQ(relaxed.consistency, ConsistencyLevel::kExact);
  EXPECT_EQ(relaxed.flows, algo->TopK(30));
  EXPECT_EQ(relaxed.stats.worker_threads, 0u);
  EXPECT_EQ(relaxed.stats.memory_bytes, algo->MemoryBytes());
  // Each of the 4 shards tracks its own candidates, so the union exceeds
  // any single report.
  EXPECT_GE(relaxed.stats.tracked_flows, relaxed.flows.size());
}

TEST(SnapshotContractTest, SnapshotAfterFlushIsExactWhateverWasRequested) {
  auto algo = MakeSketch("Sharded:n=2,threads=1,inner=HK-Minimum", TestDefaults());
  algo->InsertBatch(ZipfPackets(40'000, 23));
  algo->Flush();
  // Quiesced and no producer: the relaxed read must equal the exact one
  // (the label stays honest about the path taken - the flows cannot
  // differ).
  const QueryResult relaxed = algo->Snapshot({.k = 25, .consistency = ConsistencyLevel::kRelaxed});
  const QueryResult exact = algo->Snapshot({.k = 25});
  EXPECT_EQ(relaxed.consistency, ConsistencyLevel::kRelaxed);
  EXPECT_EQ(relaxed.flows, exact.flows);
  EXPECT_EQ(relaxed.stats.tracked_flows, exact.stats.tracked_flows);
  EXPECT_EQ(relaxed.stats.memory_bytes, exact.stats.memory_bytes);
}

// --- relaxed reads while the producer inserts ------------------------------

uint64_t TotalCount(const std::vector<FlowCount>& flows) {
  uint64_t total = 0;
  for (const auto& fc : flows) {
    total += fc.count;
  }
  return total;
}

TEST(ShardedTopKTest, NameAndMemoryBytesDoNotWaitForTheDrain) {
  // 50 queued packets in 1-packet bursts at ~20 ms a burst keep the worker
  // busy for about a second. name() and MemoryBytes() are what hk_serve's
  // STATS reads under the instance lock; neither may wait for the drain.
  ShardedTopKOptions options;
  options.threaded = true;
  options.drain_burst = 1;
  auto inner = MakeSketch("SS", TestDefaults());
  const size_t inner_bytes = inner->MemoryBytes();
  std::vector<std::unique_ptr<TopKAlgorithm>> inners;
  const auto pause = std::chrono::milliseconds(20);
  inners.push_back(std::make_unique<SlowBatchAlgorithm>(std::move(inner), pause));
  ShardedTopK algo(options, std::move(inners));
  std::vector<FlowId> packets;
  for (FlowId i = 0; i < 50; ++i) {
    packets.push_back(1 + i % 5);
  }
  algo.InsertBatch(packets);

  using Clock = std::chrono::steady_clock;
  const auto before_name = Clock::now();
  EXPECT_EQ(algo.name(), "Sharded:n=1,threads=1,burst=1,inner=slow-batch-test-double");
  EXPECT_LT(Clock::now() - before_name, std::chrono::milliseconds(100));
  const auto before_memory = Clock::now();
  EXPECT_EQ(algo.MemoryBytes(), inner_bytes);
  EXPECT_LT(Clock::now() - before_memory, std::chrono::milliseconds(100));
  // The queries still drain.
  EXPECT_EQ(algo.EstimateSize(1), 10u);
}

TEST(ShardedRelaxedReadTest, RelaxedSnapshotDoesNotWaitForTheDrain) {
  // 4,000 queued packets in 16-packet bursts at ~2 ms a burst keep two
  // workers busy for 250 ms or more. A relaxed read waits for at most one
  // burst per shard, so it must answer long before the rings empty.
  ShardedTopKOptions options;
  options.threaded = true;
  options.ring_capacity = 4096;  // the whole stream fits: no back-pressure
  options.drain_burst = 16;
  std::vector<std::unique_ptr<TopKAlgorithm>> inners;
  for (int s = 0; s < 2; ++s) {
    inners.push_back(
        std::make_unique<SlowBatchAlgorithm>(MakeSketch("SS:mem=256kb", TestDefaults())));
  }
  ShardedTopK algo(options, std::move(inners));
  std::vector<FlowId> packets;
  for (FlowId i = 0; i < 4'000; ++i) {
    packets.push_back(1 + i % 8);  // 8 flows: TopK(k) covers every one
  }
  algo.InsertBatch(packets);

  const QueryResult relaxed = algo.Snapshot({.k = 50, .consistency = ConsistencyLevel::kRelaxed});
  EXPECT_EQ(relaxed.consistency, ConsistencyLevel::kRelaxed);
  EXPECT_LT(TotalCount(relaxed.flows), packets.size());
  const QueryResult exact = algo.Snapshot({.k = 50});
  EXPECT_EQ(exact.consistency, ConsistencyLevel::kExact);
  EXPECT_EQ(TotalCount(exact.flows), packets.size());
}

TEST(ShardedRelaxedReadTest, RelaxedReadsDuringInsertsAreWellFormed) {
  // Serve's shape: the producer and an exact reader share one lock, and a
  // relaxed reader takes none. Exact inners make every relaxed count
  // checkable: it never exceeds the final truth, and it never shrinks from
  // one report to the next (each shard's part is a growing prefix of that
  // shard's stream).
  ShardedTopKOptions options;
  options.num_shards = 4;
  options.threaded = true;
  options.ring_capacity = 256;
  options.drain_burst = 32;
  options.inner_spec = "SS:mem=256kb";
  ShardedTopK algo(options, TestDefaults());

  ZipfTraceConfig config;
  config.num_packets = 200'000;
  config.num_ranks = 500;
  config.skew = 1.0;
  config.seed = 41;
  const auto packets = MakeZipfTrace(config).packets;
  Oracle oracle;
  for (const FlowId id : packets) {
    oracle.Add(id);
  }
  constexpr size_t kRelaxedK = 100;  // below the flow count: the k cap bites
  constexpr size_t kAllFlows = 1'000;

  std::mutex mu;        // serve's per-instance lock
  uint64_t pushed = 0;  // guarded by mu
  std::atomic<bool> done{false};
  std::thread producer([&] {
    Rng rng(43);
    size_t pos = 0;
    while (pos < packets.size()) {
      const size_t burst = std::min<size_t>(1 + rng.NextBounded(2048), packets.size() - pos);
      const std::lock_guard<std::mutex> lock(mu);
      algo.InsertBatch(std::span<const FlowId>(packets.data() + pos, burst));
      pos += burst;
      pushed = pos;
    }
    done.store(true, std::memory_order_release);
  });
  std::thread exact_reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      {
        const std::lock_guard<std::mutex> lock(mu);
        const QueryResult exact = algo.Snapshot({.k = kAllFlows});
        EXPECT_EQ(exact.consistency, ConsistencyLevel::kExact);
        EXPECT_EQ(TotalCount(exact.flows), pushed);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  size_t reports = 0;
  std::unordered_map<FlowId, uint64_t> previous;
  bool last = false;
  while (!last) {
    last = done.load(std::memory_order_acquire);
    const QueryResult relaxed =
        algo.Snapshot({.k = kRelaxedK, .consistency = ConsistencyLevel::kRelaxed});
    ++reports;
    EXPECT_EQ(relaxed.consistency, ConsistencyLevel::kRelaxed);
    EXPECT_LE(relaxed.flows.size(), kRelaxedK);
    std::unordered_map<FlowId, uint64_t> current;
    for (size_t i = 0; i < relaxed.flows.size(); ++i) {
      const FlowCount& fc = relaxed.flows[i];
      if (i > 0) {
        const FlowCount& prev = relaxed.flows[i - 1];
        EXPECT_TRUE(prev.count > fc.count || (prev.count == fc.count && prev.id < fc.id))
            << "unsorted at rank " << i;
      }
      EXPECT_TRUE(current.emplace(fc.id, fc.count).second) << "duplicate flow " << fc.id;
      EXPECT_LE(fc.count, oracle.Count(fc.id)) << "flow " << fc.id << " above truth";
      if (const auto it = previous.find(fc.id); it != previous.end()) {
        EXPECT_GE(fc.count, it->second) << "flow " << fc.id << " went backwards";
      }
    }
    previous = std::move(current);
    std::this_thread::yield();
  }
  producer.join();
  exact_reader.join();
  EXPECT_GT(reports, 1u);
}

}  // namespace
}  // namespace hk
