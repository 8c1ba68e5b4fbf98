// Sliding-window top-k tests (src/window/windowed_topk.h): spec grammar
// and composition rules, ring rotation/eviction semantics against exact
// inner sketches, the batch == scalar determinism contract across epoch
// boundaries, checkpointing of the whole ring, capture-time windowing
// through TraceReplayer (idle gaps -> one rotation per skipped window),
// and the ISSUE 8 acceptance gate: Window:w=8,inner=HK-Minimum reaches
// recall >= 0.9 against a brute-force sliding exact oracle on both
// committed fixture captures.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "ingest/pcap_reader.h"
#include "ingest/pcap_writer.h"
#include "ingest/trace_replayer.h"
#include "metrics/accuracy.h"
#include "sketch/registry.h"
#include "trace/generators.h"
#include "trace/oracle.h"
#include "window/windowed_topk.h"

namespace hk {
namespace {

constexpr size_t kK = 20;

SketchDefaults TestDefaults() {
  SketchDefaults d;
  d.memory_bytes = 96 * 1024;
  d.k = kK;
  d.key_kind = KeyKind::kSynthetic4B;
  d.seed = 9;
  return d;
}

// A ring whose inner is exact: Space-Saving is deterministic and counts
// exactly while distinct flows fit its capacity, so per-epoch reports and
// their kSumById merge can be asserted to the packet.
std::unique_ptr<WindowedTopK> ExactRing(size_t w, uint64_t epoch_packets,
                                        WindowedTopK::EpochCallback on_epoch = nullptr) {
  WindowedTopKOptions options;
  options.window_epochs = w;
  options.epoch_packets = epoch_packets;
  options.inner_spec = "SS";
  return std::make_unique<WindowedTopK>(options, TestDefaults(), std::move(on_epoch));
}

TEST(WindowSpecTest, ConstructsFromSpecAndRoundTrips) {
  auto algo = MakeSketch("Window:w=4,epoch=1000,inner=HK-Minimum:d=4", TestDefaults());
  EXPECT_EQ(algo->name(), "Window:w=4,epoch=1000,inner=HeavyKeeper-Minimum:d=4");
  EXPECT_EQ(algo->WorkerThreads(), 0u);
  auto again = MakeSketch(algo->name(), TestDefaults());
  EXPECT_EQ(again->name(), algo->name());
  EXPECT_EQ(again->MemoryBytes(), algo->MemoryBytes());

  // Defaults: w=8, epoch=10M packets, HK-Minimum inner.
  auto bare = MakeSketch("Window", TestDefaults());
  EXPECT_EQ(bare->name(), "Window:w=8,epoch=10000000,inner=HeavyKeeper-Minimum");
  // The ring splits the byte budget: W slots within the total.
  EXPECT_LE(bare->MemoryBytes(), TestDefaults().memory_bytes);
}

TEST(WindowSpecTest, RejectsDegenerateAndComposedSpecs) {
  EXPECT_THROW(MakeSketch("Window:w=0"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("Window:w=500"), std::invalid_argument);  // > kMaxWindowEpochs
  EXPECT_THROW(MakeSketch("Window:epoch=0"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("Window:bogus=1"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("Window:inner=NotARealSketch"), std::invalid_argument);
  // One ring per stream: nesting has no coherent rotation order.
  EXPECT_THROW(MakeSketch("Window:inner=Window:w=2"), std::invalid_argument);
  // Threaded inners are refused: (W-1)*threads workers would idle on slots
  // that can never receive another packet.
  EXPECT_THROW(MakeSketch("Window:inner=Sharded:n=2,threads=1,inner=HK-Minimum"),
               std::invalid_argument);
  // The other direction: epoch rotation must be stream-global, so Window
  // cannot sit under a partitioner (per-shard rings would desynchronize).
  EXPECT_THROW(MakeSketch("Sharded:n=2,inner=Window:w=2"), std::invalid_argument);
}

TEST(WindowSpecTest, SynchronousShardedInnerIsAllowed) {
  auto algo = MakeSketch("Window:w=2,epoch=1000,inner=Sharded:n=2,inner=HK-Minimum",
                         TestDefaults());
  EXPECT_EQ(algo->WorkerThreads(), 0u);
  for (FlowId id = 1; id <= 100; ++id) {
    algo->InsertWeighted(id, id);
  }
  EXPECT_FALSE(algo->TopK(5).empty());
}

TEST(WindowRingTest, SlidingAnswerSumsEpochsAndEvictsAfterWRotations) {
  // Epochs of 100 packets, W = 3. Flow 1 runs through every epoch, each
  // epoch e also carries a one-epoch flow 100+e. With an exact inner the
  // sliding answer is exact arithmetic over the last W slots.
  auto ring = ExactRing(3, 100);
  for (uint64_t e = 0; e < 5; ++e) {
    for (int i = 0; i < 60; ++i) {
      ring->Insert(1);
    }
    for (int i = 0; i < 40; ++i) {
      ring->Insert(100 + e);
    }
  }
  // 500 packets / 100 per epoch: epochs 0..4 complete, current is empty.
  EXPECT_EQ(ring->completed_epochs(), 5u);
  EXPECT_EQ(ring->packets_in_current_epoch(), 0u);

  // Ring holds epochs 3, 4 and the (empty) current: flow 1 sums to 120.
  EXPECT_EQ(ring->EstimateSize(1), 120u);
  EXPECT_EQ(ring->EstimateSize(103), 40u);
  EXPECT_EQ(ring->EstimateSize(104), 40u);
  EXPECT_EQ(ring->EstimateSize(100), 0u);  // aged out with epoch 0
  EXPECT_EQ(ring->EstimateSize(102), 0u);  // aged out when its slot was rebuilt

  const auto top = ring->TopK(3);
  const std::vector<FlowCount> expected = {{1, 120}, {103, 40}, {104, 40}};
  EXPECT_EQ(top, expected);

  const QueryResult result = ring->Snapshot({.k = 3});
  EXPECT_EQ(result.flows, expected);
  EXPECT_EQ(result.consistency, ConsistencyLevel::kExact);
  EXPECT_EQ(result.stats.min_tracked, 40u);
}

TEST(WindowRingTest, EpochCallbackDeliversEachCompletedWindow) {
  std::vector<std::pair<uint64_t, std::vector<FlowCount>>> reports;
  auto ring = ExactRing(4, 10, [&](uint64_t epoch, std::vector<FlowCount> report) {
    reports.emplace_back(epoch, std::move(report));
  });
  for (int i = 0; i < 10; ++i) {
    ring->Insert(7);
  }
  // Idle stretch: forced rotations close empty windows, and each one still
  // reports (an empty window is a window).
  ring->Rotate();
  ring->Rotate();
  ASSERT_EQ(reports.size(), 3u);
  for (size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].first, i);  // completed-epoch indices 0..R-1
  }
  EXPECT_EQ(reports[0].second, (std::vector<FlowCount>{{7, 10}}));
  EXPECT_TRUE(reports[1].second.empty());
  EXPECT_TRUE(reports[2].second.empty());
  EXPECT_EQ(ring->completed_epochs(), 3u);
  // Three rotations rebuilt the other three slots; flow 7's slot is the
  // oldest survivor. The 4th rotation (w=4) rebuilds it: evicted.
  EXPECT_EQ(ring->EstimateSize(7), 10u);
  ring->Rotate();
  EXPECT_EQ(ring->EstimateSize(7), 0u);
  ASSERT_EQ(reports.size(), 4u);
  EXPECT_TRUE(reports[3].second.empty());
}

TEST(WindowRingTest, InsertWeightedCountsPacketsNotUnits) {
  // The byte-weighted replay shape on a one-slot ring: 100 packets of 100
  // units each close one epoch of 100 packets, whatever the weights...
  std::vector<std::vector<FlowCount>> reports;
  WindowedTopKOptions options;
  options.window_epochs = 1;
  options.epoch_packets = 100;
  options.inner_spec = "HK-Minimum";
  WindowedTopK ring(options, TestDefaults(), [&](uint64_t, std::vector<FlowCount> report) {
    reports.push_back(std::move(report));
  });
  for (int i = 0; i < 100; ++i) {
    ring.InsertWeighted(42, 100);
  }
  ASSERT_EQ(ring.completed_epochs(), 1u);
  ASSERT_EQ(reports.size(), 1u);
  ASSERT_FALSE(reports[0].empty());
  // ...while the report carries the weighted size (10k fits the inner's
  // default 16-bit counters).
  EXPECT_EQ(reports[0][0], (FlowCount{42, 10'000}));
}

TEST(WindowRingTest, InsertBatchSplitsAtEpochBoundariesBitExactly) {
  // Batches that straddle rotation points must land exactly like the
  // scalar path: same rotations, same per-slot contents, same answers.
  WindowedTopKOptions options;
  options.window_epochs = 4;
  options.epoch_packets = 997;  // prime: boundaries fall mid-batch
  options.inner_spec = "HK-Minimum";
  WindowedTopK scalar(options, TestDefaults());
  WindowedTopK batched(options, TestDefaults());

  ZipfTraceConfig config;
  config.num_packets = 10'000;
  config.num_ranks = 1'000;
  config.skew = 1.1;
  config.seed = 5;
  const auto packets = MakeZipfTrace(config).packets;

  for (const FlowId id : packets) {
    scalar.Insert(id);
  }
  batched.InsertBatch(packets);

  EXPECT_EQ(scalar.completed_epochs(), batched.completed_epochs());
  EXPECT_EQ(scalar.packets_in_current_epoch(), batched.packets_in_current_epoch());
  EXPECT_EQ(scalar.TopK(kK), batched.TopK(kK));

  // Weighted batches follow the same chunking.
  WindowedTopK wscalar(options, TestDefaults());
  WindowedTopK wbatched(options, TestDefaults());
  std::vector<uint64_t> weights(packets.size());
  for (size_t i = 0; i < packets.size(); ++i) {
    weights[i] = 1 + (i % 3);
  }
  for (size_t i = 0; i < packets.size(); ++i) {
    wscalar.InsertWeighted(packets[i], weights[i]);
  }
  wbatched.InsertBatch(packets, weights);
  EXPECT_EQ(wscalar.completed_epochs(), wbatched.completed_epochs());
  EXPECT_EQ(wscalar.TopK(kK), wbatched.TopK(kK));
}

TEST(WindowCheckpointTest, SaveLoadRestoresRingContentsAndCursor) {
  auto saved = ExactRing(3, 100);
  // Two and a half epochs: slot contents differ per epoch and the cursor
  // sits mid-window.
  for (uint64_t e = 0; e < 2; ++e) {
    for (int i = 0; i < 100; ++i) {
      saved->Insert(10 + e);
    }
  }
  for (int i = 0; i < 50; ++i) {
    saved->Insert(99);
  }
  EXPECT_EQ(saved->completed_epochs(), 2u);
  EXPECT_EQ(saved->packets_in_current_epoch(), 50u);

  std::vector<uint8_t> blob;
  ASSERT_TRUE(saved->SaveState(&blob));

  auto loaded = ExactRing(3, 100);
  ASSERT_TRUE(loaded->LoadState(blob.data(), blob.size()));
  EXPECT_EQ(loaded->completed_epochs(), 2u);
  EXPECT_EQ(loaded->packets_in_current_epoch(), 50u);
  EXPECT_EQ(loaded->TopK(kK), saved->TopK(kK));
  EXPECT_EQ(loaded->EstimateSize(10), 100u);
  EXPECT_EQ(loaded->EstimateSize(99), 50u);

  // The restored cursor keeps rotating at the same packet boundaries: 50
  // more packets close the current epoch on both instances, and the next
  // rotation evicts the same oldest slot.
  for (int i = 0; i < 50; ++i) {
    saved->Insert(99);
    loaded->Insert(99);
  }
  EXPECT_EQ(loaded->completed_epochs(), saved->completed_epochs());
  EXPECT_EQ(loaded->TopK(kK), saved->TopK(kK));
  for (int i = 0; i < 100; ++i) {
    saved->Insert(7);
    loaded->Insert(7);
  }
  EXPECT_EQ(loaded->EstimateSize(10), 0u);  // epoch 0 aged out on both
  EXPECT_EQ(loaded->TopK(kK), saved->TopK(kK));
}

TEST(WindowCheckpointTest, LoadRejectsMismatchedRingShape) {
  auto saved = ExactRing(3, 100);
  saved->Insert(1);
  std::vector<uint8_t> blob;
  ASSERT_TRUE(saved->SaveState(&blob));
  // Different W or epoch width: the blob is for another ring shape.
  EXPECT_FALSE(ExactRing(4, 100)->LoadState(blob.data(), blob.size()));
  EXPECT_FALSE(ExactRing(3, 200)->LoadState(blob.data(), blob.size()));
  EXPECT_TRUE(ExactRing(3, 100)->LoadState(blob.data(), blob.size()));
}

// ---------------------------------------------------------------------------
// Capture-time windowing through TraceReplayer.

struct GapCapture {
  std::string path;
  std::vector<FlowId> phase_a_ids;  // distinct flows of the pre-gap burst
  std::vector<FlowId> phase_b_ids;
  Oracle phase_a;  // exact per-phase packet counts
  Oracle phase_b;
  uint64_t t0 = 0;
};

constexpr uint64_t kEpochNs = 1'000'000;  // 1 ms windows

// Two bursts separated by an idle gap of 5.5 windows: phase A fills window
// 0, windows 1..4 are empty, phase B lands in window 5. Flow identities
// are learned by reading the capture back, so the oracles are exact under
// the reader's own key derivation.
GapCapture WriteGapCapture(const std::string& name) {
  GapCapture cap;
  cap.path = std::string(::testing::TempDir()) + "/" + name;
  cap.t0 = 1'500'000'000ULL * 1'000'000'000ULL;

  PcapWriter writer;
  EXPECT_TRUE(writer.Open(cap.path));
  uint64_t ts = cap.t0;
  // Phase A: 120 packets over ranks 0..2 (60/40/20), spanning 120 us.
  const int counts_a[] = {60, 40, 20};
  for (int rank = 0; rank < 3; ++rank) {
    for (int i = 0; i < counts_a[rank]; ++i) {
      EXPECT_TRUE(writer.Write(RankToTuple(rank, KeyKind::kFiveTuple13B, 9), ts, 200));
      ts += 1000;
    }
  }
  // Idle gap: phase B starts 5.5 windows after t0.
  ts = cap.t0 + 5 * kEpochNs + kEpochNs / 2;
  const int counts_b[] = {50, 30};
  for (int rank = 10; rank < 12; ++rank) {
    for (int i = 0; i < counts_b[rank - 10]; ++i) {
      EXPECT_TRUE(writer.Write(RankToTuple(rank, KeyKind::kFiveTuple13B, 9), ts, 200));
      ts += 1000;
    }
  }
  EXPECT_TRUE(writer.Close());

  PcapReader reader(PcapKeyPolicy::kFiveTuple);
  EXPECT_TRUE(reader.Open(cap.path)) << reader.error();
  PacketRecord record;
  while (reader.Next(&record)) {
    if (record.timestamp_ns < cap.t0 + kEpochNs) {
      cap.phase_a.Add(record.id);
      if (cap.phase_a.Count(record.id) == 1) {
        cap.phase_a_ids.push_back(record.id);
      }
    } else {
      cap.phase_b.Add(record.id);
      if (cap.phase_b.Count(record.id) == 1) {
        cap.phase_b_ids.push_back(record.id);
      }
    }
  }
  EXPECT_EQ(cap.phase_a.total_packets(), 120u);
  EXPECT_EQ(cap.phase_b.total_packets(), 80u);
  return cap;
}

TEST(WindowReplayTest, IdleGapRotatesOncePerSkippedWindowAndEvictsTheRing) {
  const GapCapture cap = WriteGapCapture("window_gap.pcap");

  std::vector<std::pair<uint64_t, std::vector<FlowCount>>> reports;
  WindowedTopKOptions options;
  options.window_epochs = 4;
  options.epoch_packets = WindowedTopK::kNoPacketRotation;  // capture clock only
  options.inner_spec = "SS";
  WindowedTopK ring(options, TestDefaults(),
                    [&](uint64_t epoch, std::vector<FlowCount> report) {
                      reports.emplace_back(epoch, std::move(report));
                    });

  PcapReader reader(PcapKeyPolicy::kFiveTuple);
  ASSERT_TRUE(reader.Open(cap.path)) << reader.error();
  ReplayOptions replay;
  replay.epoch_ns = kEpochNs;
  const ReplayStats stats = TraceReplayer(replay).Replay(reader, ring);

  // The gap spans 5 window boundaries: exactly 5 rotations, and the
  // replayer's count agrees with the ring's.
  EXPECT_EQ(stats.packets, 200u);
  EXPECT_EQ(stats.epochs, 5u);
  EXPECT_EQ(ring.completed_epochs(), 5u);

  // Window 0's report is phase A exactly; the four idle windows reported
  // empty even though no packet arrived inside them.
  ASSERT_EQ(reports.size(), 5u);
  EXPECT_EQ(reports[0].first, 0u);
  EXPECT_EQ(reports[0].second, cap.phase_a.TopK(kK));
  for (size_t i = 1; i < 5; ++i) {
    EXPECT_EQ(reports[i].first, i);
    EXPECT_TRUE(reports[i].second.empty()) << "idle window " << i << " reported flows";
  }

  // 5 rotations > W=4: the gap cleared the whole ring, so phase A is fully
  // aged out and the sliding answer is phase B alone, exactly.
  for (const FlowId id : cap.phase_a_ids) {
    EXPECT_EQ(ring.EstimateSize(id), 0u);
  }
  EXPECT_EQ(ring.TopK(kK), cap.phase_b.TopK(kK));
}

// ---------------------------------------------------------------------------
// ISSUE 8 acceptance gate: sliding recall on the committed fixtures.

std::string CampusFixture() { return std::string(HK_TEST_DATA_DIR) + "/fixture_campus.pcap"; }
std::string CaidaFixture() { return std::string(HK_TEST_DATA_DIR) + "/fixture_caida.pcapng"; }

void ExpectSlidingRecallAtLeastPoint9(const std::string& path, PcapKeyPolicy policy,
                                      KeyKind kind) {
  PcapReader reader(policy);
  ASSERT_TRUE(reader.Open(path)) << reader.error();
  std::vector<FlowId> ids;
  PacketRecord record;
  while (reader.Next(&record)) {
    ids.push_back(record.id);
  }
  ASSERT_TRUE(reader.ok()) << reader.error();
  ASSERT_GT(ids.size(), 0u);

  // 16 epochs over the capture with an 8-deep ring: the window covers
  // roughly the newest half of the stream, so the sliding answer is
  // genuinely different from the since-boot one.
  WindowedTopKOptions options;
  options.window_epochs = 8;
  options.epoch_packets = ids.size() / 16;
  options.inner_spec = "HK-Minimum";
  SketchDefaults defaults;
  defaults.memory_bytes = 128 * 1024;
  defaults.k = kK;
  defaults.key_kind = kind;
  defaults.seed = 9;
  WindowedTopK ring(options, defaults);
  ring.InsertBatch(ids);

  // Brute-force sliding exact oracle: count only the packets inside the
  // epochs the ring still holds (the W-1 newest completed plus the
  // current partial one).
  const uint64_t completed = ring.completed_epochs();
  const uint64_t oldest_live =
      completed >= options.window_epochs - 1 ? completed - (options.window_epochs - 1) : 0;
  const size_t start = static_cast<size_t>(oldest_live * options.epoch_packets);
  ASSERT_LT(start, ids.size());
  Oracle sliding;
  for (size_t i = start; i < ids.size(); ++i) {
    sliding.Add(ids[i]);
  }
  ASSERT_LT(sliding.total_packets(), ids.size());  // the window truly slid

  const AccuracyReport report = EvaluateTopK(ring.TopK(kK), sliding, kK);
  EXPECT_GE(report.recall, 0.9) << path;
}

TEST(WindowAcceptanceTest, CampusFixtureSlidingRecallAtLeastPoint9) {
  ExpectSlidingRecallAtLeastPoint9(CampusFixture(), PcapKeyPolicy::kFiveTuple,
                                   KeyKind::kFiveTuple13B);
}

TEST(WindowAcceptanceTest, CaidaFixtureSlidingRecallAtLeastPoint9) {
  ExpectSlidingRecallAtLeastPoint9(CaidaFixture(), PcapKeyPolicy::kAddrPair,
                                   KeyKind::kAddrPair8B);
}

}  // namespace
}  // namespace hk
