// Differential test harness: every RegisteredSketches() name is streamed
// against the exact oracle on a seeded random trace and an adversarial
// trace, under per-algorithm invariants:
//
//   * structural - reports are duplicate-free, size-bounded, ordered by
//     non-increasing estimate, and the name() spec round-trips through the
//     registry;
//   * recall - the unmissable elephants (true top flows several times the
//     k-th size) must always be reported, and the tie-tolerant recall must
//     clear a per-family floor derived from the oracle;
//   * HeavyKeeper - with collision-free fingerprints, monitored (reported)
//     flows never over-estimate (Theorem 2/4), in any sharding;
//   * sharded - one shard is bit-identical to the unsharded inner; N
//     shards at the same *total* memory stay within a documented accuracy
//     tolerance of the single sketch (shard/merge.h discusses why they
//     differ at all), in both execution modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "metrics/accuracy.h"
#include "sketch/registry.h"
#include "trace/generators.h"
#include "trace/oracle.h"

namespace hk {
namespace {

struct DiffTrace {
  std::string label;
  std::vector<FlowId> packets;
  Oracle oracle;
  size_t k;
};

// Seeded random workload: Zipf with a deep tail, the regime the paper
// evaluates on.
DiffTrace MakeRandomTrace() {
  ZipfTraceConfig config;
  config.num_packets = 150'000;
  config.num_ranks = 20'000;
  config.skew = 1.2;
  config.seed = 21;
  DiffTrace t;
  t.label = "zipf-1.2";
  t.packets = MakeZipfTrace(config).packets;
  for (const FlowId id : t.packets) {
    t.oracle.Add(id);
  }
  t.k = 50;
  return t;
}

// Adversarial workload: elephants establish, a flood of one-packet mice
// attacks every bucket, the elephants return. Decay/eviction schemes must
// not let the flood displace 4000-packet flows.
DiffTrace MakeFloodTrace() {
  DiffTrace t;
  t.label = "mouse-flood";
  constexpr int kElephants = 20;
  constexpr int kPerPhase = 2000;
  for (int round = 0; round < kPerPhase; ++round) {
    for (int e = 1; e <= kElephants; ++e) {
      t.packets.push_back(static_cast<FlowId>(e));
    }
  }
  for (uint64_t m = 0; m < 50'000; ++m) {
    t.packets.push_back(Mix64(m + 1000));  // distinct ids, one packet each
  }
  for (int round = 0; round < kPerPhase; ++round) {
    for (int e = 1; e <= kElephants; ++e) {
      t.packets.push_back(static_cast<FlowId>(e));
    }
  }
  for (const FlowId id : t.packets) {
    t.oracle.Add(id);
  }
  t.k = 20;
  return t;
}

const std::vector<DiffTrace>& Traces() {
  static const std::vector<DiffTrace> traces = [] {
    std::vector<DiffTrace> t;
    t.push_back(MakeRandomTrace());
    t.push_back(MakeFloodTrace());
    return t;
  }();
  return traces;
}

SketchDefaults Defaults(size_t k) {
  SketchDefaults d;
  d.memory_bytes = 50 * 1024;
  d.k = k;
  d.key_kind = KeyKind::kSynthetic4B;
  d.seed = 9;
  return d;
}

// Tie-tolerant recall floor, derived from the oracle runs: at 50 KB every
// algorithm solves both workloads outright (recall 1.0) except Counter
// Tree, whose shared-counter noise correction degrades on the deep-tailed
// Zipf trace (observed 0.30). The floors document those baselines with
// margin, so a change that degrades any algorithm trips the harness.
double RecallFloor(const std::string& canonical) {
  return canonical == "CounterTree" ? 0.2 : 0.9;
}

class DifferentialSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(DifferentialSweep, InvariantsHoldOnRandomAndAdversarialTraces) {
  const std::string name = GetParam();
  const std::string canonical = ResolveSketchName(name);
  ASSERT_FALSE(canonical.empty()) << name;

  for (const DiffTrace& trace : Traces()) {
    auto algo = MakeSketch(name, Defaults(trace.k));
    algo->InsertBatch(trace.packets);

    // The harness queries through Snapshot(): the preferred surface, and
    // after the stream ends every algorithm must deliver kExact.
    const QueryResult result = algo->Snapshot({.k = trace.k});
    EXPECT_EQ(result.consistency, ConsistencyLevel::kExact) << name;
    const auto& top = result.flows;
    EXPECT_EQ(top, algo->TopK(trace.k)) << name << " Snapshot/TopK diverged";
    EXPECT_LE(top.size(), trace.k) << name << " on " << trace.label;

    // Structure: duplicate-free, non-increasing estimates.
    std::set<FlowId> distinct;
    for (size_t i = 0; i < top.size(); ++i) {
      EXPECT_TRUE(distinct.insert(top[i].id).second)
          << name << " reported flow " << top[i].id << " twice on " << trace.label;
      if (i > 0) {
        EXPECT_LE(top[i].count, top[i - 1].count) << name << " unordered on " << trace.label;
      }
    }

    // The unmissable elephants: every true top-5 flow is several times the
    // k-th size on both traces; losing one is an algorithmic failure, not
    // noise.
    for (const auto& truth : trace.oracle.TopK(5)) {
      EXPECT_TRUE(distinct.count(truth.id) != 0)
          << name << " dropped top flow " << truth.id << " (" << truth.count << " packets) on "
          << trace.label;
    }

    const AccuracyReport report = EvaluateTopK(top, trace.oracle, trace.k);
    EXPECT_GE(report.recall, RecallFloor(canonical)) << name << " on " << trace.label;
  }
}

TEST_P(DifferentialSweep, NameSpecRoundTripsWithTraceState) {
  const std::string name = GetParam();
  const DiffTrace& trace = Traces()[0];
  auto a = MakeSketch(name, Defaults(trace.k));
  a->InsertBatch(trace.packets);
  auto b = MakeSketch(a->name(), Defaults(trace.k));
  b->InsertBatch(trace.packets);
  EXPECT_EQ(a->name(), b->name());
  EXPECT_EQ(a->TopK(trace.k), b->TopK(trace.k)) << name;
}

INSTANTIATE_TEST_SUITE_P(AllRegistered, DifferentialSweep,
                         ::testing::ValuesIn(RegisteredSketches()), [](const auto& info) {
                           std::string s = info.param;
                           for (auto& c : s) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return s;
                         });

// Theorem 2/4 under the harness: with collision-free fingerprints, every
// estimate HeavyKeeper reports for a (monitored) flow is a lower bound on
// the truth - for the plain pipelines and for any sharding of them.
class HkNoOverestimateSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(HkNoOverestimateSweep, ReportedEstimatesNeverExceedTruth) {
  for (const DiffTrace& trace : Traces()) {
    auto algo = MakeSketch(GetParam(), Defaults(trace.k));
    algo->InsertBatch(trace.packets);
    for (const auto& fc : algo->TopK(trace.k)) {
      EXPECT_LE(fc.count, trace.oracle.Count(fc.id))
          << GetParam() << " over-estimated flow " << fc.id << " on " << trace.label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CollisionFree, HkNoOverestimateSweep,
                         ::testing::Values("HK-Basic:fp=32", "HK-Parallel:fp=32",
                                           "HK-Minimum:fp=32",
                                           "Sharded:n=4,inner=HK-Minimum:fp=32",
                                           "Sharded:n=4,threads=1,inner=HK-Parallel:fp=32"),
                         [](const auto& info) { return std::to_string(info.index); });

// Sharded-vs-single differential: the documented merge semantics
// (shard/merge.h).
TEST(ShardedDifferentialTest, OneShardIsBitIdenticalToInner) {
  const DiffTrace& trace = Traces()[0];
  auto single = MakeSketch("HK-Minimum", Defaults(trace.k));
  auto sharded = MakeSketch("Sharded:n=1,inner=HK-Minimum", Defaults(trace.k));
  auto threaded = MakeSketch("Sharded:n=1,threads=1,inner=HK-Minimum", Defaults(trace.k));
  single->InsertBatch(trace.packets);
  sharded->InsertBatch(trace.packets);
  threaded->InsertBatch(trace.packets);
  EXPECT_EQ(single->TopK(trace.k), sharded->TopK(trace.k));
  EXPECT_EQ(single->TopK(trace.k), threaded->TopK(trace.k));
  for (FlowId id = 1; id <= 64; ++id) {
    EXPECT_EQ(single->EstimateSize(id), sharded->EstimateSize(id)) << id;
  }
}

TEST(ShardedDifferentialTest, MergeMatchesSingleSketchWithinTolerance) {
  // Same total memory, split 8 ways: each shard's arrays are 1/8 the
  // width but see ~1/8 of the flows, so accuracy stays comparable (the
  // extra per-shard candidate stores are the main deviation). 0.1 recall/
  // precision tolerance is the documented bound.
  for (const DiffTrace& trace : Traces()) {
    auto single = MakeSketch("HK-Minimum", Defaults(trace.k));
    auto sharded = MakeSketch("Sharded:n=8,inner=HK-Minimum", Defaults(trace.k));
    single->InsertBatch(trace.packets);
    sharded->InsertBatch(trace.packets);
    const auto single_report = EvaluateTopK(single->TopK(trace.k), trace.oracle, trace.k);
    const auto sharded_report = EvaluateTopK(sharded->TopK(trace.k), trace.oracle, trace.k);
    EXPECT_GE(sharded_report.recall, single_report.recall - 0.1) << trace.label;
    EXPECT_GE(sharded_report.precision, single_report.precision - 0.1) << trace.label;
  }
}

TEST(ShardedDifferentialTest, MergedEstimatesComeFromTheOwningShard) {
  const DiffTrace& trace = Traces()[0];
  auto algo = MakeSketch("Sharded:n=4,inner=HK-Minimum", Defaults(trace.k));
  algo->InsertBatch(trace.packets);
  for (const auto& fc : algo->TopK(trace.k)) {
    EXPECT_EQ(fc.count, algo->EstimateSize(fc.id)) << fc.id;
  }
}

}  // namespace
}  // namespace hk
