// TopKAlgorithm v2 contract tests (sketch/topk_algorithm.h): for every
// registered contender, batch inserts are observably identical to scalar
// inserts and weighted inserts are observably identical to repeated unit
// inserts, seed for seed. HeavyKeeper overrides all three entry points
// (software-pipelined batches, collapsed weighted updates), so these are
// the tests that keep its fast paths honest; everything else exercises the
// default fallbacks.
#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sketch/registry.h"
#include "trace/generators.h"

namespace hk {
namespace {

const std::vector<std::string>& AllNames() {
  static const std::vector<std::string> names = {
      "HK",       "HK-Parallel", "HK-Minimum",  "HK-Basic",      "SS",
      "LC",       "CSS",         "CM",          "CountSketch",   "Frequent",
      "Elastic",  "ColdFilter",  "CounterTree", "HeavyGuardian",
      // The sharded front-end must honor the same contracts, in both
      // execution modes (scatter + per-shard batching reorders *work*
      // only; rings + workers must not change observable state either).
      "Sharded",  "Sharded:n=4,threads=1,ring=128,burst=32"};
  return names;
}

SketchDefaults TightDefaults() {
  SketchDefaults d;
  d.memory_bytes = 16 * 1024;  // tight enough that decay / eviction paths fire
  d.k = 50;
  d.key_kind = KeyKind::kFiveTuple13B;
  d.seed = 7;
  return d;
}

const Trace& SharedTrace() {
  static const Trace trace = MakeCampusTrace(40000, 11);
  return trace;
}

// Estimates compared on the union of both reports plus a few flows neither
// tracks (mouse flows must agree too).
void ExpectSameState(const TopKAlgorithm& a, const TopKAlgorithm& b, const std::string& name) {
  const auto top_a = a.TopK(50);
  const auto top_b = b.TopK(50);
  EXPECT_EQ(top_a, top_b) << name;
  for (const auto& fc : top_a) {
    EXPECT_EQ(a.EstimateSize(fc.id), b.EstimateSize(fc.id)) << name;
  }
  for (FlowId id = 1; id <= 16; ++id) {
    EXPECT_EQ(a.EstimateSize(id), b.EstimateSize(id)) << name;
  }
}

class EquivalenceSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(EquivalenceSweep, BatchMatchesScalar) {
  const std::string name = GetParam();
  auto scalar = MakeSketch(name, TightDefaults());
  auto batched = MakeSketch(name, TightDefaults());

  const auto& packets = SharedTrace().packets;
  for (const FlowId id : packets) {
    scalar->Insert(id);
  }
  // Uneven burst sizes straddle the implementation's internal chunking.
  static constexpr size_t kBursts[] = {1, 7, 32, 64, 5, 333, 2};
  size_t pos = 0;
  size_t burst = 0;
  while (pos < packets.size()) {
    const size_t n = std::min(kBursts[burst++ % std::size(kBursts)], packets.size() - pos);
    batched->InsertBatch(std::span<const FlowId>(packets.data() + pos, n));
    pos += n;
  }

  ExpectSameState(*scalar, *batched, name);
}

TEST_P(EquivalenceSweep, WeightedMatchesRepeatedUnits) {
  const std::string name = GetParam();
  auto weighted = MakeSketch(name, TightDefaults());
  auto repeated = MakeSketch(name, TightDefaults());

  // A weighted stream over a thinned trace: weights 1..8, id-dependent so
  // elephants and mice both carry multi-unit packets.
  const auto& packets = SharedTrace().packets;
  for (size_t i = 0; i < packets.size(); i += 5) {
    const FlowId id = packets[i];
    const uint64_t w = 1 + (id % 8);
    weighted->InsertWeighted(id, w);
    for (uint64_t u = 0; u < w; ++u) {
      repeated->Insert(id);
    }
  }

  ExpectSameState(*weighted, *repeated, name);
}

TEST_P(EquivalenceSweep, WeightedBatchMatchesScalarWeighted) {
  const std::string name = GetParam();
  auto batched = MakeSketch(name, TightDefaults());
  auto scalar = MakeSketch(name, TightDefaults());

  const auto& packets = SharedTrace().packets;
  std::vector<FlowId> ids;
  std::vector<uint64_t> weights;
  for (size_t i = 0; i < packets.size(); i += 5) {
    ids.push_back(packets[i]);
    weights.push_back(1 + (packets[i] % 8));
  }

  for (size_t i = 0; i < ids.size(); ++i) {
    scalar->InsertWeighted(ids[i], weights[i]);
  }
  batched->InsertBatch(ids, weights);

  ExpectSameState(*scalar, *batched, name);
}

TEST_P(EquivalenceSweep, ZeroWeightIsANoOp) {
  const std::string name = GetParam();
  auto algo = MakeSketch(name, TightDefaults());
  auto untouched = MakeSketch(name, TightDefaults());
  for (size_t i = 0; i < 2000; ++i) {
    algo->Insert(SharedTrace().packets[i]);
    untouched->Insert(SharedTrace().packets[i]);
  }
  algo->InsertWeighted(12345, 0);
  ExpectSameState(*algo, *untouched, name);
}

TEST(WeightedWidthTest, CmHugeWeightSaturatesInsteadOfTruncating) {
  // A weight past 32 bits must behave like that many unit inserts: the CM
  // counters saturate at UINT32_MAX (a truncating cast would instead wrap
  // to a small delta).
  auto a = MakeSketch("CM", TightDefaults());
  a->InsertWeighted(99, (1ULL << 32) + 5);
  EXPECT_EQ(a->EstimateSize(99), 0xffffffffULL);

  // Split weights accumulate exactly like one combined weight.
  auto b = MakeSketch("CM", TightDefaults());
  auto c = MakeSketch("CM", TightDefaults());
  b->InsertWeighted(99, 3'000'000'000ULL);
  c->InsertWeighted(99, 1'500'000'000ULL);
  c->InsertWeighted(99, 1'500'000'000ULL);
  EXPECT_EQ(b->EstimateSize(99), c->EstimateSize(99));
  EXPECT_EQ(b->EstimateSize(99), 3'000'000'000ULL);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, EquivalenceSweep, ::testing::ValuesIn(AllNames()),
                         [](const auto& info) {
                           std::string s = info.param;
                           for (auto& c : s) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';  // spec strings carry ':' ',' '=' too
                             }
                           }
                           return s;
                         });

}  // namespace
}  // namespace hk
