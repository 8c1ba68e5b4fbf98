// Adversarial and degenerate inputs, applied uniformly to every algorithm
// through the TopKAlgorithm interface: empty streams, single-flow streams,
// all-distinct streams, zero flow ids, and k larger than the flow count.
// None of these may crash, violate ordering, or fabricate flows.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "common/random.h"
#include "core/hk_topk.h"
#include "sketch/cm_sketch.h"
#include "sketch/cold_filter.h"
#include "sketch/count_sketch.h"
#include "sketch/counter_tree.h"
#include "sketch/css.h"
#include "sketch/elastic.h"
#include "sketch/frequent.h"
#include "sketch/heavy_guardian.h"
#include "sketch/lossy_counting.h"
#include "sketch/space_saving.h"

namespace hk {
namespace {

std::unique_ptr<TopKAlgorithm> Make(const std::string& name) {
  constexpr size_t kBudget = 16 * 1024;
  constexpr size_t kK = 20;
  HeavyKeeperTopK<>::Builder hk;
  hk.memory_bytes(kBudget).k(kK).key_kind(KeyKind::kSynthetic4B).seed(1);
  if (name == "HK-Basic") {
    return hk.version(HkVersion::kBasic).Build();
  }
  if (name == "HK-Parallel") {
    return hk.version(HkVersion::kParallel).Build();
  }
  if (name == "HK-Minimum") {
    return hk.version(HkVersion::kMinimum).Build();
  }
  if (name == "SS") {
    return SpaceSaving::FromMemory(kBudget, 4);
  }
  if (name == "LC") {
    return LossyCounting::FromMemory(kBudget, 4);
  }
  if (name == "CSS") {
    return Css::FromMemory(kBudget, 1);
  }
  if (name == "CM") {
    return CmTopK::FromMemory(kBudget, kK, 4, 1);
  }
  if (name == "CountSketch") {
    return CountSketchTopK::FromMemory(kBudget, kK, 4, 1);
  }
  if (name == "Frequent") {
    return Frequent::FromMemory(kBudget, 4);
  }
  if (name == "Elastic") {
    return ElasticSketch::FromMemory(kBudget, 4, 1);
  }
  if (name == "ColdFilter") {
    return ColdFilter::FromMemory(kBudget, 4, 1);
  }
  if (name == "CounterTree") {
    return CounterTree::FromMemory(kBudget, 1);
  }
  if (name == "HeavyGuardian") {
    return HeavyGuardian::FromMemory(kBudget, 4, 1);
  }
  return nullptr;
}

const std::string kAllNames[] = {"HK-Basic", "HK-Parallel", "HK-Minimum",  "SS",
                                 "LC",       "CSS",         "CM",          "CountSketch",
                                 "Frequent", "Elastic",     "ColdFilter",  "CounterTree",
                                 "HeavyGuardian"};

class AdversarialSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(AdversarialSweep, EmptyStreamReportsNothing) {
  auto algo = Make(GetParam());
  ASSERT_NE(algo, nullptr);
  EXPECT_TRUE(algo->TopK(20).empty());
  EXPECT_EQ(algo->EstimateSize(12345), 0u);
}

TEST_P(AdversarialSweep, SingleFlowStream) {
  auto algo = Make(GetParam());
  for (int i = 0; i < 5000; ++i) {
    algo->Insert(42);
  }
  const auto top = algo->TopK(20);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].id, 42u);
  // Every algorithm here is exact on an interference-free stream, except
  // Counter Tree whose noise correction may deviate slightly.
  if (GetParam() != "CounterTree") {
    EXPECT_EQ(top[0].count, 5000u) << GetParam();
  } else {
    EXPECT_NEAR(static_cast<double>(top[0].count), 5000.0, 300.0);
  }
  // No fabricated flows.
  for (const auto& fc : top) {
    EXPECT_EQ(fc.id, 42u);
  }
}

TEST_P(AdversarialSweep, AllDistinctStreamStaysOrdered) {
  auto algo = Make(GetParam());
  for (uint64_t i = 1; i <= 30000; ++i) {
    algo->Insert(Mix64(i));
  }
  const auto top = algo->TopK(20);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_LE(top[i].count, top[i - 1].count) << GetParam();
  }
}

TEST_P(AdversarialSweep, ZeroFlowIdIsAcceptable) {
  auto algo = Make(GetParam());
  for (int i = 0; i < 100; ++i) {
    algo->Insert(0);
    algo->Insert(7);
  }
  // Flow 0 was real traffic; it must be visible to point queries. (Cold
  // Filter absorbs sub-threshold flows entirely, so its *report* is empty
  // here, but the estimate still reflects the packets.)
  EXPECT_GT(algo->EstimateSize(0), 0u) << GetParam();
  if (GetParam() != "ColdFilter") {
    EXPECT_FALSE(algo->TopK(5).empty());
  }
}

TEST_P(AdversarialSweep, KLargerThanFlowCount) {
  auto algo = Make(GetParam());
  for (int i = 0; i < 500; ++i) {
    algo->Insert(1);
    algo->Insert(2);
    algo->Insert(3);
  }
  const auto top = algo->TopK(1000);
  EXPECT_LE(top.size(), 1000u);
  // Cold Filter reports only flows hot enough to pass both filter layers
  // (> 255 packets); everyone else must report all three flows.
  EXPECT_GE(top.size(), 3u) << GetParam();
  std::set<FlowId> distinct;
  for (const auto& fc : top) {
    distinct.insert(fc.id);
  }
  EXPECT_EQ(distinct.size(), top.size()) << GetParam() << " reported duplicate flows";
}

TEST_P(AdversarialSweep, BurstThenSilenceKeepsElephant) {
  // An elephant that bursts early and then goes silent must survive a long
  // tail of mice in every decay/eviction scheme at this budget.
  auto algo = Make(GetParam());
  for (int i = 0; i < 20000; ++i) {
    algo->Insert(99);
  }
  Rng rng(5);
  for (int i = 0; i < 30000; ++i) {
    algo->Insert(1000 + rng.NextBounded(10000));
  }
  const auto top = algo->TopK(20);
  bool found = false;
  for (const auto& fc : top) {
    if (fc.id == 99) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << GetParam() << " evicted a 20k-packet elephant";
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AdversarialSweep, ::testing::ValuesIn(kAllNames),
                         [](const auto& info) {
                           std::string s = info.param;
                           for (auto& c : s) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return s;
                         });

}  // namespace
}  // namespace hk
