// End-to-end reproduction smoke tests: all algorithms run head-to-head on a
// campus-like trace under the paper's memory accounting, and the qualitative
// orderings the paper reports must hold at test scale.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/hk_topk.h"
#include "metrics/accuracy.h"
#include "metrics/throughput.h"
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
#include "trace/generators.h"
#include "trace/oracle.h"

namespace hk {
namespace {

class IntegrationFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    trace_ = new Trace(MakeCampusTrace(400000, 2026));
    oracle_ = new Oracle(*trace_);
  }
  static void TearDownTestSuite() {
    delete trace_;
    delete oracle_;
    trace_ = nullptr;
    oracle_ = nullptr;
  }

  static double RunPrecision(TopKAlgorithm& algo, size_t k) {
    for (const FlowId id : trace_->packets) {
      algo.Insert(id);
    }
    return EvaluateTopK(algo.TopK(k), *oracle_, k).precision;
  }

  static Trace* trace_;
  static Oracle* oracle_;
};

Trace* IntegrationFixture::trace_ = nullptr;
Oracle* IntegrationFixture::oracle_ = nullptr;

TEST_F(IntegrationFixture, HeavyKeeperDominatesBaselinesUnderTightMemory) {
  constexpr size_t kBudget = 20 * 1024;
  constexpr size_t kK = 100;
  constexpr size_t kKeyBytes = 13;

  auto hk = HeavyKeeperTopK<>::Builder()
                .version(HkVersion::kParallel)
                .memory_bytes(kBudget)
                .k(kK)
                .key_kind(KeyKind::kFiveTuple13B)
                .seed(1)
                .Build();
  auto ss = SpaceSaving::FromMemory(kBudget, kKeyBytes);
  auto lc = LossyCounting::FromMemory(kBudget, kKeyBytes);
  auto css = Css::FromMemory(kBudget, 1);
  auto cm = CmTopK::FromMemory(kBudget, kK, kKeyBytes, 1);

  const double p_hk = RunPrecision(*hk, kK);
  const double p_ss = RunPrecision(*ss, kK);
  const double p_lc = RunPrecision(*lc, kK);
  const double p_css = RunPrecision(*css, kK);
  const double p_cm = RunPrecision(*cm, kK);

  // Figure 4's ordering: HK >= everything. At test scale (400k packets,
  // 40k flows) the compact CSS can also saturate, so it is allowed to tie;
  // the pointer-based admit-all baselines must lose outright.
  EXPECT_GE(p_hk, 0.90) << "HeavyKeeper precision collapsed";
  EXPECT_GE(p_hk, p_cm);
  EXPECT_GE(p_hk + 1e-9, p_css);
  EXPECT_GT(p_hk, p_lc);
  EXPECT_GT(p_hk, p_ss);
}

TEST_F(IntegrationFixture, AreOrderingMatchesFigure9) {
  // The paper's regime is very tight memory relative to the flow count
  // (10-50 KB for 1M flows). The equivalent stress point at test scale
  // (40k flows) is ~8 KB, where Space-Saving's admit-all churn inflates
  // every tracked count while HeavyKeeper's decay keeps elephants exact.
  constexpr size_t kBudget = 8 * 1024;
  constexpr size_t kK = 100;
  auto hk = HeavyKeeperTopK<>::Builder()
                .version(HkVersion::kParallel)
                .memory_bytes(kBudget)
                .k(kK)
                .key_kind(KeyKind::kFiveTuple13B)
                .seed(2)
                .Build();
  auto ss = SpaceSaving::FromMemory(kBudget, 13);
  for (const FlowId id : trace_->packets) {
    hk->Insert(id);
    ss->Insert(id);
  }
  const double are_hk = EvaluateTopK(hk->TopK(kK), *oracle_, kK).are;
  const double are_ss = EvaluateTopK(ss->TopK(kK), *oracle_, kK).are;
  EXPECT_LT(are_hk, 0.25);
  EXPECT_LT(are_hk, are_ss);
}

TEST_F(IntegrationFixture, EveryAlgorithmRespectsItsMemoryBudget) {
  constexpr size_t kBudget = 25 * 1024;
  std::vector<std::unique_ptr<TopKAlgorithm>> algos;
  algos.push_back(HeavyKeeperTopK<>::Builder()
                      .version(HkVersion::kParallel)
                      .memory_bytes(kBudget)
                      .k(100)
                      .key_kind(KeyKind::kFiveTuple13B)
                      .seed(1)
                      .Build());
  algos.push_back(HeavyKeeperTopK<>::Builder()
                      .version(HkVersion::kMinimum)
                      .memory_bytes(kBudget)
                      .k(100)
                      .key_kind(KeyKind::kFiveTuple13B)
                      .seed(1)
                      .Build());
  algos.push_back(SpaceSaving::FromMemory(kBudget, 13));
  algos.push_back(LossyCounting::FromMemory(kBudget, 13));
  algos.push_back(Frequent::FromMemory(kBudget, 13));
  algos.push_back(Css::FromMemory(kBudget, 1));
  algos.push_back(CmTopK::FromMemory(kBudget, 100, 13, 1));
  algos.push_back(CountSketchTopK::FromMemory(kBudget, 100, 13, 1));
  algos.push_back(ElasticSketch::FromMemory(kBudget, 13, 1));
  algos.push_back(ColdFilter::FromMemory(kBudget, 13, 1));
  algos.push_back(CounterTree::FromMemory(kBudget, 1));
  algos.push_back(HeavyGuardian::FromMemory(kBudget, 13, 1));
  for (const auto& algo : algos) {
    EXPECT_LE(algo->MemoryBytes(), kBudget + 64) << algo->name();
    EXPECT_GE(algo->MemoryBytes(), kBudget / 2) << algo->name() << " wastes its budget";
  }
}

TEST_F(IntegrationFixture, AllAlgorithmsProduceNonEmptyTopK) {
  constexpr size_t kBudget = 25 * 1024;
  std::vector<std::unique_ptr<TopKAlgorithm>> algos;
  algos.push_back(HeavyKeeperTopK<>::Builder()
                      .version(HkVersion::kBasic)
                      .memory_bytes(kBudget)
                      .k(50)
                      .key_kind(KeyKind::kFiveTuple13B)
                      .seed(1)
                      .Build());
  algos.push_back(SpaceSaving::FromMemory(kBudget, 13));
  algos.push_back(LossyCounting::FromMemory(kBudget, 13));
  algos.push_back(Frequent::FromMemory(kBudget, 13));
  algos.push_back(Css::FromMemory(kBudget, 1));
  algos.push_back(CmTopK::FromMemory(kBudget, 50, 13, 1));
  algos.push_back(CountSketchTopK::FromMemory(kBudget, 50, 13, 1));
  algos.push_back(ElasticSketch::FromMemory(kBudget, 13, 1));
  algos.push_back(ColdFilter::FromMemory(kBudget, 13, 1));
  algos.push_back(CounterTree::FromMemory(kBudget, 1));
  algos.push_back(HeavyGuardian::FromMemory(kBudget, 13, 1));

  for (const auto& algo : algos) {
    for (const FlowId id : trace_->packets) {
      algo->Insert(id);
    }
    const auto top = algo->TopK(50);
    // Cold Filter only reports flows that saturate both filter layers
    // (> 255 packets), which at test scale is close to 50 flows; everything
    // else must fill the report exactly.
    EXPECT_GE(top.size(), 40u) << algo->name();
    EXPECT_LE(top.size(), 50u) << algo->name();
    // Reports must be sorted descending.
    for (size_t i = 1; i < top.size(); ++i) {
      EXPECT_LE(top[i].count, top[i - 1].count) << algo->name();
    }
  }
}

TEST_F(IntegrationFixture, DeterministicEndToEnd) {
  constexpr size_t kBudget = 15 * 1024;
  auto a = HeavyKeeperTopK<>::Builder()
               .version(HkVersion::kMinimum)
               .memory_bytes(kBudget)
               .k(100)
               .key_kind(KeyKind::kFiveTuple13B)
               .seed(42)
               .Build();
  auto b = HeavyKeeperTopK<>::Builder()
               .version(HkVersion::kMinimum)
               .memory_bytes(kBudget)
               .k(100)
               .key_kind(KeyKind::kFiveTuple13B)
               .seed(42)
               .Build();
  for (const FlowId id : trace_->packets) {
    a->Insert(id);
    b->Insert(id);
  }
  EXPECT_EQ(a->TopK(100), b->TopK(100));
}

TEST_F(IntegrationFixture, Figure10LargeMemoryConvergence) {
  // With megabyte-scale memory every reasonable algorithm approaches
  // perfect precision (Figure 10).
  constexpr size_t kBudget = 1024 * 1024;
  constexpr size_t kK = 100;
  auto hk = HeavyKeeperTopK<>::Builder()
                .version(HkVersion::kParallel)
                .memory_bytes(kBudget)
                .k(kK)
                .key_kind(KeyKind::kFiveTuple13B)
                .seed(3)
                .Build();
  auto ss = SpaceSaving::FromMemory(kBudget, 13);
  const double p_hk = RunPrecision(*hk, kK);
  const double p_ss = RunPrecision(*ss, kK);
  EXPECT_GE(p_hk, 0.99);
  EXPECT_GE(p_ss, 0.95);
}

}  // namespace
}  // namespace hk
