// Ablation (Section III-F): dynamic array expansion under too-tight memory.
// A global counter tracks "stuck" insertions (a new flow meeting d immovable
// counters); past a threshold a (d+1)-th array is appended. This trades a
// memory-budget overshoot for late-elephant coverage - exactly the remedy
// the paper proposes for its stated limitation.
#include <cstdio>
#include <vector>

#include "common/datasets.h"
#include "common/harness.h"
#include "core/hk_topk.h"

int main() {
  using namespace hk;
  using namespace hk::bench;

  const Dataset& ds = Campus();
  PrintFigureHeader("Ablation: dynamic expansion (Section III-F)",
                    "Precision / final arrays / stuck events vs expansion threshold (4 KB)",
                    ds.Describe(),
                    "expansion recovers precision lost to stuck buckets at tight memory");

  constexpr size_t kK = 100;
  constexpr size_t kBudget = 4 * 1024;
  const size_t store_bytes = kK * LazyTopKStore::BytesPerEntry(13);

  std::printf("%-20s%16s%16s%16s%16s\n", "threshold", "precision", "arrays", "stuck_events",
              "final_KB");
  for (const uint64_t threshold : {0ULL, 100000ULL, 20000ULL, 5000ULL}) {
    HeavyKeeperConfig config = HeavyKeeperConfig::FromMemory(kBudget - store_bytes, 2, 1);
    config.expansion_threshold = threshold;
    config.max_arrays = 6;
    HeavyKeeperTopK<> algo(HkVersion::kParallel, config, kK, 13);
    for (const FlowId id : ds.trace.packets) {
      algo.Insert(id);
    }
    const auto report = EvaluateTopK(algo.TopK(kK), ds.oracle, kK);
    std::printf("%-20llu%16.4f%16zu%16llu%16.1f\n",
                static_cast<unsigned long long>(threshold), report.precision,
                algo.sketch().num_arrays(),
                static_cast<unsigned long long>(algo.sketch().stuck_events()),
                static_cast<double>(algo.MemoryBytes()) / 1024.0);
  }
  std::printf("(threshold 0 = expansion disabled)\n");
  return 0;
}
