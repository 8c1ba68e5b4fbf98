// Ablation (Section III-B): the paper claims any monotonically decreasing
// decay probability works about as well as the exponential b^-C, naming
// C^-b and a sigmoid as alternatives. This bench swaps the decay function
// in the Parallel pipeline and sweeps memory on the campus workload.
#include <vector>

#include "common/datasets.h"
#include "common/harness.h"
#include "core/hk_topk.h"

int main() {
  using namespace hk;
  using namespace hk::bench;

  const Dataset& ds = Campus();
  PrintFigureHeader("Ablation: decay functions",
                    "Precision vs memory for exponential / polynomial / sigmoid decay",
                    ds.Describe(), "all three close; exponential never worse (paper claim)");

  const std::vector<std::pair<DecayFunction, double>> functions = {
      {DecayFunction::kExponential, 1.08},
      {DecayFunction::kPolynomial, 2.0},
      {DecayFunction::kSigmoid, 1.08},
  };
  ResultTable table("memory_KB", {"exponential", "polynomial", "sigmoid"});
  for (const size_t kb : PaperMemoriesKb()) {
    std::vector<double> row;
    for (const auto& [function, base] : functions) {
      constexpr size_t kK = 100;
      const size_t store_bytes = kK * LazyTopKStore::BytesPerEntry(13);
      HeavyKeeperConfig config =
          HeavyKeeperConfig::FromMemory(kb * 1024 - store_bytes, 2, 1);
      config.decay_function = function;
      config.b = base;
      HeavyKeeperTopK<> algo(HkVersion::kParallel, config, kK, 13);
      for (const FlowId id : ds.trace.packets) {
        algo.Insert(id);
      }
      row.push_back(EvaluateTopK(algo.TopK(kK), ds.oracle, kK).precision);
    }
    table.AddRow(static_cast<double>(kb), row);
  }
  table.Print(4);
  return 0;
}
