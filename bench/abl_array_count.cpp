// Ablation: number of arrays d at a fixed byte budget (more arrays = more
// chances to dodge collisions, but each array gets narrower). The paper's
// experiments use d = 2; this shows why that is a sweet spot for the
// Parallel version while the Minimum version tolerates larger d.
#include <vector>

#include "common/datasets.h"
#include "common/harness.h"
#include "core/hk_topk.h"

int main() {
  using namespace hk;
  using namespace hk::bench;

  const Dataset& ds = Campus();
  PrintFigureHeader("Ablation: array count d", "Precision vs d at 20 KB, k = 100",
                    ds.Describe(), "d = 2 near-optimal for Parallel; Minimum flat in d");

  ResultTable table("d", {"Parallel", "Minimum"});
  for (const size_t d : {1, 2, 3, 4}) {
    std::vector<double> row;
    for (const auto version : {HkVersion::kParallel, HkVersion::kMinimum}) {
      auto algo = HeavyKeeperTopK<>::Builder()
                      .version(version)
                      .memory_bytes(20 * 1024)
                      .k(100)
                      .key_kind(KeyKind::kFiveTuple13B)
                      .seed(1)
                      .d(d)
                      .Build();
      for (const FlowId id : ds.trace.packets) {
        algo->Insert(id);
      }
      row.push_back(EvaluateTopK(algo->TopK(100), ds.oracle, 100).precision);
    }
    table.AddRow(static_cast<double>(d), row);
  }
  table.Print(4);
  return 0;
}
