// Ablation (Section III-B): sensitivity to the exponential base b. The
// paper prescribes b ~ 1.08; too small decays elephants, too large lets
// mice squat in buckets. Campus workload, 20 KB, k = 100.
#include <vector>

#include "common/datasets.h"
#include "common/harness.h"
#include "core/hk_topk.h"

int main() {
  using namespace hk;
  using namespace hk::bench;

  const Dataset& ds = Campus();
  PrintFigureHeader("Ablation: decay base b", "Precision and log10(ARE) vs b (8 KB, k=100)",
                    ds.Describe(), "flat optimum around b ~ 1.05-1.3");

  ResultTable table("b", {"precision", "log10_ARE"});
  for (const double b : {1.02, 1.05, 1.08, 1.15, 1.3, 1.5, 2.0}) {
    constexpr size_t kK = 100;
    const size_t store_bytes = kK * LazyTopKStore::BytesPerEntry(13);
    HeavyKeeperConfig config = HeavyKeeperConfig::FromMemory(8 * 1024 - store_bytes, 2, 1);
    config.b = b;
    HeavyKeeperTopK<> algo(HkVersion::kParallel, config, kK, 13);
    for (const FlowId id : ds.trace.packets) {
      algo.Insert(id);
    }
    const auto report = EvaluateTopK(algo.TopK(kK), ds.oracle, kK);
    table.AddRow(b, {report.precision, MetricValue(Metric::kLog10Are, report)});
  }
  table.Print(4);
  return 0;
}
