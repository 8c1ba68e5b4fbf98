// Ablation (Section III-D, Optimization I): fingerprint width vs accuracy.
// Narrow fingerprints collide and conflate flows (the failure mode that
// Optimization I detects); wide fingerprints spend budget on bits instead
// of buckets. Campus workload, 20 KB, k = 100.
#include <vector>

#include "common/datasets.h"
#include "common/harness.h"
#include "core/hk_topk.h"

int main() {
  using namespace hk;
  using namespace hk::bench;

  const Dataset& ds = Campus();
  PrintFigureHeader("Ablation: fingerprint bits",
                    "Precision and log10(ARE) vs fingerprint width (20 KB, k=500)",
                    ds.Describe(),
                    "very narrow fingerprints conflate flows; Optimization I masks the "
                    "moderate widths, and narrower buckets buy extra width w");

  ResultTable table("fp_bits", {"precision", "log10_ARE"});
  for (const uint32_t bits : {4u, 6u, 8u, 12u, 16u, 24u}) {
    constexpr size_t kK = 500;
    const size_t store_bytes = kK * LazyTopKStore::BytesPerEntry(13);
    HeavyKeeperConfig config;
    config.fingerprint_bits = bits;
    config.d = 2;
    config.seed = 1;
    config.w = (20 * 1024 - store_bytes) / (config.BucketBytes() * config.d);
    HeavyKeeperTopK<> algo(HkVersion::kParallel, config, kK, 13);
    for (const FlowId id : ds.trace.packets) {
      algo.Insert(id);
    }
    const auto report = EvaluateTopK(algo.TopK(kK), ds.oracle, kK);
    table.AddRow(bits, {report.precision, MetricValue(Metric::kLog10Are, report)});
  }
  table.Print(4);
  return 0;
}
