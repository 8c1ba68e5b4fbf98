// Ablation (Section III-C note): min-heap vs Stream-Summary vs the lazy
// threshold store as the top-k candidate backend. The paper uses
// Stream-Summary in its implementation for O(1) updates; the lazy store
// (summary/lazy_topk.h, the pipelines' default) defers heap maintenance so
// the monitored path is compare-only. Accuracy must be identical up to
// eviction tie-breaks, with throughput the differentiator.
#include <vector>

#include "common/datasets.h"
#include "common/harness.h"
#include "common/timer.h"
#include "core/hk_topk.h"

namespace {

template <typename Store>
double RunMps(const hk::bench::Dataset& ds, size_t kb, double* precision) {
  using namespace hk;
  using namespace hk::bench;
  auto algo = typename HeavyKeeperTopK<Store>::Builder()
                  .version(HkVersion::kParallel)
                  .memory_bytes(kb * 1024)
                  .k(100)
                  .key_kind(KeyKind::kFiveTuple13B)
                  .seed(1)
                  .Build();
  WallTimer timer;
  for (const FlowId id : ds.trace.packets) {
    algo->Insert(id);
  }
  const double mps = Mps(ds.trace.num_packets(), timer.ElapsedSeconds());
  *precision = EvaluateTopK(algo->TopK(100), ds.oracle, 100).precision;
  return mps;
}

}  // namespace

int main() {
  using namespace hk;
  using namespace hk::bench;

  const Dataset& ds = Campus();
  PrintFigureHeader("Ablation: top-k store backend",
                    "Precision and throughput: min-heap vs Stream-Summary vs lazy (k=100)",
                    ds.Describe(), "identical precision; lazy fastest");

  ResultTable table("memory_KB", {"heap_precision", "summary_precision", "lazy_precision",
                                  "heap_Mps", "summary_Mps", "lazy_Mps"});
  for (const size_t kb : {10, 20, 30, 40, 50}) {
    double heap_precision = 0.0;
    double summary_precision = 0.0;
    double lazy_precision = 0.0;
    const double heap_mps = RunMps<HeapTopKStore>(ds, kb, &heap_precision);
    const double summary_mps = RunMps<SummaryTopKStore>(ds, kb, &summary_precision);
    const double lazy_mps = RunMps<LazyTopKStore>(ds, kb, &lazy_precision);
    table.AddRow(static_cast<double>(kb), {heap_precision, summary_precision, lazy_precision,
                                           heap_mps, summary_mps, lazy_mps});
  }
  table.Print(3);
  return 0;
}
