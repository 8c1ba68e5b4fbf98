// Ablation (Section III-D): decompose the Hardware Parallel version into
// its two optimizations.
//
//   none        - Basic admission (n-hat > nmin replaces the root)
//   OptI only   - admission requires n-hat == nmin + 1 (collision detector)
//   OptII only  - selective-increment gate, Basic admission
//   OptI + II   - the Parallel version
//
// The two optimizations are designed to work together: OptII caps an
// unmonitored flow's estimate at nmin + 1, which is exactly the admission
// value OptI accepts; either alone is weaker.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/datasets.h"
#include "common/harness.h"
#include "core/heavykeeper.h"
#include "summary/min_heap.h"

namespace {

using namespace hk;

AccuracyReport RunVariant(const hk::bench::Dataset& ds, bool opt1, bool opt2,
                          size_t memory_bytes, size_t k) {
  const size_t key_bytes = KeyBytes(ds.trace.key_kind);
  const size_t store_bytes = k * IndexedMinHeap::BytesPerEntry(key_bytes);
  const size_t sketch_bytes = memory_bytes > store_bytes ? memory_bytes - store_bytes : 512;
  HeavyKeeper sketch(HeavyKeeperConfig::FromMemory(sketch_bytes, 2, 1));
  IndexedMinHeap store(k);
  for (const FlowId id : ds.trace.packets) {
    const bool monitored = store.Contains(id);
    // Without OptII the gate is disabled (monitored behaviour for all).
    const uint64_t nmin = store.Full() ? store.MinCount() : ~0ULL;
    const uint32_t est = sketch.InsertParallel(id, monitored || !opt2, nmin);
    if (monitored) {
      store.RaiseCount(id, est);
    } else if (!store.Full()) {
      store.Insert(id, est);
    } else if (opt1 ? (est == store.MinCount() + 1) : (est > store.MinCount())) {
      store.ReplaceMin(id, est);
    }
  }
  return EvaluateTopK(store.TopK(k), ds.oracle, k);
}

}  // namespace

int main() {
  using namespace hk;
  using namespace hk::bench;

  // The CAIDA-like workload (4x the flows, much narrower arrays per byte)
  // is the regime the optimizations were designed for: fingerprint
  // collisions become frequent enough for Optimization I's detector to
  // matter, and Optimization II's increment gate shows up in ARE.
  const Dataset& ds = Caida();
  PrintFigureHeader("Ablation: Optimizations I and II",
                    "Precision / ARE for each optimization subset (k=500)", ds.Describe(),
                    "OptI+II at least as good everywhere; gains concentrate at small memory");

  constexpr size_t kK = 500;
  const std::vector<std::string> variants = {"none", "OptI", "OptII", "OptI+II"};
  ResultTable precision("memory_KB", variants);
  ResultTable are("memory_KB(ARE)", variants);
  for (const size_t kb : {10, 15, 20, 30, 40}) {
    std::vector<double> prow;
    std::vector<double> arow;
    for (const auto& [opt1, opt2] :
         {std::pair{false, false}, {true, false}, {false, true}, {true, true}}) {
      const auto report = RunVariant(ds, opt1, opt2, kb * 1024, kK);
      prow.push_back(report.precision);
      arow.push_back(MetricValue(Metric::kLog10Are, report));
    }
    precision.AddRow(static_cast<double>(kb), prow);
    are.AddRow(static_cast<double>(kb), arow);
  }
  precision.Print(4);
  std::printf("\nlog10(ARE):\n");
  are.Print(4);
  return 0;
}
