// Network-wide measurement (Section VI-A footnote 2): every switch runs its
// own HeavyKeeper over the traffic it forwards; sketches/reports are
// periodically shipped to a central collector, which combines them into one
// network-wide top-k.
//
//   $ ./network_collector
//
// Traffic is ECMP-sharded across three simulated switches. Each switch
// serializes its sketch (as a deployment would ship it over the wire); the
// collector deserializes, pulls each report, and sum-combines the disjoint
// views. The combined top-20 is scored against global ground truth.
#include <cstdio>
#include <vector>

#include "core/hk_topk.h"
#include "core/serialization.h"
#include "metrics/accuracy.h"
#include "shard/merge.h"
#include "trace/generators.h"
#include "trace/oracle.h"

int main() {
  using namespace hk;

  constexpr size_t kSwitches = 3;
  constexpr size_t kK = 20;
  const Trace trace = MakeCampusTrace(600'000, 23);
  const Oracle oracle(trace);
  std::printf("network traffic: %llu packets, %llu flows, sharded over %zu switches\n\n",
              static_cast<unsigned long long>(trace.num_packets()),
              static_cast<unsigned long long>(trace.num_flows), kSwitches);

  // --- at the switches -----------------------------------------------
  std::vector<std::unique_ptr<HeavyKeeperTopK<>>> switches;
  for (size_t s = 0; s < kSwitches; ++s) {
    switches.push_back(HeavyKeeperTopK<>::Builder()
                           .version(HkVersion::kMinimum)
                           .memory_bytes(50 * 1024)
                           .k(2 * kK)
                           .key_kind(KeyKind::kFiveTuple13B)
                           .seed(s + 1)
                           .Build());
  }
  for (const FlowId id : trace.packets) {
    switches[id % kSwitches]->Insert(id);  // ECMP-style shard by flow hash
  }

  // Each switch ships its serialized sketch to the collector (round-trip
  // through bytes exactly as a wire transfer would).
  size_t wire_bytes = 0;
  for (size_t s = 0; s < kSwitches; ++s) {
    const auto buffer = SerializeSketch(switches[s]->sketch());
    wire_bytes += buffer.size();
    const auto restored = DeserializeSketch(buffer);
    if (!restored.has_value()) {
      std::printf("switch %zu: sketch failed to deserialize!\n", s);
      return 1;
    }
  }
  std::printf("collector received %zu sketches, %zu bytes total on the wire\n", kSwitches,
              wire_bytes);

  // --- at the collector ----------------------------------------------
  std::vector<std::vector<FlowCount>> reports;
  for (const auto& sw : switches) {
    reports.push_back(sw->TopK(2 * kK));
  }
  // Disjoint views: a flow's network-wide size is the sum of its
  // per-switch estimates.
  const auto combined = MergeTopK(reports, kK, MergeMode::kSumById);
  const auto accuracy = EvaluateTopK(combined, oracle, kK);

  std::printf("\nnetwork-wide top-%zu (combined from disjoint views):\n", kK);
  std::printf("%-6s%-20s%12s%12s\n", "rank", "flow id", "estimated", "exact");
  for (size_t i = 0; i < combined.size(); ++i) {
    std::printf("%-6zu%-20llx%12llu%12llu\n", i + 1,
                static_cast<unsigned long long>(combined[i].id),
                static_cast<unsigned long long>(combined[i].count),
                static_cast<unsigned long long>(oracle.Count(combined[i].id)));
  }
  std::printf("\nprecision %.2f, ARE %.4f\n", accuracy.precision, accuracy.are);
  return accuracy.precision >= 0.9 ? 0 : 1;
}
