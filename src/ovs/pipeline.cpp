#include "ovs/pipeline.h"

#include <algorithm>
#include <span>
#include <thread>

#include "common/spsc_ring.h"
#include "common/timer.h"
#include "common/zipf.h"
#include "trace/generators.h"

namespace hk {

PipelineResult RunPipelines(const std::vector<RawPacket>& packets, const AlgorithmFactory& make,
                            const PipelineConfig& config) {
  // Each pipeline needs a datapath thread plus its measurement threads;
  // oversubscribing a small host with spinning threads only measures the
  // scheduler, so scale down to the hardware (the paper's testbed runs 4
  // pipelines on 24 threads). Pipeline 0's algorithm is built first so its
  // own worker-thread count (threaded sharded consumers) feeds the clamp -
  // every pipeline runs the same spec, so one sample is representative.
  TopKAlgorithm* first = make ? make(0) : nullptr;
  const size_t threads_per_pipeline = 2 + (first != nullptr ? first->WorkerThreads() : 0);
  const size_t hw =
      std::max<size_t>(std::thread::hardware_concurrency() / threads_per_pipeline, 1);
  const size_t n = std::max<size_t>(std::min(config.num_pipelines, hw), 1);
  std::vector<std::unique_ptr<SpscRing<FlowId>>> rings;
  std::vector<std::unique_ptr<SimulatedDatapath>> datapaths;
  std::vector<TopKAlgorithm*> algorithms;
  rings.reserve(n);
  datapaths.reserve(n);
  algorithms.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rings.push_back(std::make_unique<SpscRing<FlowId>>(config.ring_capacity));
    datapaths.push_back(std::make_unique<SimulatedDatapath>(config.cache_slots));
    algorithms.push_back(i == 0 ? first : (make ? make(i) : nullptr));
  }

  WallTimer timer;
  std::vector<std::thread> threads;
  threads.reserve(2 * n);
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      SimulatedDatapath& dp = *datapaths[i];
      SpscRing<FlowId>& ring = *rings[i];
      // Parse + cache-lookup a burst at a time, then publish it with one
      // Push; a full ring back-pressures the datapath inside it. Close
      // ends the stream.
      constexpr size_t kProduceBatch = 256;
      FlowId ids[kProduceBatch];
      for (size_t base = 0; base < packets.size(); base += kProduceBatch) {
        const size_t m = std::min(kProduceBatch, packets.size() - base);
        dp.ProcessBatch(packets.data() + base, m, ids);
        ring.Push(std::span<const FlowId>(ids, m));
      }
      ring.Close();
    });
    threads.emplace_back([&, i] {
      SpscRing<FlowId>& ring = *rings[i];
      TopKAlgorithm* algo = algorithms[i];
      // Drain in bursts: one InsertBatch per drain lets the measurement
      // algorithm amortize hashing and prefetch its buckets while the
      // datapath keeps filling the ring.
      constexpr size_t kDrainBatch = 256;
      FlowId batch[kDrainBatch];
      size_t got = 0;
      while ((got = ring.Pop(batch)) > 0) {
        if (algo != nullptr) {
          algo->InsertBatch(std::span<const FlowId>(batch, got));
        }
      }
      if (algo != nullptr) {
        // A concurrent consumer (threaded ShardedTopK) may still hold
        // queued packets in its shard rings; wait for them inside the
        // timed region so throughput covers every applied packet.
        algo->Flush();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }

  PipelineResult result;
  result.seconds = timer.ElapsedSeconds();
  result.packets = static_cast<uint64_t>(packets.size()) * n;
  result.mps = Mps(result.packets, result.seconds);
  result.pipelines = n;
  if (config.snapshot_k > 0) {
    result.reports.reserve(n);
    for (TopKAlgorithm* algo : algorithms) {
      if (algo != nullptr) {
        result.reports.push_back(algo->Snapshot({.k = config.snapshot_k}));
      }
    }
  }
  return result;
}

std::vector<RawPacket> MakeWirePackets(uint64_t num_packets, uint64_t num_ranks, double skew,
                                       uint64_t seed) {
  ZipfDistribution dist(num_ranks, skew);
  Rng rng(seed ^ 0x0f5eedULL);

  // Materialize a 5-tuple per rank once, then sample packets i.i.d.
  std::vector<FiveTuple> tuples(num_ranks);
  SplitMix64 sm(seed ^ 0x7ab1e5ULL);
  for (auto& t : tuples) {
    const uint64_t a = sm.Next();
    const uint64_t b = sm.Next();
    t.src_ip = static_cast<uint32_t>(a);
    t.dst_ip = static_cast<uint32_t>(a >> 32);
    t.src_port = static_cast<uint16_t>(b);
    t.dst_port = static_cast<uint16_t>(b >> 16);
    t.proto = (b >> 32) % 2 == 0 ? 6 : 17;
  }

  std::vector<RawPacket> packets;
  packets.reserve(num_packets);
  for (uint64_t i = 0; i < num_packets; ++i) {
    packets.push_back(PackHeader(tuples[dist.Sample(rng)]));
  }
  return packets;
}

}  // namespace hk
