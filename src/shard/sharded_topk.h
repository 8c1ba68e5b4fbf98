// ShardedTopK: a key-partitioned, multi-core top-k pipeline.
//
// The paper's OVS deployment (Section VII) runs HeavyKeeper on a single
// user-space thread; this layer is the scale-out path. N independent inner
// algorithms (any sketch registry spec; HeavyKeeper pipelines by default)
// each own a disjoint slice of the key space chosen by a salted hash of
// the flow id (shard/partition.h), so a flow's state never splits and the
// per-shard stream is just the arrival stream filtered to that shard.
//
// Two execution modes share the same shards:
//
//   * Synchronous (threads=0, the default): inserts route directly to the
//     owning shard; batches are scattered into per-shard runs and applied
//     through the inner InsertBatch fast path. No threads, no queues -
//     bit-for-bit reproducible and safe anywhere a plain sketch is.
//   * Threaded (threads=1): each shard gets an SPSC ring (common/spsc_ring.h)
//     and a worker thread that drains it in bursts through InsertBatch.
//     The caller's thread is the single producer; workers are the single
//     consumers. A full ring back-pressures the producer; an empty one
//     puts its worker to sleep, so an idle instance costs no CPU.
//
// Determinism: the partition depends only on the flow id, each ring is
// FIFO, and the inner batch path is contractually identical to the scalar
// path (sketch/topk_algorithm.h), so for a fixed seed and shard count the
// final state is identical across runs, across burst sizes, and across the
// two execution modes - regardless of how the OS schedules the workers.
// Every shard is built with the *same* seed; with one shard the instance
// is therefore bit-identical to the unsharded inner algorithm.
//
// Query semantics: TopK() waits for all queued packets to drain, then
// unions the per-shard reports (shard/merge.h - a flow's estimate is its
// owning shard's estimate, unchanged). EstimateSize() asks the owning
// shard. Flush() blocks until every accepted packet has been applied.
// name(), ActiveSimdKernel() and MemoryBytes() wait for nothing: the first
// two are fixed at construction, and in threaded mode MemoryBytes() sums
// what each worker published after its last burst (and LoadState after a
// restore), so a STATS poll never stalls the producer behind a drain.
// The destructor closes every ring; each worker applies what is still
// queued before it exits and is joined, so a shutdown mid-burst loses
// nothing. In threaded mode Snapshot(kRelaxed)
// skips the drain: it reads each shard between two of its worker's bursts
// and merges what it finds, so it waits for at most one burst per shard
// and never for a ring.
//
// Thread model (threaded mode): the insert API, Flush() and the quiesced
// queries (TopK/EstimateSize/Snapshot(kExact)/SaveState) must be called
// from one thread at a time (the producer, or callers sharing its lock);
// the N workers are internal. Snapshot(kRelaxed) alone may be called from
// any thread while the producer inserts. Each shard's mutex guards its
// algorithm: the worker holds it while it applies a drained burst, and
// every reader holds it while it reads. Cross-thread visibility for the
// quiesced queries is established by the per-shard queued counters
// (release on the worker's drain, acquire in WaitIdle), so post-Flush()
// queries read fully published sketch state.
#ifndef HK_SHARD_SHARDED_TOPK_H_
#define HK_SHARD_SHARDED_TOPK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/spsc_ring.h"
#include "shard/partition.h"
#include "sketch/registry.h"
#include "sketch/topk_algorithm.h"
#include "telemetry/telemetry.h"

namespace hk {

struct ShardedTopKOptions {
  size_t num_shards = 8;
  // Registry spec for each shard's algorithm; the shard is built with the
  // total budget's 1/num_shards slice and the caller's k/key/seed context.
  std::string inner_spec = "HK-Minimum";
  bool threaded = false;      // spin up one worker + ring per shard
  size_t ring_capacity = 4096;  // per-shard ring slots (threaded mode)
  size_t drain_burst = 256;     // packets per worker InsertBatch (threaded mode)
};

class ShardedTopK : public TopKAlgorithm {
 public:
  // Sanity cap on the shard count: far above any sensible core count, low
  // enough that a garbage n= in a spec fails loudly instead of allocating
  // (and possibly spawning) millions of shards.
  static constexpr size_t kMaxShards = 1024;

  // Throws std::invalid_argument on zero shards, a degenerate ring/burst,
  // or an inner spec that is itself sharded (nested partitioning is a
  // configuration error, not a feature).
  ShardedTopK(const ShardedTopKOptions& options, const SketchDefaults& defaults);

  // Embedding constructor: shard over pre-built algorithms instead of a
  // registry spec (custom TopKAlgorithm implementations, instrumented
  // test doubles). `inners.size()` is the shard count; options.num_shards
  // and options.inner_spec are ignored, the threading options apply as
  // usual. Caveats that the spec path handles for you: memory budgeting
  // is the caller's problem (the inners were already built), and name()
  // embeds shard 0's name - it is only a valid registry spec when the
  // inners are homogeneous registry-built instances.
  ShardedTopK(const ShardedTopKOptions& options,
              std::vector<std::unique_ptr<TopKAlgorithm>> inners);

  ~ShardedTopK() override;

  ShardedTopK(const ShardedTopK&) = delete;
  ShardedTopK& operator=(const ShardedTopK&) = delete;

  void Insert(FlowId id) override;
  void InsertWeighted(FlowId id, uint64_t weight) override;
  void InsertBatch(std::span<const FlowId> ids) override;
  void InsertBatch(std::span<const FlowId> ids, std::span<const uint64_t> weights) override;

  // Block until every accepted packet is applied to its shard (no-op in
  // synchronous mode).
  void Flush() override;

  // kExact drains the rings first. kRelaxed on a threaded instance does
  // not: each shard's part is an exact view of a prefix of that shard's
  // stream (the bursts its worker has applied), shards may be at different
  // prefixes, and no flow appears twice. Synchronous instances always
  // deliver kExact. stats.min_tracked is the merged report's smallest
  // estimate (the global admission threshold is per-shard, so no single
  // nmin exists).
  QueryResult Snapshot(const QueryOptions& options = {}) override;

  std::vector<FlowCount> TopK(size_t k) const override;
  uint64_t EstimateSize(FlowId id) const override;
  std::string name() const override { return name_; }
  size_t MemoryBytes() const override;
  size_t WorkerThreads() const override { return options_.threaded ? shards_.size() : 0; }

  // Every shard is built from the same spec, so shard 0 speaks for all.
  const char* ActiveSimdKernel() const override { return simd_kernel_; }

  // Quiesces the rings, then delegates to each shard in index order. Both
  // fail (returning false, state untouched) unless every inner supports
  // checkpointing and the shard count matches.
  bool SaveState(std::vector<uint8_t>* out) const override;
  bool LoadState(const uint8_t* data, size_t size) override;

  size_t num_shards() const { return shards_.size(); }
  bool threaded() const { return options_.threaded; }
  size_t ShardOf(FlowId id) const { return partitioner_.ShardOf(id); }

  // The shard algorithms, for tests and for pipelines that feed shards
  // from their own threads (one external thread per shard is safe: shards
  // share no state). Unsynchronized: never use them on a threaded instance
  // while its workers or a relaxed reader may touch the same shard.
  TopKAlgorithm& shard(size_t i) { return *shards_[i]->algo; }
  const TopKAlgorithm& shard(size_t i) const { return *shards_[i]->algo; }

 private:
  struct Packet {
    FlowId id;
    uint64_t weight;
  };

  struct Shard {
    std::unique_ptr<TopKAlgorithm> algo;
    std::unique_ptr<SpscRing<Packet>> ring;  // threaded mode only
    // Threaded mode: guards `algo`. The worker holds it for a whole drained
    // burst, so a reader sees the shard between bursts, never mid-burst.
    mutable std::mutex mu;
    // Producer-side scatter buffers (reused across batches). Declared
    // before `queued` so their frequently-written vector headers stay off
    // its cache line (the counter must not be false-shared).
    std::vector<FlowId> run_ids;
    std::vector<uint64_t> run_weights;
    // Packets enqueued but not yet applied by the worker. The worker's
    // release-decrement after mutating `algo` pairs with acquire loads in
    // WaitIdle() to publish sketch state to the querying thread. alignas:
    // the counter owns its line alone.
    alignas(64) std::atomic<uint64_t> queued{0};
    // Threaded mode: algo->MemoryBytes() as of the worker's last burst (or
    // the last LoadState), on a line only the worker writes.
    alignas(64) std::atomic<size_t> memory_bytes{0};
  };

  void Enqueue(FlowId id, uint64_t weight);
  // The count-before-push + backpressure protocol every threaded insert
  // path funnels through (Flush()'s cannot-miss-packets invariant lives
  // here and nowhere else). nullptr weights = unit weights.
  void PushRun(Shard& shard, std::span<const FlowId> ids, const uint64_t* weights);
  void WorkerLoop(size_t shard_index);
  void WaitIdle() const;
  // The shard's lock in threaded mode; an empty (unlocked) lock otherwise.
  std::unique_lock<std::mutex> LockShard(const Shard& shard) const;
  // Shared constructor tail: wrap `inners` into shards, then spin up the
  // rings and workers when threaded.
  void InitShards(std::vector<std::unique_ptr<TopKAlgorithm>> inners);

  ShardedTopKOptions options_;
  ShardPartitioner partitioner_;
  // High-water mark of any single shard ring's queued depth (threaded mode;
  // stays 0 in synchronous mode where nothing queues).
  telemetry::Gauge* tm_ring_highwater_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> workers_;
  // Built once the shards exist; neither changes afterwards.
  std::string name_;
  const char* simd_kernel_ = nullptr;
};

}  // namespace hk

#endif  // HK_SHARD_SHARDED_TOPK_H_
