#include "shard/sharded_topk.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/byte_io.h"
#include "shard/merge.h"

namespace hk {
namespace {

// Single source of the spec defaults: the factory's GetUint fallbacks and
// name()'s emit-only-non-default comparisons both read from here, so
// changing a default in ShardedTopKOptions cannot desynchronize them.
const ShardedTopKOptions kDefaultOptions{};

}  // namespace

ShardedTopK::ShardedTopK(const ShardedTopKOptions& options, const SketchDefaults& defaults)
    : options_(options), partitioner_(options.num_shards) {
  if (options_.num_shards < 1 || options_.num_shards > kMaxShards) {
    throw std::invalid_argument("ShardedTopK: n= must be 1.." + std::to_string(kMaxShards));
  }
  const std::string inner_head =
      ResolveSketchName(options_.inner_spec.substr(0, options_.inner_spec.find(':')));
  if (inner_head == "Sharded") {
    throw std::invalid_argument("ShardedTopK: inner= must not itself be Sharded");
  }
  // Epoch rotation must be stream-global: per-shard rings would rotate on
  // per-shard packet counts, desynchronizing the windows. Window outside,
  // shard inside: "Window:...,inner=Sharded:n=N,inner=...".
  if (inner_head == "Window") {
    throw std::invalid_argument(
        "ShardedTopK: inner= must not be Window (wrap the ring around the "
        "sharded instance instead: Window:...,inner=Sharded:n=N,...)");
  }

  // Every shard gets an equal slice of the byte budget and the *same* seed:
  // shards hold disjoint keys, so identical hash functions cannot interact,
  // and a 1-shard instance stays bit-identical to the unsharded inner.
  SketchDefaults shard_defaults = defaults;
  shard_defaults.memory_bytes = defaults.memory_bytes / options_.num_shards;

  std::vector<std::unique_ptr<TopKAlgorithm>> inners;
  inners.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    inners.push_back(MakeSketch(options_.inner_spec, shard_defaults));
  }
  InitShards(std::move(inners));
}

ShardedTopK::ShardedTopK(const ShardedTopKOptions& options,
                         std::vector<std::unique_ptr<TopKAlgorithm>> inners)
    : options_(options), partitioner_(inners.size()) {
  if (inners.empty() || inners.size() > kMaxShards) {
    throw std::invalid_argument("ShardedTopK: need 1.." + std::to_string(kMaxShards) +
                                " inner algorithms");
  }
  options_.num_shards = inners.size();
  InitShards(std::move(inners));
}

void ShardedTopK::InitShards(std::vector<std::unique_ptr<TopKAlgorithm>> inners) {
  // Threaded-options invariants live here so both constructors share them.
  if (options_.threaded && (options_.ring_capacity < 1 || options_.drain_burst < 1)) {
    throw std::invalid_argument("ShardedTopK: ring= and burst= must be >= 1");
  }
  if (options_.threaded) {
    tm_ring_highwater_ = telemetry::Registry::Get().GetGauge(
        "hk_ring_occupancy_highwater",
        "Deepest producer-observed queue depth of any single worker ring",
        "ring=\"sharded\"");
  }
  shards_.reserve(inners.size());
  for (auto& inner : inners) {
    auto shard = std::make_unique<Shard>();
    shard->algo = std::move(inner);
    shard->memory_bytes.store(shard->algo->MemoryBytes(), std::memory_order_relaxed);
    if (options_.threaded) {
      shard->ring = std::make_unique<SpscRing<Packet>>(options_.ring_capacity);
      const size_t burst = std::min(options_.drain_burst, shard->ring->capacity());
      shard->burst.resize(burst);
      shard->burst_ids.resize(burst);
      shard->burst_weights.resize(burst);
    }
    shards_.push_back(std::move(shard));
  }
  name_ = "Sharded:n=" + std::to_string(shards_.size());
  if (options_.threaded) {
    name_ += ",threads=1";
    if (options_.ring_capacity != kDefaultOptions.ring_capacity) {
      name_ += ",ring=" + std::to_string(options_.ring_capacity);
    }
    if (options_.drain_burst != kDefaultOptions.drain_burst) {
      name_ += ",burst=" + std::to_string(options_.drain_burst);
    }
  }
  // The greedy key comes last (registry grammar): the inner name is itself
  // a full spec and may contain ':' and ','.
  name_ += ",inner=" + shards_[0]->algo->name();
  simd_kernel_ = shards_[0]->algo->ActiveSimdKernel();
  if (options_.threaded) {
    workers_.reserve(shards_.size());
    for (size_t i = 0; i < shards_.size(); ++i) {
      workers_.emplace_back([this, i] { WorkerLoop(i); });
    }
  }
}

ShardedTopK::~ShardedTopK() {
  // Closing a ring lets its worker apply what is still queued, then exit,
  // so packets enqueued right up to destruction are applied
  // (shutdown-while-draining).
  for (const auto& shard : shards_) {
    if (shard->ring != nullptr) {
      shard->ring->Close();
    }
  }
  for (auto& worker : workers_) {
    worker.join();
  }
}

void ShardedTopK::Enqueue(FlowId id, uint64_t weight) {
  PushRun(*shards_[partitioner_.ShardOf(id)], std::span<const FlowId>(&id, 1), &weight);
}

void ShardedTopK::PushRun(Shard& shard, std::span<const FlowId> ids, const uint64_t* weights) {
  // Count before pushing: the producer is the only thread that observes
  // its own not-yet-pushed packets, so Flush() from the producer thread
  // can never miss one.
  const uint64_t depth =
      shard.queued.fetch_add(ids.size(), std::memory_order_relaxed) + ids.size();
  tm_ring_highwater_->MaxTo(static_cast<int64_t>(depth));
  // One Push per chunk; a full ring back-pressures the producer inside it.
  constexpr size_t kChunk = 256;
  Packet chunk[kChunk];
  for (size_t base = 0; base < ids.size(); base += kChunk) {
    const size_t n = std::min(kChunk, ids.size() - base);
    for (size_t i = 0; i < n; ++i) {
      chunk[i] = {ids[base + i], weights != nullptr ? weights[base + i] : 1};
    }
    shard.ring->Push(std::span<const Packet>(chunk, n));
  }
}

void ShardedTopK::WorkerLoop(size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  const std::span<Packet> packets(shard.burst);
  std::vector<FlowId>& ids = shard.burst_ids;
  std::vector<uint64_t>& weights = shard.burst_weights;
  // Pop sleeps while the ring is empty and returns 0 once the destructor
  // has closed it and everything queued before has been taken.
  while (const size_t n = shard.ring->Pop(packets)) {
    bool unit_weights = true;
    for (size_t i = 0; i < n; ++i) {
      ids[i] = packets[i].id;
      weights[i] = packets[i].weight;
      unit_weights &= packets[i].weight == 1;
    }
    // The worker and the readers take turns at the shard's lock, which is
    // not fair either way by itself: the readers waiting when a burst is
    // popped take it first (until that many grants, or none waits), and a
    // reader that comes while the worker then waits for it lets the worker
    // go first. So a reader waits at most one burst, and back-to-back
    // readers cannot hold the drain off.
    if (const uint32_t waiting = shard.readers_waiting.load(std::memory_order_acquire)) {
      const uint64_t until = shard.reads_granted.load(std::memory_order_acquire) + waiting;
      while (shard.readers_waiting.load(std::memory_order_acquire) != 0 &&
             shard.reads_granted.load(std::memory_order_acquire) < until) {
        std::this_thread::yield();
      }
    }
    shard.worker_waiting.store(true, std::memory_order_release);
    // Drain through the inner batch fast path; a run of unit weights
    // takes the software-pipelined unweighted entry point.
    {
      const std::lock_guard<std::mutex> lock(shard.mu);
      shard.worker_waiting.store(false, std::memory_order_release);
      if (unit_weights) {
        shard.algo->InsertBatch(std::span<const FlowId>(ids.data(), n));
      } else {
        shard.algo->InsertBatch(std::span<const FlowId>(ids.data(), n),
                                std::span<const uint64_t>(weights.data(), n));
      }
      // A burst can grow the inner (HeavyKeeper's Section III-F expansion).
      shard.memory_bytes.store(shard.algo->MemoryBytes(), std::memory_order_relaxed);
    }
    shard.queued.fetch_sub(n, std::memory_order_release);
  }
}

void ShardedTopK::WaitIdle() const {
  if (!options_.threaded) {
    return;
  }
  // Sleeps in short steps rather than in a wait a worker would end. On a
  // 4-vCPU VM, a querying thread woken by a worker's notify, or one that
  // spun beside the workers, slowed hk_serve ingest into e2ebench
  // caida-sharded's Sharded:n=2 from 18-19 to 11-13 Mpps, when STATS still
  // drained the rings under the instance lock.
  for (const auto& shard : shards_) {
    while (shard->queued.load(std::memory_order_acquire) != 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
}

std::unique_lock<std::mutex> ShardedTopK::LockShard(const Shard& shard) const {
  if (!options_.threaded) {
    return std::unique_lock<std::mutex>();
  }
  while (shard.worker_waiting.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  shard.readers_waiting.fetch_add(1, std::memory_order_acq_rel);
  std::unique_lock<std::mutex> lock(shard.mu);
  shard.reads_granted.fetch_add(1, std::memory_order_acq_rel);
  shard.readers_waiting.fetch_sub(1, std::memory_order_acq_rel);
  return lock;
}

void ShardedTopK::Flush() { WaitIdle(); }

void ShardedTopK::Insert(FlowId id) {
  if (options_.threaded) {
    Enqueue(id, 1);
    return;
  }
  shards_[partitioner_.ShardOf(id)]->algo->Insert(id);
}

void ShardedTopK::InsertWeighted(FlowId id, uint64_t weight) {
  if (weight == 0) {
    return;
  }
  if (options_.threaded) {
    Enqueue(id, weight);
    return;
  }
  shards_[partitioner_.ShardOf(id)]->algo->InsertWeighted(id, weight);
}

void ShardedTopK::InsertBatch(std::span<const FlowId> ids) {
  // Scatter into per-shard runs, preserving arrival order inside each
  // shard. Synchronous mode applies each run through the inner batch fast
  // path (final state matches per-packet routing exactly - the batch ==
  // scalar contract - but hashing and prefetching amortize per shard);
  // threaded mode publishes each run with a single queued-counter bump
  // instead of one contended RMW per packet.
  for (const auto& shard : shards_) {
    shard->run_ids.clear();
  }
  for (const FlowId id : ids) {
    shards_[partitioner_.ShardOf(id)]->run_ids.push_back(id);
  }
  for (const auto& shard : shards_) {
    if (shard->run_ids.empty()) {
      continue;
    }
    if (!options_.threaded) {
      shard->algo->InsertBatch(shard->run_ids);
      continue;
    }
    // Runs are delivered shard by shard, so a full ring briefly blocks
    // delivery to later shards. Accepted trade-off: in steady state the
    // aggregate rate is gated by the hottest shard's worker regardless,
    // and per-shard FIFO delivery keeps the determinism argument simple.
    PushRun(*shard, shard->run_ids, /*weights=*/nullptr);
  }
}

void ShardedTopK::InsertBatch(std::span<const FlowId> ids, std::span<const uint64_t> weights) {
  for (const auto& shard : shards_) {
    shard->run_ids.clear();
    shard->run_weights.clear();
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    if (weights[i] == 0) {
      continue;  // contract: weight 0 is a no-op
    }
    Shard& shard = *shards_[partitioner_.ShardOf(ids[i])];
    shard.run_ids.push_back(ids[i]);
    shard.run_weights.push_back(weights[i]);
  }
  for (const auto& shard : shards_) {
    if (shard->run_ids.empty()) {
      continue;
    }
    if (!options_.threaded) {
      shard->algo->InsertBatch(shard->run_ids, shard->run_weights);
      continue;
    }
    PushRun(*shard, shard->run_ids, shard->run_weights.data());
  }
}

QueryResult ShardedTopK::Snapshot(const QueryOptions& options) {
  // A relaxed read skips the drain and takes each shard between two of its
  // worker's bursts; it touches no producer-side state.
  const bool relaxed = options_.threaded && options.consistency == ConsistencyLevel::kRelaxed;
  if (!relaxed) {
    WaitIdle();
  }
  std::vector<std::vector<FlowCount>> per_shard;
  per_shard.reserve(shards_.size());
  // Sum of the shards' reports, not the merged size: the union truncates
  // to k but each shard tracks its own candidates.
  size_t tracked = 0;
  for (const auto& shard : shards_) {
    const auto lock = LockShard(*shard);
    per_shard.push_back(shard->algo->TopK(options.k));
    tracked += per_shard.back().size();
  }
  QueryResult result;
  result.flows = MergeTopK(per_shard, options.k);
  result.consistency = relaxed ? ConsistencyLevel::kRelaxed : ConsistencyLevel::kExact;
  result.stats.tracked_flows = tracked;
  result.stats.min_tracked = result.flows.empty() ? 0 : result.flows.back().count;
  return result;
}

std::vector<FlowCount> ShardedTopK::TopK(size_t k) const {
  WaitIdle();
  std::vector<std::vector<FlowCount>> per_shard;
  per_shard.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const auto lock = LockShard(*shard);
    per_shard.push_back(shard->algo->TopK(k));
  }
  return MergeTopK(per_shard, k);
}

uint64_t ShardedTopK::EstimateSize(FlowId id) const {
  WaitIdle();
  const Shard& shard = *shards_[partitioner_.ShardOf(id)];
  const auto lock = LockShard(shard);
  return shard.algo->EstimateSize(id);
}

size_t ShardedTopK::MemoryBytes() const {
  // Threaded: the published sizes, so no caller waits for a drain or a
  // shard lock; bursts still queued may grow a shard after the read.
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += options_.threaded ? shard->memory_bytes.load(std::memory_order_relaxed)
                               : shard->algo->MemoryBytes();
  }
  return total;
}

bool ShardedTopK::SaveState(std::vector<uint8_t>* out) const {
  WaitIdle();
  // Each inner writes in place behind its length slot; an inner that
  // cannot checkpoint rolls `out` back to where it started.
  const size_t start = out->size();
  ByteAppend(*out, static_cast<uint64_t>(shards_.size()));
  for (const auto& shard : shards_) {
    const size_t blob = ByteBeginBlob(*out);
    const auto lock = LockShard(*shard);
    if (!shard->algo->SaveState(out)) {
      out->resize(start);
      return false;
    }
    ByteEndBlob(*out, blob);
  }
  return true;
}

bool ShardedTopK::LoadState(const uint8_t* data, size_t size) {
  WaitIdle();
  ByteReader reader(data, size);
  uint64_t n = 0;
  if (!reader.Read(&n) || n != shards_.size()) {
    return false;
  }
  // Per-shard delegation is not atomic across shards: frame every blob
  // first so a short buffer cannot leave half the shards restored.
  std::vector<std::span<const uint8_t>> blobs(shards_.size());
  for (auto& blob : blobs) {
    if (!reader.BorrowBlob(&blob)) {
      return false;
    }
  }
  if (!reader.Done()) {
    return false;
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    const auto lock = LockShard(shard);
    const bool loaded = shard.algo->LoadState(blobs[i].data(), blobs[i].size());
    shard.memory_bytes.store(shard.algo->MemoryBytes(), std::memory_order_relaxed);
    if (!loaded) {
      return false;
    }
  }
  return true;
}

HK_REGISTER_SKETCHES(ShardedTopK) {
  RegisterSketch({"Sharded",
                  {},
                  {"n", "threads", "ring", "burst", "inner"},
                  [](const SketchArgs& args) -> std::unique_ptr<TopKAlgorithm> {
                    ShardedTopKOptions options;
                    options.num_shards =
                        static_cast<size_t>(args.GetUint("n", kDefaultOptions.num_shards));
                    const uint64_t threads = args.GetUint("threads", 0);
                    if (threads > 1) {
                      throw std::invalid_argument(
                          "sketch spec: threads= must be 0 or 1 (one worker per shard; "
                          "raise n= for more workers)");
                    }
                    options.threaded = threads != 0;
                    if (!options.threaded && (args.params().count("ring") != 0 ||
                                              args.params().count("burst") != 0)) {
                      throw std::invalid_argument(
                          "sketch spec: ring=/burst= tune the worker rings and require "
                          "threads=1");
                    }
                    options.ring_capacity = static_cast<size_t>(
                        args.GetUint("ring", kDefaultOptions.ring_capacity));
                    options.drain_burst = static_cast<size_t>(
                        args.GetUint("burst", kDefaultOptions.drain_burst));
                    if (const auto it = args.params().find("inner"); it != args.params().end()) {
                      options.inner_spec = it->second;
                    }
                    SketchDefaults defaults;
                    defaults.memory_bytes = args.memory_bytes();
                    defaults.k = args.k();
                    defaults.key_kind = args.key_kind();
                    defaults.seed = args.seed();
                    return std::make_unique<ShardedTopK>(options, defaults);
                  },
                  /*greedy_key=*/"inner"});
}

}  // namespace hk
