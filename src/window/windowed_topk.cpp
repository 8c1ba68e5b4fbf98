#include "window/windowed_topk.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/byte_io.h"
#include "shard/merge.h"

namespace hk {
namespace {

const WindowedTopKOptions kDefaultOptions{};

}  // namespace

WindowedTopK::WindowedTopK(const WindowedTopKOptions& options, const SketchDefaults& defaults,
                           EpochCallback on_epoch)
    : options_(options), slot_defaults_(defaults), on_epoch_(std::move(on_epoch)) {
  if (options_.window_epochs < 1 || options_.window_epochs > kMaxWindowEpochs) {
    throw std::invalid_argument("WindowedTopK: w= must be 1.." +
                                std::to_string(kMaxWindowEpochs));
  }
  if (options_.epoch_packets < 1) {
    throw std::invalid_argument("WindowedTopK: epoch= must be >= 1");
  }
  const std::string inner_head =
      ResolveSketchName(options_.inner_spec.substr(0, options_.inner_spec.find(':')));
  if (inner_head == "Window") {
    throw std::invalid_argument(
        "WindowedTopK: inner= must not itself be Window (one ring per stream; "
        "nested rings have no coherent rotation order)");
  }

  // Every slot gets an equal slice of the byte budget and the *same* seed:
  // slots cover disjoint time slices, so identical hash functions cannot
  // interact (the ShardedTopK precedent), and kSumById merging stays
  // comparable across epochs.
  slot_defaults_.memory_bytes = defaults.memory_bytes / options_.window_epochs;
  // Oversample each slot's candidate list: a flow whose traffic is spread
  // across the window can rank below k inside every single epoch yet well
  // above k in the sum. Tracking (and later merging) kMergeOversample * k
  // candidates per epoch keeps such flows alive until the kSumById merge,
  // which truncates back to k. The deeper heap has to fit the slot's byte
  // slice, so the depth is capped at one heap entry per ~32 slice bytes and
  // never drops below the caller's k. A one-slot ring never merges, so at
  // w=1 the slot is built from exactly the caller's defaults: each epoch
  // reports what the inner alone would report over that epoch.
  if (options_.window_epochs > 1) {
    constexpr size_t kHeapBytesPerEntry = 32;
    slot_defaults_.k =
        std::min(defaults.k * kMergeOversample,
                 std::max(defaults.k, slot_defaults_.memory_bytes / kHeapBytesPerEntry));
  }

  slots_.reserve(options_.window_epochs);
  slots_.push_back(MakeSlot());
  // The oversampled candidate heap must come out of the slot's byte slice,
  // not on top of it: trim the budget handed to the inner until the built
  // slot fits its slice (W * slice == the caller's budget). Inners that pin
  // mem= in their spec ignore the handed budget; the guard below stops the
  // loop from chasing them.
  const size_t slice = slot_defaults_.memory_bytes;
  for (int pass = 0; pass < 4 && slots_[0]->MemoryBytes() > slice; ++pass) {
    const size_t over = slots_[0]->MemoryBytes() - slice;
    if (over >= slot_defaults_.memory_bytes) {
      break;
    }
    slot_defaults_.memory_bytes -= over;
    slots_[0] = MakeSlot();
  }
  if (slots_[0]->WorkerThreads() > 0) {
    // Only the current slot ever receives packets, so a threaded inner
    // would keep (W-1) * threads workers alive for slots that can never see
    // another insert. Window the synchronous form and thread outside.
    throw std::invalid_argument(
        "WindowedTopK: inner= must be synchronous (WorkerThreads() == 0); '" +
        options_.inner_spec + "' spawns workers - wrap the unthreaded inner instead");
  }
  inner_name_ = slots_[0]->name();
  for (size_t i = 1; i < options_.window_epochs; ++i) {
    slots_.push_back(MakeSlot());
  }
  telemetry::Registry& registry = telemetry::Registry::Get();
  tm_rotations_ = registry.GetCounter(
      "hk_window_rotations_total",
      "Epoch ring rotations (packet-count trips and explicit Rotate() calls)");
  tm_snapshot_us_ = registry.GetHistogram(
      "hk_window_snapshot_us", "Sliding-window merge-and-rescore query latency (microseconds)");
}

std::unique_ptr<TopKAlgorithm> WindowedTopK::MakeSlot() const {
  return MakeSketch(options_.inner_spec, slot_defaults_);
}

void WindowedTopK::Rotate() {
  if (on_epoch_) {
    on_epoch_(epoch_, slots_[current_]->TopK(slot_defaults_.k));
  }
  ++epoch_;
  in_epoch_ = 0;
  // The slot we advance into is the oldest completed epoch: rebuilding it
  // fresh is the instant its contents age out of every answer.
  current_ = (current_ + 1) % slots_.size();
  slots_[current_] = MakeSlot();
  tm_rotations_->Add();
}

void WindowedTopK::CountPackets(uint64_t packets) {
  // kNoPacketRotation (== UINT64_MAX) never trips: capture-time drivers
  // rotate explicitly instead.
  in_epoch_ += packets;
  if (in_epoch_ >= options_.epoch_packets) {
    Rotate();
  }
}

void WindowedTopK::Insert(FlowId id) {
  // Rotation boundary contract: the insert lands in the old epoch first,
  // so a completed window holds exactly epoch_packets packets and the Nth
  // packet of a window is the one whose insert triggers the rotation.
  slots_[current_]->Insert(id);
  CountPackets(1);
}

void WindowedTopK::InsertWeighted(FlowId id, uint64_t weight) {
  if (weight == 0) {
    return;
  }
  // One call = one record: weighted inserts (byte counting) advance the
  // epoch clock by one packet, not by the weight.
  slots_[current_]->InsertWeighted(id, weight);
  CountPackets(1);
}

void WindowedTopK::InsertBatch(std::span<const FlowId> ids) {
  // Split at epoch boundaries so the final state is bit-identical to the
  // per-packet path (the batch == scalar contract), while each chunk still
  // takes the inner's batch fast path.
  while (!ids.empty()) {
    const uint64_t room = options_.epoch_packets - in_epoch_;
    const size_t chunk = static_cast<size_t>(
        std::min<uint64_t>(ids.size(), room));
    slots_[current_]->InsertBatch(ids.first(chunk));
    CountPackets(chunk);
    ids = ids.subspan(chunk);
  }
}

void WindowedTopK::InsertBatch(std::span<const FlowId> ids, std::span<const uint64_t> weights) {
  while (!ids.empty()) {
    const uint64_t room = options_.epoch_packets - in_epoch_;
    const size_t chunk = static_cast<size_t>(
        std::min<uint64_t>(ids.size(), room));
    slots_[current_]->InsertBatch(ids.first(chunk), weights.first(chunk));
    CountPackets(chunk);
    ids = ids.subspan(chunk);
    weights = weights.subspan(chunk);
  }
}

void WindowedTopK::Flush() { slots_[current_]->Flush(); }

std::vector<FlowCount> WindowedTopK::MergedWindow(size_t k, size_t* tracked) const {
  std::vector<std::vector<FlowCount>> per_epoch;
  per_epoch.reserve(slots_.size());
  for (const auto& slot : slots_) {
    per_epoch.push_back(slot->TopK(k * kMergeOversample));
    if (tracked != nullptr) {
      *tracked += per_epoch.back().size();
    }
  }
  // Two passes. Candidates come from the kSumById merge of the deep
  // per-epoch reports; then each candidate is rescored with the bucket-level
  // point query, because the reported sum misses every epoch where the flow
  // fell below the report depth (a flow at one packet per epoch can rank
  // above k window-wide while never entering a single epoch's report tail).
  // The rescore runs batched: one EstimateSizeBatch per slot lets the HK
  // inners hash lane-parallel and overlap the bucket-gather misses across
  // the whole candidate list instead of probing one cold flow at a time.
  std::vector<FlowCount> candidates =
      MergeTopK(per_epoch, k * kMergeOversample, MergeMode::kSumById);
  std::vector<FlowId> ids(candidates.size());
  std::vector<uint64_t> counts(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    ids[i] = candidates[i].id;
  }
  EstimateSizeBatch(ids, counts);
  for (size_t i = 0; i < candidates.size(); ++i) {
    candidates[i].count = counts[i];
  }
  RankTopK(candidates, k);
  return candidates;
}

QueryResult WindowedTopK::Snapshot(const QueryOptions& options) {
  const telemetry::ScopedTimer timer(tm_snapshot_us_);
  Flush();
  // Sum of the slots' report sizes, not the merged size: the union
  // truncates to k but each epoch's sketch tracks its own candidates.
  size_t tracked = 0;
  QueryResult result;
  result.flows = MergedWindow(options.k, &tracked);
  result.consistency = ConsistencyLevel::kExact;
  result.stats.tracked_flows = tracked;
  result.stats.min_tracked = result.flows.empty() ? 0 : result.flows.back().count;
  return result;
}

std::vector<FlowCount> WindowedTopK::TopK(size_t k) const {
  return MergedWindow(k, nullptr);
}

uint64_t WindowedTopK::EstimateSize(FlowId id) const {
  uint64_t total = 0;
  for (const auto& slot : slots_) {
    total += slot->EstimateSize(id);
  }
  return total;
}

void WindowedTopK::EstimateSizeBatch(std::span<const FlowId> ids, std::span<uint64_t> out) const {
  std::fill(out.begin(), out.begin() + static_cast<ptrdiff_t>(ids.size()), 0);
  std::vector<uint64_t> slot_counts(ids.size());
  for (const auto& slot : slots_) {
    slot->EstimateSizeBatch(ids, slot_counts);
    for (size_t i = 0; i < ids.size(); ++i) {
      out[i] += slot_counts[i];
    }
  }
}

const char* WindowedTopK::ActiveSimdKernel() const {
  // Every slot is built from the same spec, so slot 0 speaks for the ring.
  return slots_[0]->ActiveSimdKernel();
}

std::string WindowedTopK::name() const {
  // The greedy key comes last (registry grammar): the inner name is itself
  // a full spec and may contain ':' and ','. inner_name_ is pinned at
  // construction so rebuilt slots cannot drift the canonical spec.
  return "Window:w=" + std::to_string(slots_.size()) +
         ",epoch=" + std::to_string(options_.epoch_packets) + ",inner=" + inner_name_;
}

size_t WindowedTopK::MemoryBytes() const {
  size_t total = 0;
  for (const auto& slot : slots_) {
    total += slot->MemoryBytes();
  }
  return total;
}

size_t WindowedTopK::WorkerThreads() const { return 0; }

bool WindowedTopK::SaveState(std::vector<uint8_t>* out) const {
  // Each slot writes in place behind its length slot; a slot that cannot
  // checkpoint rolls `out` back to where it started.
  const size_t start = out->size();
  ByteAppend(*out, static_cast<uint64_t>(slots_.size()));
  ByteAppend(*out, options_.epoch_packets);
  ByteAppend(*out, static_cast<uint64_t>(current_));
  ByteAppend(*out, epoch_);
  ByteAppend(*out, in_epoch_);
  for (const auto& slot : slots_) {
    const size_t blob = ByteBeginBlob(*out);
    if (!slot->SaveState(out)) {
      out->resize(start);
      return false;
    }
    ByteEndBlob(*out, blob);
  }
  return true;
}

bool WindowedTopK::LoadState(const uint8_t* data, size_t size) {
  ByteReader reader(data, size);
  uint64_t w = 0;
  uint64_t epoch_packets = 0;
  uint64_t current = 0;
  uint64_t epoch = 0;
  uint64_t in_epoch = 0;
  if (!reader.Read(&w) || w != slots_.size() || !reader.Read(&epoch_packets) ||
      epoch_packets != options_.epoch_packets || !reader.Read(&current) ||
      current >= slots_.size() || !reader.Read(&epoch) || !reader.Read(&in_epoch) ||
      in_epoch >= epoch_packets) {
    return false;
  }
  // Per-slot delegation is not atomic across slots: frame every blob first
  // so a short buffer cannot leave half the ring restored.
  std::vector<std::span<const uint8_t>> blobs(slots_.size());
  for (auto& blob : blobs) {
    if (!reader.BorrowBlob(&blob)) {
      return false;
    }
  }
  if (!reader.Done()) {
    return false;
  }
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i]->LoadState(blobs[i].data(), blobs[i].size())) {
      return false;
    }
  }
  current_ = static_cast<size_t>(current);
  epoch_ = epoch;
  in_epoch_ = in_epoch;
  return true;
}

HK_REGISTER_SKETCHES(WindowedTopK) {
  RegisterSketch({"Window",
                  {},
                  {"w", "epoch", "inner"},
                  [](const SketchArgs& args) -> std::unique_ptr<TopKAlgorithm> {
                    WindowedTopKOptions options;
                    options.window_epochs = static_cast<size_t>(
                        args.GetUint("w", kDefaultOptions.window_epochs));
                    options.epoch_packets =
                        args.GetUint("epoch", kDefaultOptions.epoch_packets);
                    if (const auto it = args.params().find("inner"); it != args.params().end()) {
                      options.inner_spec = it->second;
                    }
                    SketchDefaults defaults;
                    defaults.memory_bytes = args.memory_bytes();
                    defaults.k = args.k();
                    defaults.key_kind = args.key_kind();
                    defaults.seed = args.seed();
                    return std::make_unique<WindowedTopK>(options, defaults);
                  },
                  /*greedy_key=*/"inner"});
}

}  // namespace hk
