// HeavyKeeper top-k pipelines (Sections III-C, III-E and IV-C).
//
// A pipeline couples a HeavyKeeper sketch with a k-entry candidate store
// (min-heap by default; Stream-Summary as in the authors' implementation)
// and realizes the full per-packet insertion algorithms:
//
//   Basic    - insert into the sketch, then admit if n-hat exceeds the
//              store's minimum (Section III-C).
//   Parallel - Algorithm 1: Optimization I (only admit an unmonitored flow
//              when n-hat == nmin + 1, the fingerprint-collision detector
//              from Theorem 1) and Optimization II (selective increment).
//   Minimum  - Algorithm 2: minimum decay + the same two optimizations.
//
// The scalar Insert(), the weighted insert, and the batch inserts all
// funnel into one prepared-handle path (see HeavyKeeper::Prepare), so a
// batched stream mutates exactly the state a scalar stream would; the
// batch entry points additionally hash and prefetch a whole burst before
// applying it (software pipelining - the ladder's L3 rows in
// bench/ladder.cpp measure the win).
//
// The store backend is a template parameter so the `abl_topk_store`
// ablation can swap backends without touching the logic. The default is
// the lazy-threshold store (summary/lazy_topk.h): the monitored fast path
// is one hash lookup plus a compare-only count raise, and the min-heap is
// re-synced only when the threshold nmin itself may have moved - with
// reports identical to the eager min-heap's up to eviction tie-breaks at
// the minimum count.
#ifndef HK_CORE_HK_TOPK_H_
#define HK_CORE_HK_TOPK_H_

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/byte_io.h"
#include "core/heavykeeper.h"
#include "core/serialization.h"
#include "sketch/topk_algorithm.h"
#include "summary/topk_store.h"

namespace hk {

enum class HkVersion {
  kBasic,     // Section III-C
  kParallel,  // Hardware Parallel version, Algorithm 1
  kMinimum,   // Software Minimum version, Algorithm 2
};

const char* HkVersionName(HkVersion v);

// Stores exposing the Find/Raise slot API (LazyTopKStore) get the
// compare-only monitored fast path; duck-typed stores fall back to
// Contains + RaiseCount.
template <typename S>
concept HasFindSlot = requires(S s, FlowId id, uint64_t* slot) {
  { s.Find(id) } -> std::same_as<uint64_t*>;
  s.Raise(id, slot, uint64_t{});
};

template <typename Store = LazyTopKStore>
class HeavyKeeperTopK : public TopKAlgorithm {
 public:
  // `key_bytes` is the width of the original flow ID; the candidate store is
  // charged key_bytes + counter per entry (Section VI-A accounting). Prefer
  // Builder below, which derives key_bytes from a KeyKind.
  HeavyKeeperTopK(HkVersion version, const HeavyKeeperConfig& config, size_t k,
                  size_t key_bytes)
      : version_(version),
        k_(k),
        key_bytes_(key_bytes),
        sketch_(config),
        store_(k),
        tm_packets_(telemetry::Registry::Get().GetCounter(
            "hk_core_packets_total",
            "Packets applied through the HeavyKeeper pipelines (batch and scalar)")) {}

  // Fluent construction; subsumes the positional FromMemory() call. The
  // KeyKind -> key_bytes derivation lives here (and in the sketch
  // registry) and nowhere else.
  //
  //   auto topk = HeavyKeeperTopK<>::Builder()
  //                   .version(HkVersion::kMinimum)
  //                   .memory_bytes(100 * 1024)
  //                   .k(100)
  //                   .key_kind(KeyKind::kFiveTuple13B)
  //                   .seed(7)
  //                   .Build();
  class Builder {
   public:
    Builder& version(HkVersion v) { version_ = v; return *this; }
    // Total byte budget: the store gets k entries, the sketch every
    // remaining byte (the paper's Section VI-A split).
    Builder& memory_bytes(size_t bytes) { memory_bytes_ = bytes; return *this; }
    Builder& k(size_t k) { k_ = k; return *this; }
    Builder& key_kind(KeyKind kind) { key_kind_ = kind; return *this; }
    Builder& seed(uint64_t seed) { seed_ = seed; return *this; }
    Builder& d(size_t d) { d_ = d; return *this; }
    Builder& decay_base(double b) { b_ = b; return *this; }
    Builder& decay_function(DecayFunction f) { decay_function_ = f; return *this; }
    Builder& fingerprint_bits(uint32_t bits) { fingerprint_bits_ = bits; return *this; }
    Builder& counter_bits(uint32_t bits) { counter_bits_ = bits; return *this; }
    Builder& expansion(uint64_t threshold, size_t max_arrays = 8) {
      expansion_threshold_ = threshold;
      max_arrays_ = max_arrays;
      return *this;
    }
    // Opt into the O(counter) geometric weighted-decay collapse for
    // unmonitored flows (HeavyKeeperConfig::collapsed_weighted_decay).
    Builder& collapsed_weighted_decay(bool on) {
      collapsed_weighted_decay_ = on;
      return *this;
    }
    // Hot-path kernel selection (HeavyKeeperConfig::simd).
    Builder& simd(SimdMode mode) {
      simd_ = mode;
      return *this;
    }

    std::unique_ptr<HeavyKeeperTopK> Build() const {
      const size_t key_bytes = KeyBytes(key_kind_);
      const size_t store_bytes = k_ * Store::BytesPerEntry(key_bytes);
      const size_t sketch_bytes = memory_bytes_ > store_bytes ? memory_bytes_ - store_bytes : 0;
      HeavyKeeperConfig config;
      // Clamp to the sketch's supported range *before* deriving w, so the
      // budget is spent on the arrays that will actually exist (the
      // HeavyKeeper constructor clamps d the same way).
      config.d = std::min(std::max<size_t>(d_, 1), HeavyKeeper::kMaxPreparedArrays);
      config.b = b_;
      config.decay_function = decay_function_;
      config.fingerprint_bits = fingerprint_bits_;
      config.counter_bits = counter_bits_;
      config.seed = seed_;
      config.collapsed_weighted_decay = collapsed_weighted_decay_;
      config.expansion_threshold = expansion_threshold_;
      config.max_arrays = max_arrays_;
      config.simd = simd_;
      // Derive w from the budget under the *configured* bucket layout, and
      // refuse (before anything is allocated) a budget past the width cap.
      config.w = std::max<size_t>(sketch_bytes / (config.BucketBytes() * config.d), 1);
      if (config.w > HeavyKeeper::kMaxWidth) {
        throw std::invalid_argument("HeavyKeeper: " + std::to_string(memory_bytes_) +
                                    " bytes need more than " +
                                    std::to_string(HeavyKeeper::kMaxWidth) + " buckets per array");
      }
      return std::make_unique<HeavyKeeperTopK>(version_, config, k_, key_bytes);
    }

   private:
    HkVersion version_ = HkVersion::kMinimum;
    size_t memory_bytes_ = 50 * 1024;
    size_t k_ = 100;
    KeyKind key_kind_ = KeyKind::kSynthetic4B;
    uint64_t seed_ = 1;
    size_t d_ = 2;
    double b_ = 1.08;
    DecayFunction decay_function_ = DecayFunction::kExponential;
    uint32_t fingerprint_bits_ = 16;
    uint32_t counter_bits_ = 16;
    bool collapsed_weighted_decay_ = false;
    uint64_t expansion_threshold_ = 0;
    size_t max_arrays_ = 8;
    SimdMode simd_ = SimdMode::kAuto;
  };

  // Legacy positional construction (prefer Builder). The paper's default
  // configuration for a byte budget: the store gets k entries, HeavyKeeper
  // gets every remaining byte, d = 2.
  static std::unique_ptr<HeavyKeeperTopK> FromMemory(HkVersion version, size_t bytes, size_t k,
                                                     size_t key_bytes, uint64_t seed = 1,
                                                     size_t d = 2) {
    const size_t store_bytes = k * Store::BytesPerEntry(key_bytes);
    const size_t sketch_bytes = bytes > store_bytes ? bytes - store_bytes : 0;
    return std::make_unique<HeavyKeeperTopK>(
        version, HeavyKeeperConfig::FromMemory(sketch_bytes, d, seed), k, key_bytes);
  }

  void Insert(FlowId id) override {
    tm_packets_->Add();
    InsertPrepared(sketch_.Prepare(id));
  }

  // Weighted insert under the TopKAlgorithm contract: monitored flows whose
  // mapped buckets need no decay coin collapse to O(d); everything else
  // replays per unit (the admission gates depend on the evolving nmin), so
  // an *untracked* flow costs O(weight). Elephants are monitored after
  // their first packets, so byte-weighted workloads amortize to O(d), but
  // a collapsed decay path for unmonitored flows is still open (ROADMAP).
  void InsertWeighted(FlowId id, uint64_t weight) override {
    if (weight == 0) {
      return;
    }
    tm_packets_->Add();
    InsertWeightedPrepared(sketch_.Prepare(id), weight);
  }

  // Software-pipelined burst in double-buffered chunks: the SIMD batch
  // hash addresses chunk C+1 (4 keys per AVX2 iteration, see
  // HeavyKeeper::PrepareBatch) and prefetches its buckets while the case
  // logic runs against chunk C's (by now resident) buckets. Packets are
  // applied strictly in arrival order and decay coins are drawn inside
  // InsertPrepared, so the final state is bit-identical to the scalar run
  // whatever kernel resolved.
  void InsertBatch(std::span<const FlowId> ids) override {
    const size_t n = ids.size();
    tm_packets_->Add(n);
    HeavyKeeper::Prepared buf[2][kPrefetchAhead];
    size_t base = 0;
    size_t cur = 0;
    size_t m = std::min(kPrefetchAhead, n);
    sketch_.PrepareBatch(ids.data(), m, buf[0]);
    for (size_t i = 0; i < m; ++i) {
      sketch_.Prefetch(buf[0][i]);
    }
    while (base < n) {
      const size_t next_base = base + m;
      const size_t next_m = next_base < n ? std::min(kPrefetchAhead, n - next_base) : 0;
      if (next_m > 0) {
        sketch_.PrepareBatch(ids.data() + next_base, next_m, buf[1 - cur]);
        for (size_t i = 0; i < next_m; ++i) {
          sketch_.Prefetch(buf[1 - cur][i]);
        }
      }
      for (size_t i = 0; i < m; ++i) {
        InsertPrepared(buf[cur][i]);
      }
      base = next_base;
      m = next_m;
      cur = 1 - cur;
    }
  }

  void InsertBatch(std::span<const FlowId> ids, std::span<const uint64_t> weights) override {
    tm_packets_->Add(ids.size());
    HeavyKeeper::Prepared prepared[kBatchChunk];
    for (size_t base = 0; base < ids.size(); base += kBatchChunk) {
      const size_t n = std::min(kBatchChunk, ids.size() - base);
      sketch_.PrepareBatch(ids.data() + base, n, prepared);
      for (size_t i = 0; i < n; ++i) {
        sketch_.Prefetch(prepared[i]);
      }
      for (size_t i = 0; i < n; ++i) {
        if (weights[base + i] > 0) {
          InsertWeightedPrepared(prepared[i], weights[base + i]);
        }
      }
    }
  }

  std::vector<FlowCount> TopK(size_t k) const override { return store_.TopK(k); }

  uint64_t EstimateSize(FlowId id) const override {
    // Prefer the tracked value (kept as a running max); fall back to the
    // sketch for untracked flows.
    if (store_.Contains(id)) {
      return store_.Value(id);
    }
    return sketch_.Query(id);
  }

  // Vectorized rescore: batch-hash and batch-probe the sketch, then patch
  // in tracked values. QueryBatch returns exactly what Query would per id,
  // so this equals the element-by-element loop (the contract in
  // sketch/topk_algorithm.h).
  void EstimateSizeBatch(std::span<const FlowId> ids, std::span<uint64_t> out) const override {
    sketch_.QueryBatch(ids.data(), ids.size(), out.data());
    for (size_t i = 0; i < ids.size(); ++i) {
      if (store_.Contains(ids[i])) {
        out[i] = store_.Value(ids[i]);
      }
    }
  }

  const char* ActiveSimdKernel() const override { return SimdKernelName(sketch_.kernel()); }

  // Canonical registry spec: base name plus any non-default sketch
  // parameters, so MakeSketch(name()) rebuilds an equivalent pipeline.
  std::string name() const override {
    std::string spec = std::string("HeavyKeeper-") + HkVersionName(version_);
    const HeavyKeeperConfig& c = sketch_.config();
    char buf[32];
    auto append = [&spec](const std::string& kv) {
      spec += spec.find(':') == std::string::npos ? ':' : ',';
      spec += kv;
    };
    if (c.d != 2) {
      std::snprintf(buf, sizeof(buf), "d=%zu", c.d);
      append(buf);
    }
    if (c.b != 1.08) {
      std::snprintf(buf, sizeof(buf), "b=%g", c.b);
      append(buf);
    }
    if (c.fingerprint_bits != 16) {
      std::snprintf(buf, sizeof(buf), "fp=%u", c.fingerprint_bits);
      append(buf);
    }
    if (c.counter_bits != 16) {
      std::snprintf(buf, sizeof(buf), "cb=%u", c.counter_bits);
      append(buf);
    }
    if (c.decay_function != DecayFunction::kExponential) {
      append(std::string("decay=") + DecayFunctionToken(c.decay_function));
    }
    if (c.collapsed_weighted_decay) {
      append("wdecay=collapsed");
    }
    if (c.expansion_threshold != 0) {
      std::snprintf(buf, sizeof(buf), "expand=%llu",
                    static_cast<unsigned long long>(c.expansion_threshold));
      append(buf);
    }
    if (c.simd != SimdMode::kAuto) {
      append(std::string("simd=") + SimdModeToken(c.simd));
    }
    return spec;
  }

  size_t MemoryBytes() const override {
    return sketch_.MemoryBytes() + k_ * Store::BytesPerEntry(key_bytes_);
  }

  // Checkpoint blob: the magic-guarded sketch snapshot (serialization v2)
  // plus the candidate-store entries. The decay RNG restarts from the
  // config seed on load (core/serialization.h precedent). The snapshot is
  // written in place, so the slab is copied once, straight into `out`.
  bool SaveState(std::vector<uint8_t>* out) const override {
    const size_t sketch_blob = ByteBeginBlob(*out);
    AppendSerializedSketch(sketch_, out);
    ByteEndBlob(*out, sketch_blob);
    const std::vector<FlowCount> entries = store_.Entries();
    ByteAppend(*out, static_cast<uint64_t>(entries.size()));
    for (const FlowCount& e : entries) {
      ByteAppend(*out, e.id);
      ByteAppend(*out, e.count);
    }
    return true;
  }

  bool LoadState(const uint8_t* data, size_t size) override {
    ByteReader reader(data, size);
    std::span<const uint8_t> blob;
    if (!reader.BorrowBlob(&blob)) {
      return false;
    }
    std::optional<HeavyKeeper> restored = DeserializeSketch(blob.data(), blob.size());
    if (!restored.has_value()) {
      return false;
    }
    // The blob must describe this instance's spec: same geometry, same
    // seeds, so store entries stay consistent with the restored arrays.
    const HeavyKeeperConfig& mine = sketch_.config();
    const HeavyKeeperConfig& theirs = restored->config();
    if (theirs.d != mine.d || theirs.w != mine.w || theirs.b != mine.b ||
        theirs.decay_function != mine.decay_function ||
        theirs.fingerprint_bits != mine.fingerprint_bits ||
        theirs.counter_bits != mine.counter_bits || theirs.seed != mine.seed ||
        theirs.expansion_threshold != mine.expansion_threshold) {
      return false;
    }
    uint64_t n = 0;
    if (!reader.Read(&n) || n > k_) {
      return false;
    }
    Store store(k_);
    for (uint64_t i = 0; i < n; ++i) {
      FlowId id = 0;
      uint64_t count = 0;
      if (!reader.Read(&id) || !reader.Read(&count) || store.Contains(id)) {
        return false;
      }
      store.Insert(id, count);
    }
    if (!reader.Done()) {
      return false;
    }
    // The blob does not carry the SIMD mode (pure speed knob, not part of
    // checkpoint identity); keep this instance's choice rather than the
    // deserialized default.
    restored->SetSimdMode(mine.simd);
    sketch_ = std::move(*restored);
    store_ = std::move(store);
    return true;
  }

  HkVersion version() const { return version_; }
  const HeavyKeeper& sketch() const { return sketch_; }
  HeavyKeeper& sketch() { return sketch_; }
  const Store& store() const { return store_; }

 private:
  static constexpr size_t kBatchChunk = 32;
  static constexpr size_t kPrefetchAhead = 16;

  // One store lookup per packet: Find() yields the monitored bit and the
  // raise slot together on stores that support it (the lazy default); the
  // raise is then a compare-and-store, no heap maintenance. Duck-typed
  // stores answer Contains() and return no slot. The slot stays valid only
  // while the store is unmutated (FlowSlotMap relocation rules) - both
  // insert paths below raise through it before any store change.
  uint64_t* FindTracked(FlowId id, bool* monitored) {
    if constexpr (HasFindSlot<Store>) {
      uint64_t* tracked = store_.Find(id);
      *monitored = tracked != nullptr;
      return tracked;
    } else {
      *monitored = store_.Contains(id);
      return nullptr;
    }
  }

  void InsertPrepared(const HeavyKeeper::Prepared& p) {
    bool monitored;
    uint64_t* tracked = FindTracked(p.id, &monitored);
    uint64_t estimate = 0;
    switch (version_) {
      case HkVersion::kBasic: {
        estimate = sketch_.InsertBasicPrepared(p);
        if (monitored) {
          RaiseTracked(p.id, tracked, estimate);
        } else if (!store_.Full()) {
          if (estimate > 0) {
            store_.Insert(p.id, estimate);
          }
        } else if (estimate > store_.MinCount()) {
          store_.ReplaceMin(p.id, estimate);
        }
        return;
      }
      case HkVersion::kParallel:
      case HkVersion::kMinimum: {
        // While the store is not full every flow is admitted on its first
        // packet, so an unmonitored flow with a matching bucket can only
        // exist once the store is full; the gate then uses the true nmin.
        const uint64_t nmin = store_.Full() ? store_.MinCount() : ~0ULL;
        estimate = version_ == HkVersion::kParallel
                       ? sketch_.InsertParallelPrepared(p, monitored, nmin)
                       : sketch_.InsertMinimumPrepared(p, monitored, nmin);
        if (monitored) {
          RaiseTracked(p.id, tracked, estimate);  // Algorithm 1 line 22 (max-update)
        } else if (!store_.Full()) {
          store_.Insert(p.id, estimate);  // Algorithm 1 line 24, first clause
        } else if (estimate == store_.MinCount() + 1) {
          // Optimization I: Theorem 1 says a genuinely admitted flow reports
          // exactly nmin + 1; anything larger is a fingerprint collision.
          store_.ReplaceMin(p.id, estimate);
        }
        return;
      }
    }
  }

  void RaiseTracked(FlowId id, uint64_t* tracked, uint64_t estimate) {
    if constexpr (HasFindSlot<Store>) {
      store_.Raise(id, tracked, estimate);
    } else {
      (void)tracked;
      store_.RaiseCount(id, estimate);
    }
  }

  void InsertWeightedPrepared(const HeavyKeeper::Prepared& p, uint64_t weight) {
    bool monitored;
    uint64_t* tracked = FindTracked(p.id, &monitored);
    if (monitored) {
      // Monitored flow: the Optimization II gate is open, so when no decay
      // coin is reachable the whole weight collapses into O(d) updates -
      // identical to `weight` unit insertions (see the v2 contract). The
      // sketch calls never touch the store, so the Find slot stays valid.
      const uint32_t estimate = version_ == HkVersion::kMinimum
                                    ? sketch_.TryMinimumWeightedMonitored(p, weight)
                                    : sketch_.TryParallelWeightedMonitored(p, weight);
      if (estimate > 0) {
        RaiseTracked(p.id, tracked, estimate);
        return;
      }
    } else if (version_ == HkVersion::kMinimum && store_.Full() &&
               InsertWeightedCollapsedMinimum(p, weight)) {
      // Collapsed unmonitored path (opt-in, config.collapsed_weighted_decay):
      // the whole run up to admission is O(counter levels), not O(weight).
      return;
    }
    // Decay coins or admission gates in play: replay unit by unit.
    for (uint64_t u = 0; u < weight; ++u) {
      InsertPrepared(p);
    }
  }

  // Returns true when the collapsed geometric run handled the whole weight
  // (including admission and the monitored remainder); false leaves state
  // untouched so the per-unit replay owns the insert.
  bool InsertWeightedCollapsedMinimum(const HeavyKeeper::Prepared& p, uint64_t weight) {
    const uint64_t nmin = store_.MinCount();
    uint64_t consumed = 0;
    bool admitted = false;
    if (!sketch_.MinimumWeightedUnmonitoredRun(p, weight, nmin, &consumed, &admitted)) {
      return false;  // collapse disabled or expansion configured
    }
    if (admitted) {
      store_.ReplaceMin(p.id, nmin + 1);
      if (consumed < weight) {
        InsertWeightedPrepared(p, weight - consumed);  // monitored from here on
      }
    }
    return true;
  }

  HkVersion version_;
  size_t k_;
  size_t key_bytes_;
  HeavyKeeper sketch_;
  Store store_;
  telemetry::Counter* tm_packets_;  // bumped once per batch, never per packet
};

inline const char* HkVersionName(HkVersion v) {
  switch (v) {
    case HkVersion::kBasic:
      return "Basic";
    case HkVersion::kParallel:
      return "Parallel";
    case HkVersion::kMinimum:
      return "Minimum";
  }
  return "?";
}

}  // namespace hk

#endif  // HK_CORE_HK_TOPK_H_
