// Process-global metrics: named counters, gauges, and log2 histograms,
// summed on read and rendered in Prometheus text exposition format.
//
// The design constraint is the per-packet hot path: HK-Minimum InsertBatch
// runs at ~20 M packets/s, so a counter bump must cost a handful of cycles
// and never a lock prefix. Counter therefore writes to a per-thread cell
// (one relaxed load + relaxed store on an address only the calling thread
// mutates - the compiler lowers it to a plain add), and Value() sums the
// cells of every live thread plus an accumulator that exiting threads fold
// their cells into. The sum is exact: each cell has exactly one writer for
// its whole lifetime, and retirement happens under the registry mutex that
// readers hold while summing.
//
// Gauges and histograms are shared relaxed atomics - they sit on query,
// checkpoint, and per-burst paths where a fetch_add is noise.
//
// Off switch: HK_TELEMETRY=off|0|false in the environment (read once at
// registry birth), or Registry::SetEnabled(false). Add/Observe/Set degrade
// to a predictable test-and-return.
//
// Metric identity is (name, labels) where labels is a pre-rendered
// Prometheus label body like `instance="edge0"` (no braces). Series of the
// same name share one # HELP/# TYPE block in the exposition. Handles
// returned by the registry live for the whole process - cache them, never
// resolve a metric per packet.
#ifndef HK_TELEMETRY_TELEMETRY_H_
#define HK_TELEMETRY_TELEMETRY_H_

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <string>

namespace hk::telemetry {

class Registry;

namespace internal {

// Dense id space for counter cells. Every counter series claims one slot in
// every thread's cell block; 512 slots = 4 KiB per thread, enough for the
// built-in catalog plus a few hundred labeled series. Counters past the
// limit fall back to a shared fetch_add cell (correct, just not as cheap).
inline constexpr uint32_t kMaxCounterCells = 512;
inline constexpr uint32_t kOverflowId = kMaxCounterCells;

struct ThreadCells {
  std::atomic<uint64_t> cells[kMaxCounterCells] = {};
};

extern std::atomic<bool> g_enabled;

ThreadCells* RegisterThreadCells();

// Holder so thread exit retires the block into the registry's accumulator.
struct CellsHolder {
  ThreadCells* cells = nullptr;
  ~CellsHolder();
};

inline ThreadCells* LocalCells() {
  thread_local CellsHolder holder;
  if (holder.cells == nullptr) {
    holder.cells = RegisterThreadCells();
  }
  return holder.cells;
}

}  // namespace internal

class Counter {
 public:
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  // The hot path. On the cell path this is: enabled test, thread-local
  // block lookup, relaxed load + add + relaxed store. The cell is
  // single-writer, so the RMW needs no atomicity - that is the whole trick.
  void Add(uint64_t n = 1) {
    if (!internal::g_enabled.load(std::memory_order_relaxed)) {
      return;
    }
    if (id_ == internal::kOverflowId) {
      direct_.fetch_add(n, std::memory_order_relaxed);
      return;
    }
    std::atomic<uint64_t>& cell = internal::LocalCells()->cells[id_];
    cell.store(cell.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }

  // Exact sum over every thread that ever bumped this counter.
  uint64_t Value() const;

 private:
  friend class Registry;
  explicit Counter(uint32_t id) : id_(id) {}

  const uint32_t id_;
  std::atomic<uint64_t> direct_{0};  // overflow series only
};

class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) {
    if (internal::g_enabled.load(std::memory_order_relaxed)) {
      value_.store(v, std::memory_order_relaxed);
    }
  }

  void Add(int64_t d) {
    if (internal::g_enabled.load(std::memory_order_relaxed)) {
      value_.fetch_add(d, std::memory_order_relaxed);
    }
  }

  // Monotone raise (high-water marks). CAS loop, but callers sit on burst
  // granularity paths, not per-packet ones.
  void MaxTo(int64_t v) {
    if (!internal::g_enabled.load(std::memory_order_relaxed)) {
      return;
    }
    int64_t seen = value_.load(std::memory_order_relaxed);
    while (v > seen &&
           !value_.compare_exchange_weak(seen, v, std::memory_order_relaxed,
                                         std::memory_order_relaxed)) {
    }
  }

  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Fixed log2 buckets: bucket 0 holds the value 0, bucket b (1..30) holds
// [2^(b-1), 2^b - 1], and the last bucket is the overflow (anything >=
// 2^30 - plenty for microsecond latencies and burst sizes). Observe is a
// bit_width plus two shared fetch_adds; histograms never sit on per-packet
// paths.
class Histogram {
 public:
  static constexpr size_t kBuckets = 32;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  static size_t BucketIndex(uint64_t value) {
    if (value == 0) {
      return 0;
    }
    const size_t width = static_cast<size_t>(std::bit_width(value));
    return width < kBuckets ? width : kBuckets - 1;
  }

  // Inclusive upper bound of a non-overflow bucket (the Prometheus `le`).
  static uint64_t BucketUpperBound(size_t index) { return (uint64_t{1} << index) - 1; }

  void Observe(uint64_t value) {
    if (!internal::g_enabled.load(std::memory_order_relaxed)) {
      return;
    }
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  uint64_t BucketCount(size_t index) const {
    return buckets_[index].load(std::memory_order_relaxed);
  }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t Count() const {
    uint64_t total = 0;
    for (const auto& b : buckets_) {
      total += b.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> sum_{0};
};

// RAII: observes the scope's wall time in microseconds into a histogram,
// and optionally adds it to a *_us_total counter. Skips the clock reads
// entirely when telemetry is off.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* hist, Counter* total_us = nullptr)
      : hist_(hist), total_us_(total_us) {
    if (internal::g_enabled.load(std::memory_order_relaxed)) {
      start_ = std::chrono::steady_clock::now();
      armed_ = true;
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    if (!armed_) {
      return;
    }
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    const uint64_t us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count());
    if (hist_ != nullptr) {
      hist_->Observe(us);
    }
    if (total_us_ != nullptr) {
      total_us_->Add(us);
    }
  }

 private:
  Histogram* hist_;
  Counter* total_us_;
  std::chrono::steady_clock::time_point start_;
  bool armed_ = false;
};

class Registry {
 public:
  // Leaky process singleton: handles stay valid through every thread's
  // exit, including main's.
  static Registry& Get();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Find-or-create the series (name, labels). `labels` is a pre-rendered
  // body like `instance="edge0"` (empty = unlabeled). `help` is recorded on
  // first registration of the name.
  Counter* GetCounter(const std::string& name, const std::string& help,
                      const std::string& labels = "");
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  const std::string& labels = "");
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          const std::string& labels = "");

  // Sum of every label series of a counter name (0 if none registered).
  uint64_t SumCounter(const std::string& name) const;

  // Prometheus text exposition. `filter` empty = everything; otherwise a
  // series is included when its name starts with the filter or it carries
  // an instance="<filter>" label.
  std::string RenderPrometheus(const std::string& filter = "") const;

  static bool Enabled() { return internal::g_enabled.load(std::memory_order_relaxed); }
  static void SetEnabled(bool on);

 private:
  friend struct internal::CellsHolder;
  friend internal::ThreadCells* internal::RegisterThreadCells();
  friend class Counter;

  struct Metric;

  Registry();
  ~Registry() = delete;

  Metric* FindOrCreateLocked(const std::string& name, const std::string& help,
                             const std::string& labels);
  uint64_t CounterValueLocked(const Counter& counter) const;

  internal::ThreadCells* RegisterThreadCells();
  void RetireThreadCells(internal::ThreadCells* cells);

  struct Impl;
  Impl* impl_;
};

}  // namespace hk::telemetry

#endif  // HK_TELEMETRY_TELEMETRY_H_
