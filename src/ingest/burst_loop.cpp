#include "ingest/burst_loop.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

#include "common/spsc_ring.h"

namespace hk {
namespace {

uint64_t MalformedFrames(const IngestStats& stats) {
  return stats.skipped_non_ip + stats.skipped_truncated + stats.skipped_other;
}

struct BurstSlot {
  explicit BurstSlot(size_t batch) : records(batch) {}

  std::vector<PacketRecord> records;
  size_t count = 0;  // 0 = the stream is over
  uint64_t malformed = 0;
};

// The fill side, run by whichever thread parses: the skip prefix once,
// then one burst per Fill.
class Filler {
 public:
  Filler(PcapReader& reader, const BurstLoopOptions& options)
      : reader_(reader), skip_left_(options.skip), parse_us_(options.parse_us) {}

  void Fill(BurstSlot& slot) {
    const std::span<PacketRecord> all(slot.records);
    while (skip_left_ > 0) {
      const size_t want = static_cast<size_t>(std::min<uint64_t>(skip_left_, all.size()));
      const size_t got = Parse(all.first(want));
      if (got == 0) {
        slot.count = 0;
        return;
      }
      skip_left_ -= got;
    }
    const uint64_t before = MalformedFrames(reader_.stats());
    slot.count = Parse(all);
    slot.malformed = MalformedFrames(reader_.stats()) - before;
  }

 private:
  size_t Parse(std::span<PacketRecord> out) {
    if (parse_us_ == nullptr) {
      return reader_.NextBatch(out);
    }
    const auto start = std::chrono::steady_clock::now();
    const size_t n = reader_.NextBatch(out);
    const std::chrono::nanoseconds elapsed = std::chrono::steady_clock::now() - start;
    // Carry the sub-microsecond remainder rather than truncate per burst.
    carry_ns_ += static_cast<uint64_t>(elapsed.count());
    parse_us_->Add(carry_ns_ / 1000);
    carry_ns_ %= 1000;
    return n;
  }

  PcapReader& reader_;
  uint64_t skip_left_;
  telemetry::Counter* parse_us_;
  uint64_t carry_ns_ = 0;
};

// How long a waiting side spins before it sleeps. The other side usually
// moves within one burst's time, tens of microseconds. When both sides
// slept at once, the woken thread was placed on its waker's CPU so often
// that the two took turns on one CPU: on a 4-vCPU VM a 1M-record replay
// into a 1 MB HK-Minimum ran at the serial rate (8.5-9.6 M/s, the
// applier waiting on an empty ring once every 7 bursts), against
// 20.4-22.3 M/s with this spin.
constexpr std::chrono::microseconds kSpinBeforeSleep{100};

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Return once `events` differs from `seen`: spin for kSpinBeforeSleep, then
// sleep in a futex wait, so an idle source costs no CPU.
void AwaitChange(const std::atomic<uint32_t>& events, uint32_t seen) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinBeforeSleep;
  do {
    for (int i = 0; i < 64; ++i) {
      if (events.load(std::memory_order_acquire) != seen) {
        return;
      }
      CpuRelax();
    }
  } while (std::chrono::steady_clock::now() < deadline);
  events.wait(seen, std::memory_order_acquire);
}

// Filled slot indices in capture order, from the parse thread to the
// applying thread, with blocking waits on both sides. Each side bumps an
// event count after it moves the ring and the other side waits on it; a
// waiter reads the count before it tries the ring, so a change it missed
// ends its wait at once.
class BurstQueue {
 public:
  size_t capacity() const { return ring_.capacity(); }

  // Parser side. False once the applier has closed the queue.
  bool Push(uint32_t slot) {
    for (;;) {
      const uint32_t seen = pops_.load(std::memory_order_acquire);
      if (ring_.TryPush(slot)) {
        pushes_.fetch_add(1, std::memory_order_release);
        pushes_.notify_one();
        return true;
      }
      if (closed_.load(std::memory_order_acquire)) {
        return false;
      }
      AwaitChange(pops_, seen);
    }
  }

  // Applier side. The parser always ends with a count-0 slot unless the
  // queue was closed, so this cannot wait forever on a live parser.
  uint32_t Pop() {
    for (;;) {
      const uint32_t seen = pushes_.load(std::memory_order_acquire);
      uint32_t slot = 0;
      if (ring_.TryPop(&slot)) {
        pops_.fetch_add(1, std::memory_order_release);
        pops_.notify_one();
        return slot;
      }
      AwaitChange(pushes_, seen);
    }
  }

  // Applier side, on its way out: a parser waiting for room gives up.
  void Close() {
    closed_.store(true, std::memory_order_release);
    pops_.fetch_add(1, std::memory_order_release);
    pops_.notify_one();
  }

 private:
  SpscRing<uint32_t> ring_{kAheadBursts};
  std::atomic<uint32_t> pushes_{0};
  std::atomic<uint32_t> pops_{0};
  std::atomic<bool> closed_{false};
};

}  // namespace

bool ParsesAhead(const TopKAlgorithm& target) { return target.WorkerThreads() == 0; }

void RunBurstLoop(PcapReader& reader, const TopKAlgorithm& target, const BurstLoopOptions& options,
                  const std::function<void(const ParsedBurst&)>& apply) {
  const size_t batch = std::max<size_t>(options.batch, 1);
  const auto stopped = [&] {
    return options.stop != nullptr && options.stop->load(std::memory_order_acquire);
  };
  Filler filler(reader, options);
  // Apply one filled slot. False once the stream is over: after an empty
  // burst, or after a short one (NextBatch returns short only at the end).
  const auto deliver = [&](const BurstSlot& slot) {
    if (slot.count == 0 || stopped()) {
      return false;
    }
    apply({std::span<const PacketRecord>(slot.records.data(), slot.count), slot.malformed});
    return slot.count == batch;
  };

  if (ParsesAhead(target)) {
    BurstQueue queue;
    // The ring holds capacity() filled slots; one more is being applied and
    // one more filled, so the parser never refills a slot still in use.
    std::vector<BurstSlot> slots(queue.capacity() + 2, BurstSlot(batch));
    std::exception_ptr parse_error;  // rethrown here once the parser is joined
    std::thread parser;
    try {
      parser = std::thread([&] {
        for (uint32_t next = 0;; next = (next + 1) % slots.size()) {
          BurstSlot& slot = slots[next];
          slot.count = 0;
          if (!stopped()) {
            try {
              filler.Fill(slot);
            } catch (...) {
              parse_error = std::current_exception();
              slot.count = 0;
            }
          }
          const bool more = slot.count == batch;
          if (!queue.Push(next) || !more) {
            return;
          }
        }
      });
    } catch (const std::system_error&) {
      // No thread to spare: parse inline below, as for a threaded target.
    }
    if (parser.joinable()) {
      const auto join = [&] {
        queue.Close();
        parser.join();
      };
      try {
        while (deliver(slots[queue.Pop()])) {
        }
      } catch (...) {
        join();
        throw;
      }
      join();
      if (parse_error) {
        std::rethrow_exception(parse_error);
      }
      return;
    }
  }
  BurstSlot slot(batch);
  do {
    if (stopped()) {
      return;
    }
    filler.Fill(slot);
  } while (deliver(slot));
}

}  // namespace hk
