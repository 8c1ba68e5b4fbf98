// Single-producer/single-consumer ring buffer with blocking Push, Pop and
// Close: the one channel, and the one wait, by which a thread in src/
// hands work to another.
//
// Models the shared-memory channel of the paper's OVS deployment (Section
// VII-A): the modified datapath writes flow IDs into shared memory and the
// user-space HeavyKeeper process reads them (ovs/pipeline.cpp). The same
// ring feeds each threaded Sharded worker (shard/sharded_topk.h) and hands
// parsed bursts from the ingest parse thread to the applying thread
// (ingest/burst_loop.cpp).
//
// Elements move a span at a time. Power-of-two capacity, acquire/release
// index synchronization, and cached opposite-side indices keep the copy
// on each side's own cache line. A side that cannot move (the producer
// facing a full ring, the consumer an empty one) waits on a 32-bit event
// count that every Push, Pop and Close bumps once: it spins for
// kSpinBeforeSleep, yielding the CPU now and then, and then sleeps in a
// C++20 atomic wait, so an idle ring costs no CPU.
#ifndef HK_COMMON_SPSC_RING_H_
#define HK_COMMON_SPSC_RING_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace hk {

template <typename T>
class SpscRing {
 public:
  // Capacity is rounded up to a power of two (one slot is sacrificed to
  // distinguish full from empty). A capacity whose rounding does not fit a
  // size_t is refused before anything is allocated.
  explicit SpscRing(size_t capacity) {
    if (capacity > std::numeric_limits<size_t>::max() / 2) {
      throw std::length_error("SpscRing: capacity " + std::to_string(capacity) + " is too large");
    }
    size_t cap = 2;
    while (cap < capacity + 1) {
      cap <<= 1;
    }
    buffer_.resize(cap);
    mask_ = cap - 1;
  }

  size_t capacity() const { return buffer_.size() - 1; }

  // Producer side. Copies `values` in, in order, waiting while the ring is
  // full. Returns values.size(), or fewer only once the ring is closed
  // (nothing is pushed after that).
  size_t Push(std::span<const T> values) {
    size_t pushed = 0;
    while (pushed < values.size()) {
      const uint32_t seen = events_.load(std::memory_order_acquire);
      if (closed_.load(std::memory_order_acquire)) {
        break;
      }
      const size_t n = Write(values.subspan(pushed));
      if (n == 0) {
        Await(seen);
        continue;
      }
      pushed += n;
      Signal();
    }
    return pushed;
  }

  // Consumer side. Waits until at least one element is ready, then moves
  // up to out.size() of them out, in order. Returns 0 only once the ring
  // is closed and drained.
  size_t Pop(std::span<T> out) {
    for (;;) {
      const uint32_t seen = events_.load(std::memory_order_acquire);
      // Read the flag before the ring: a Close seen here follows every
      // Push it closed, so an empty ring now means drained.
      const bool closed = closed_.load(std::memory_order_acquire);
      const size_t n = Read(out);
      if (n > 0) {
        Signal();
        return n;
      }
      if (closed) {
        return 0;
      }
      Await(seen);
    }
  }

  // Either side: a waiting Push returns short, and Pop returns 0 once the
  // ring is drained. The producer closes after its last Push to end the
  // stream; the consumer closes on its way out. Idempotent.
  void Close() {
    closed_.store(true, std::memory_order_release);
    Signal();
  }

 private:
  // How long a waiting side spins before it sleeps. The other side usually
  // moves within one burst's time, tens of microseconds. When both sides
  // slept at once, the woken thread was placed on its waker's CPU so often
  // that the two took turns on one CPU: on a 4-vCPU VM a 1M-record replay
  // into a 1 MB HK-Minimum ran at the serial rate (8.5-9.6 M/s, the
  // applier waiting on an empty ring once every 7 bursts), against
  // 20.4-22.3 M/s with this spin.
  //
  // The spin yields the CPU after every 64 pauses, so it gives way to a
  // runnable thread on its CPU; with none, the yield returns at once.
  // Threaded Sharded can run more threads than the host has CPUs: on 4
  // vCPUs, with pauses alone, ladder row L4/sharded/n:4 (four workers and
  // the producer) read 34-36 M/s against 49-53 for the yield-and-sleep
  // poll this wait replaced, and 41-61 with the yield.
  static constexpr std::chrono::microseconds kSpinBeforeSleep{100};

  static void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  // Return once events_ differs from `seen`: spin for kSpinBeforeSleep,
  // then sleep in a futex wait. A caller reads `seen` before it tries the
  // ring, so a move it missed ends the wait at once.
  void Await(uint32_t seen) const {
    const auto deadline = std::chrono::steady_clock::now() + kSpinBeforeSleep;
    do {
      for (int i = 0; i < 64; ++i) {
        if (events_.load(std::memory_order_acquire) != seen) {
          return;
        }
        CpuRelax();
      }
      std::this_thread::yield();
    } while (std::chrono::steady_clock::now() < deadline);
    events_.wait(seen, std::memory_order_acquire);
  }

  void Signal() {
    events_.fetch_add(1, std::memory_order_release);
    events_.notify_all();
  }

  // Copy as much of `values` as fits; the producer's half of Push.
  size_t Write(std::span<const T> values) {
    const size_t head = head_.load(std::memory_order_relaxed);
    size_t room = (tail_cache_ - head - 1) & mask_;
    if (room < values.size()) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      room = (tail_cache_ - head - 1) & mask_;
    }
    const size_t n = std::min(room, values.size());
    const size_t first = std::min(n, buffer_.size() - head);
    std::copy_n(values.begin(), first, buffer_.begin() + static_cast<ptrdiff_t>(head));
    std::copy_n(values.begin() + static_cast<ptrdiff_t>(first), n - first, buffer_.begin());
    if (n > 0) {
      head_.store((head + n) & mask_, std::memory_order_release);
    }
    return n;
  }

  // Move out as much as is ready, up to out.size(); the consumer's half of
  // Pop.
  size_t Read(std::span<T> out) {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    size_t ready = (head_cache_ - tail) & mask_;
    if (ready < out.size()) {
      head_cache_ = head_.load(std::memory_order_acquire);
      ready = (head_cache_ - tail) & mask_;
    }
    const size_t n = std::min(ready, out.size());
    const size_t first = std::min(n, buffer_.size() - tail);
    std::copy_n(buffer_.begin() + static_cast<ptrdiff_t>(tail), first, out.begin());
    std::copy_n(buffer_.begin(), n - first, out.begin() + static_cast<ptrdiff_t>(first));
    if (n > 0) {
      tail_.store((tail + n) & mask_, std::memory_order_release);
    }
    return n;
  }

  std::vector<T> buffer_;
  size_t mask_ = 0;
  alignas(64) std::atomic<size_t> head_{0};  // producer-owned
  size_t tail_cache_ = 0;
  alignas(64) std::atomic<size_t> tail_{0};  // consumer-owned
  size_t head_cache_ = 0;
  // Bumped by every Push, Pop and Close that changes anything; both sides
  // write it, so it has a line of its own.
  alignas(64) std::atomic<uint32_t> events_{0};
  std::atomic<bool> closed_{false};
};

}  // namespace hk

#endif  // HK_COMMON_SPSC_RING_H_
