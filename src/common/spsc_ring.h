// Lock-free single-producer/single-consumer ring buffer, and the wait
// strategy both of its users share.
//
// Models the shared-memory channel of the paper's OVS deployment (Section
// VII-A): the modified datapath writes flow IDs into shared memory and the
// user-space HeavyKeeper process reads them. The same ring feeds each
// threaded Sharded worker (shard/sharded_topk.h). Power-of-two capacity,
// acquire/release index synchronization, and cached opposite-side indices
// so the hot path usually touches only its own cache line.
#ifndef HK_COMMON_SPSC_RING_H_
#define HK_COMMON_SPSC_RING_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace hk {

// Wait strategy for a producer facing a full ring or a consumer facing an
// empty one: stay on the CPU briefly (the other side usually frees a slot
// or publishes within a few yields), then sleep so an idle or
// back-pressured thread does not starve whoever holds the work. Reset
// `spins` to 0 whenever the wait ends in progress.
inline void Backoff(size_t& spins) {
  if (++spins < 64) {
    std::this_thread::yield();
  } else {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

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

  // Producer side. Returns false when full.
  bool TryPush(const T& value) {
    const size_t head = head_.load(std::memory_order_relaxed);
    const size_t next = (head + 1) & mask_;
    if (next == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (next == tail_cache_) {
        return false;
      }
    }
    buffer_[head] = value;
    head_.store(next, std::memory_order_release);
    return true;
  }

  // Consumer side. Returns false when empty.
  bool TryPop(T* out) {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == head_cache_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail == head_cache_) {
        return false;
      }
    }
    *out = buffer_[tail];
    tail_.store((tail + 1) & mask_, std::memory_order_release);
    return true;
  }

  bool Empty() const {
    return head_.load(std::memory_order_acquire) == tail_.load(std::memory_order_acquire);
  }

 private:
  std::vector<T> buffer_;
  size_t mask_ = 0;
  alignas(64) std::atomic<size_t> head_{0};  // producer-owned
  alignas(64) size_t tail_cache_ = 0;
  alignas(64) std::atomic<size_t> tail_{0};  // consumer-owned
  alignas(64) size_t head_cache_ = 0;
};

}  // namespace hk

#endif  // HK_COMMON_SPSC_RING_H_
