// Cache-line-aligned contiguous storage for sketch hot paths.
//
// Every per-packet structure in the library (HeavyKeeper's packed bucket
// words, HeavyGuardian's slot grid, Cold Filter's counter layers) is a flat
// array that is indexed by a hash and mutated in place. Slab<T> is the one
// storage primitive they share: a single 64-byte-aligned allocation with
// value-zeroed elements, growable without invalidating the flat layout
// (Section III-F expansion appends rows in place).
//
// Restricted to trivially copyable, zero-initializable element types so
// resize is a memcpy + memset and a bucket word never has a constructor on
// the hot path. Alignment guarantees that casting the base pointer to any
// narrower word type (uint32_t/uint64_t packed buckets) is safe and that
// row starts can be placed on cache-line boundaries.
#ifndef HK_COMMON_SLAB_H_
#define HK_COMMON_SLAB_H_

#include <cstddef>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

namespace hk {

inline constexpr size_t kCacheLineBytes = 64;

template <typename T>
class Slab {
  static_assert(std::is_trivially_copyable_v<T>,
                "Slab elements are raw hot-path state: trivially copyable only");

 public:
  Slab() = default;
  explicit Slab(size_t n) { Resize(n); }

  Slab(const Slab& other) { CopyFrom(other); }
  Slab& operator=(const Slab& other) {
    if (this != &other) {
      Release();
      CopyFrom(other);
    }
    return *this;
  }

  Slab(Slab&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)), size_(std::exchange(other.size_, 0)) {}
  Slab& operator=(Slab&& other) noexcept {
    if (this != &other) {
      Release();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }

  ~Slab() { Release(); }

  // Grow (or shrink) to n elements. Existing elements up to min(n, size())
  // are preserved byte-for-byte; added elements are zero bytes. A grow
  // reallocates, so raw pointers from data() must be re-fetched afterwards
  // (the sketches re-address via their Prepared handles already).
  void Resize(size_t n) {
    if (n == size_) {
      return;
    }
    T* fresh = nullptr;
    if (n > 0) {
      fresh = static_cast<T*>(::operator new(Bytes(n), std::align_val_t(kCacheLineBytes)));
      const size_t keep = n < size_ ? n : size_;
      if (keep > 0) {
        std::memcpy(fresh, data_, keep * sizeof(T));
      }
      if (n > keep) {
        // Value-initialization (all fields zero for the bucket/slot types
        // used here); compiles to a memset for trivial field layouts.
        std::uninitialized_value_construct_n(fresh + keep, n - keep);
      }
    }
    Release();
    data_ = fresh;
    size_ = n;
  }

  T* data() { return data_; }
  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  bool operator==(const Slab& other) const {
    return size_ == other.size_ &&
           (size_ == 0 || std::memcmp(data_, other.data_, size_ * sizeof(T)) == 0);
  }

 private:
  // n * sizeof(T), refused (before any allocation) when it overflows: a
  // wrapped product would allocate a few bytes and the zero-fill would
  // write far past them.
  static size_t Bytes(size_t n) {
    if (n > std::numeric_limits<size_t>::max() / sizeof(T)) {
      throw std::length_error("Slab: " + std::to_string(n) + " elements overflow size_t");
    }
    return n * sizeof(T);
  }

  void CopyFrom(const Slab& other) {
    size_ = other.size_;
    data_ = nullptr;
    if (size_ > 0) {
      data_ = static_cast<T*>(::operator new(Bytes(size_), std::align_val_t(kCacheLineBytes)));
      std::memcpy(data_, other.data_, size_ * sizeof(T));
    }
  }

  void Release() {
    if (data_ != nullptr) {
      ::operator delete(data_, std::align_val_t(kCacheLineBytes));
      data_ = nullptr;
    }
  }

  T* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace hk

#endif  // HK_COMMON_SLAB_H_
