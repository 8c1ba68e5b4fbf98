// Length-checked binary encode/decode helpers for state blobs.
//
// The pattern serialization.cpp established (append POD fields, read them
// back with bounds checks, reject trailing bytes) is what every
// TopKAlgorithm::SaveState/LoadState implementation and the hk_serve
// checkpoint file need; this header makes it shared instead of re-derived
// per call site. Encoding is host-endian - the blobs are crash-recovery
// state for the machine that wrote them, not an interchange format (the
// magic-guarded sketch format in core/serialization.h stays the
// cross-version surface).
#ifndef HK_COMMON_BYTE_IO_H_
#define HK_COMMON_BYTE_IO_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace hk {

template <typename T>
void ByteAppend(std::vector<uint8_t>& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>, "ByteAppend needs a POD");
  const size_t pos = out.size();
  out.resize(pos + sizeof(T));
  std::memcpy(out.data() + pos, &v, sizeof(T));
}

inline void ByteAppendString(std::vector<uint8_t>& out, const std::string& s) {
  ByteAppend(out, static_cast<uint64_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

inline void ByteAppendBlob(std::vector<uint8_t>& out, const std::vector<uint8_t>& blob) {
  ByteAppend(out, static_cast<uint64_t>(blob.size()));
  out.insert(out.end(), blob.begin(), blob.end());
}

// In-place form of ByteAppendBlob for a blob written straight into `out`:
// ByteBeginBlob appends the uint64 length slot and returns its offset;
// ByteEndBlob fills it with the bytes appended since. Same bytes as
// ByteAppendBlob, without staging the blob in a vector of its own.
inline size_t ByteBeginBlob(std::vector<uint8_t>& out) {
  const size_t at = out.size();
  ByteAppend(out, uint64_t{0});
  return at;
}

inline void ByteEndBlob(std::vector<uint8_t>& out, size_t at) {
  const uint64_t n = out.size() - at - sizeof(uint64_t);
  std::memcpy(out.data() + at, &n, sizeof(n));
}

class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  template <typename T>
  bool Read(T* v) {
    static_assert(std::is_trivially_copyable_v<T>, "ByteReader needs a POD");
    if (sizeof(T) > size_ - pos_) {
      return false;
    }
    std::memcpy(v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool ReadString(std::string* s) {
    uint64_t n = 0;
    if (!Read(&n) || n > size_ - pos_) {
      return false;
    }
    s->assign(reinterpret_cast<const char*>(data_) + pos_, static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return true;
  }

  bool ReadBlob(std::vector<uint8_t>* blob) {
    uint64_t n = 0;
    if (!Read(&n) || n > size_ - pos_) {
      return false;
    }
    blob->assign(data_ + pos_, data_ + pos_ + n);
    pos_ += static_cast<size_t>(n);
    return true;
  }

  // Borrow `n` bytes in place (no copy); nullptr when short.
  const uint8_t* Borrow(size_t n) {
    if (n > size_ - pos_) {
      return nullptr;
    }
    const uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  // ReadBlob without the copy: `blob` views the reader's buffer.
  bool BorrowBlob(std::span<const uint8_t>* blob) {
    uint64_t n = 0;
    if (!Read(&n) || n > size_ - pos_) {
      return false;
    }
    *blob = {Borrow(static_cast<size_t>(n)), static_cast<size_t>(n)};
    return true;
  }

  size_t remaining() const { return size_ - pos_; }
  bool Done() const { return pos_ == size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320). Guards the
// checkpoint file against torn or bit-rotted writes. A checkpoint CRCs
// every byte of every instance's state, so this is slicing-by-8: eight
// 256-entry tables fold eight input bytes per step (about 20x the bitwise
// loop on a 32 MiB payload). The values are those of the bitwise
// definition, and Crc32(b, Crc32(a)) == Crc32(a || b), so a payload can be
// checksummed piece by piece.
namespace crc32_internal {

constexpr std::array<std::array<uint32_t, 256>, 8> MakeTables() {
  std::array<std::array<uint32_t, 256>, 8> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0xedb88320u : 0u);
    }
    t[0][i] = crc;
  }
  // t[k][i]: the CRC of byte i followed by k zero bytes.
  for (size_t k = 1; k < 8; ++k) {
    for (size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
  }
  return t;
}

inline constexpr std::array<std::array<uint32_t, 256>, 8> kTables = MakeTables();

// Little-endian load whatever the host order (compiles to one load on x86
// and arm64).
inline uint32_t Load32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace crc32_internal

inline uint32_t Crc32(const uint8_t* data, size_t size, uint32_t seed = 0) {
  const auto& t = crc32_internal::kTables;
  uint32_t crc = ~seed;
  for (; size >= 8; data += 8, size -= 8) {
    const uint32_t lo = crc32_internal::Load32(data) ^ crc;
    const uint32_t hi = crc32_internal::Load32(data + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^
          t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^ t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    crc = (crc >> 8) ^ t[0][(crc ^ *data) & 0xff];
  }
  return ~crc;
}

inline uint32_t Crc32(const std::vector<uint8_t>& data, uint32_t seed = 0) {
  return Crc32(data.data(), data.size(), seed);
}

}  // namespace hk

#endif  // HK_COMMON_BYTE_IO_H_
