// Flow identifiers (Section II-A).
//
// A flow ID is "a combination of certain packet header fields". The library's
// hot path operates on a canonical 64-bit FlowId; trace generators derive it
// from realistic header structures (5-tuple or address pair) via HashBytes,
// which keeps per-packet processing at a single word while preserving the
// fingerprint-collision behaviour the paper analyses (collisions on the
// 64-bit id itself are negligible at <= 10^7 flows).
//
// KeyKind records how many bytes the *original* ID occupies; algorithms that
// store whole IDs (Space-Saving, Lossy Counting, the min-heap) are charged
// that many bytes per entry in the memory accounting (Section VI-A).
#ifndef HK_COMMON_FLOW_KEY_H_
#define HK_COMMON_FLOW_KEY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace hk {

using FlowId = uint64_t;

// A (flow, size) pair: the unit of every top-k report and ground-truth list.
struct FlowCount {
  FlowId id = 0;
  uint64_t count = 0;

  bool operator==(const FlowCount&) const = default;
};

// The report order of every top-k answer: estimate descending, ties by id
// ascending. Entry is FlowCount or any struct with the same two fields.
template <typename Entry>
bool RanksBefore(const Entry& a, const Entry& b) {
  return a.count != b.count ? a.count > b.count : a.id < b.id;
}

// Keeps the k entries that rank first, in report order: nth_element when
// k < size, then std::sort of those k. A query over a full store of k
// entries pays one sort, not partial_sort's heap pass.
template <typename Entry>
void RankTopK(std::vector<Entry>& entries, size_t k) {
  const auto before = [](const Entry& a, const Entry& b) { return RanksBefore(a, b); };
  if (k < entries.size()) {
    std::nth_element(entries.begin(), entries.begin() + static_cast<std::ptrdiff_t>(k),
                     entries.end(), before);
    entries.resize(k);
  }
  std::sort(entries.begin(), entries.end(), before);
}

enum class KeyKind {
  kSynthetic4B,  // paper's synthetic traces: "each packet is 4 bytes long"
  kAddrPair8B,   // CAIDA: source + destination IPv4 address
  kFiveTuple13B, // campus: 5-tuple (2x IPv4 + 2x port + proto)
};

constexpr size_t KeyBytes(KeyKind kind) {
  switch (kind) {
    case KeyKind::kSynthetic4B:
      return 4;
    case KeyKind::kAddrPair8B:
      return 8;
    case KeyKind::kFiveTuple13B:
      return 13;
  }
  return 8;
}

const char* KeyKindName(KeyKind kind);

// A realistic transport 5-tuple, used by the trace generators and the OVS
// datapath simulation.
struct FiveTuple {
  uint32_t src_ip = 0;
  uint32_t dst_ip = 0;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint8_t proto = 0;

  bool operator==(const FiveTuple&) const = default;

  // Canonical 64-bit flow id (seeded byte hash over the packed 13 bytes).
  FlowId Id() const;

  std::string ToString() const;
};

// Source/destination address pair (the CAIDA flow definition).
struct AddrPair {
  uint32_t src_ip = 0;
  uint32_t dst_ip = 0;

  bool operator==(const AddrPair&) const = default;

  FlowId Id() const;

  std::string ToString() const;
};

// Seed of the canonical id hash ("heavykee"). Exposed so batch id
// derivation (PcapReader::NextBatch, ingest/pcap_reader.h) can run the same
// HashBytes lane-parallel; every Id() above uses exactly this seed.
inline constexpr uint64_t kFlowIdSeed = 0x68656176796b6565ULL;

// Source-only flow definition (per-source aggregation, e.g. DDoS-style
// ingest): the canonical id of the 4-byte source address, derived through
// the same seeded byte hash as FiveTuple::Id / AddrPair::Id.
FlowId SrcOnlyId(uint32_t src_ip);

}  // namespace hk

#endif  // HK_COMMON_FLOW_KEY_H_
