#include "ingest/pcap_reader.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "simd/hash_batch.h"

namespace hk {

using namespace pcapfmt;

namespace {

// The window's size: each source pull reads up to this much ahead. A record
// larger than the window grows it to fit.
constexpr size_t kWindowBytes = 256 * 1024;

// A pcapng block larger than this is a corrupt length field, not data: the
// packet payload inside a block is already capped at kMaxSaneCaplen, so a
// small envelope allowance covers every legitimate block.
constexpr size_t kMaxSaneBlockLen = kMaxSaneCaplen + 4096;

// Network byte order loads (the wire headers are big-endian regardless of
// the container's endianness).
uint16_t Be16(const uint8_t* p) { return static_cast<uint16_t>(p[0] << 8 | p[1]); }
uint32_t Be32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) << 24 | static_cast<uint32_t>(p[1]) << 16 |
         static_cast<uint32_t>(p[2]) << 8 | static_cast<uint32_t>(p[3]);
}

// Fold a 16-byte IPv6 address into the 32-bit slot FiveTuple carries: XOR
// of the four big-endian address words. Deterministic, and a synthesizer
// can embed a chosen 32-bit value exactly (see pcap_writer.cpp).
uint32_t FoldIpv6(const uint8_t* p) {
  return Be32(p) ^ Be32(p + 4) ^ Be32(p + 8) ^ Be32(p + 12);
}

// Id derivation for a whole burst: records[i].id becomes exactly what
// PcapReader::DeriveId would set under `policy` (FiveTuple/AddrPair/SrcOnly
// Id()), hashed lane-parallel via simd/hash_batch.h where the host allows.
void DerivePacketIds(PcapKeyPolicy policy, PacketRecord* records, size_t n) {
  // Pack each record's key bytes into a fixed-stride scratch block (the
  // layouts below byte-match FiveTuple::Id / AddrPair::Id / SrcOnlyId) and
  // hash a chunk at a time lane-parallel. The resolved kernel is process-
  // wide: id derivation has no per-instance spec to carry a mode.
  static const SimdKernel kernel = ResolveSimdKernel(SimdMode::kAuto);
  constexpr size_t kChunk = 64;
  uint8_t keys[kChunk * simd::kHashBatchStride];
  uint64_t ids[kChunk];
  size_t key_len = 0;
  switch (policy) {
    case PcapKeyPolicy::kFiveTuple:
      key_len = 13;
      break;
    case PcapKeyPolicy::kAddrPair:
      key_len = 8;
      break;
    case PcapKeyPolicy::kSrcOnly:
      key_len = 4;
      break;
  }
  for (size_t base = 0; base < n; base += kChunk) {
    const size_t m = std::min(kChunk, n - base);
    for (size_t i = 0; i < m; ++i) {
      const FiveTuple& t = records[base + i].tuple;
      uint8_t* slot = keys + i * simd::kHashBatchStride;
      std::memcpy(slot, &t.src_ip, 4);
      if (policy != PcapKeyPolicy::kSrcOnly) {
        std::memcpy(slot + 4, &t.dst_ip, 4);
      }
      if (policy == PcapKeyPolicy::kFiveTuple) {
        std::memcpy(slot + 8, &t.src_port, 2);
        std::memcpy(slot + 10, &t.dst_port, 2);
        slot[12] = t.proto;
      }
    }
    simd::HashBytesBatch(kernel, keys, m, key_len, kFlowIdSeed, ids);
    for (size_t i = 0; i < m; ++i) {
      records[base + i].id = ids[i];
    }
  }
}

uint64_t Pow10(uint32_t n) {
  uint64_t v = 1;
  for (uint32_t i = 0; i < n; ++i) {
    v *= 10;
  }
  return v;
}

}  // namespace

KeyKind ToKeyKind(PcapKeyPolicy policy) {
  switch (policy) {
    case PcapKeyPolicy::kFiveTuple:
      return KeyKind::kFiveTuple13B;
    case PcapKeyPolicy::kAddrPair:
      return KeyKind::kAddrPair8B;
    case PcapKeyPolicy::kSrcOnly:
      return KeyKind::kSynthetic4B;
  }
  return KeyKind::kFiveTuple13B;
}

bool ParsePcapKeyPolicy(const std::string& text, PcapKeyPolicy* out) {
  if (text == "5tuple" || text == "five-tuple" || text == "13") {
    *out = PcapKeyPolicy::kFiveTuple;
    return true;
  }
  if (text == "pair" || text == "addr-pair" || text == "8") {
    *out = PcapKeyPolicy::kAddrPair;
    return true;
  }
  if (text == "src" || text == "src-only" || text == "4") {
    *out = PcapKeyPolicy::kSrcOnly;
    return true;
  }
  return false;
}

const char* PcapKeyPolicyName(PcapKeyPolicy policy) {
  switch (policy) {
    case PcapKeyPolicy::kFiveTuple:
      return "5tuple";
    case PcapKeyPolicy::kAddrPair:
      return "pair";
    case PcapKeyPolicy::kSrcOnly:
      return "src";
  }
  return "?";
}

uint16_t PcapReader::Load16(const uint8_t* p) const {
  uint16_t v;
  std::memcpy(&v, p, sizeof(v));
  return swapped_ ? static_cast<uint16_t>(v << 8 | v >> 8) : v;
}

uint32_t PcapReader::Load32(const uint8_t* p) const {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return swapped_ ? __builtin_bswap32(v) : v;
}

bool PcapReader::Malformed(const std::string& what) {
  error_ = what;
  offset_ = end_;      // terminate the stream
  source_eof_ = true;  // and stop pulling from the source
  return false;
}

bool PcapReader::Refill(size_t need) {
  if (Available() >= need) {
    return true;
  }
  if (source_eof_) {
    return false;
  }
  if (offset_ > 0) {
    // Move the unread tail to the front, so the window stays bounded by
    // one in-flight record plus read-ahead.
    std::memmove(data_.data(), data_.data() + offset_, Available());
    end_ -= offset_;
    offset_ = 0;
  }
  if (data_.size() < need) {
    data_.resize(std::max(need, kWindowBytes));
  }
  while (end_ < need) {
    if (hold_ && !source_->Ready()) {
      stalled_ = true;  // NextBatch hands over what it holds instead of waiting
      return false;
    }
    const size_t got = source_->Read(data_.data() + end_, data_.size() - end_);
    if (got == 0) {
      source_eof_ = true;
      break;
    }
    end_ += got;
  }
  return Available() >= need;
}

bool PcapReader::SourceEof() {
  // End-of-stream on a record boundary: clean unless the source died
  // (a socket error must not masquerade as a finished capture).
  if (!source_->ok()) {
    Malformed("byte source failed: " + source_->error());
  }
  return false;
}

bool PcapReader::Open(const std::string& path) {
  return OpenStream(MakeFileByteSource(path));
}

bool PcapReader::OpenStream(std::unique_ptr<ByteSource> source) {
  source_ = std::move(source);
  source_eof_ = false;
  offset_ = 0;
  end_ = 0;
  interfaces_.clear();
  stats_ = IngestStats{};
  error_.clear();
  if (source_ == nullptr) {
    error_ = "null byte source";
    return false;
  }
  if (!source_->ok()) {
    error_ = source_->error();
    source_.reset();
    return false;
  }
  return ParseContainerHeader();
}

bool PcapReader::ParseContainerHeader() {
  if (!Refill(4)) {
    // A source that failed (a directory opens, then fails to read) says so.
    error_ = source_->ok() ? "capture shorter than any magic number"
                           : "byte source failed: " + source_->error();
    return false;
  }
  const uint8_t* head = data_.data() + offset_;
  if (head[0] == kGzipMagic0 && head[1] == kGzipMagic1) {
    error_ = "gzip captures not yet supported — pipe through zcat";
    return false;
  }
  uint32_t magic;
  std::memcpy(&magic, head, sizeof(magic));

  if (magic == kBlockSectionHeader) {
    // pcapng: blocks carry their own structure; NextNg consumes the SHB.
    format_ = PcapFormat::kPcapNg;
    return true;
  }

  bool nanos = false;
  swapped_ = false;
  switch (magic) {
    case kMagicMicros:
      break;
    case kMagicNanos:
      nanos = true;
      break;
    case kMagicMicrosSwapped:
      swapped_ = true;
      break;
    case kMagicNanosSwapped:
      swapped_ = true;
      nanos = true;
      break;
    default:
      error_ = "not a pcap/pcapng capture (bad magic)";
      return false;
  }
  format_ = PcapFormat::kPcap;
  if (!Refill(kPcapGlobalHeaderBytes)) {
    error_ = "truncated pcap global header";
    return false;
  }
  const uint8_t* h = data_.data() + offset_;  // Refill may have moved the window
  Interface iface;
  iface.link_type = Load32(h + 20);
  iface.snaplen = Load32(h + 16);
  iface.tsresol = nanos ? 9 : 6;
  iface.tsresol_pow2 = false;
  if (!SupportedLinkType(iface.link_type)) {
    error_ = "unsupported pcap linktype " + std::to_string(iface.link_type);
    return false;
  }
  interfaces_.assign(1, iface);
  offset_ += kPcapGlobalHeaderBytes;
  return true;
}

bool PcapReader::SupportedLinkType(uint32_t link_type) {
  return link_type == kLinkTypeEthernet || link_type == kLinkTypeRaw ||
         link_type == kLinkTypeNull || link_type == kLinkTypeSll ||
         link_type == kLinkTypeSll2;
}

uint64_t PcapReader::TicksToNs(const Interface& iface, uint64_t ticks) {
  if (iface.tsresol_pow2) {
    // Units of 2^-v seconds -> nanoseconds via a 128-bit intermediate.
    return static_cast<uint64_t>((static_cast<__uint128_t>(ticks) * 1'000'000'000ULL) >>
                                 iface.tsresol);
  }
  if (iface.tsresol <= 9) {
    return ticks * Pow10(9 - iface.tsresol);
  }
  return ticks / Pow10(iface.tsresol - 9);  // finer than ns: truncate
}

bool PcapReader::NextRecord(PacketRecord* out) {
  if (!ok()) {
    return false;
  }
  return format_ == PcapFormat::kPcap ? NextClassic(out) : NextNg(out);
}

bool PcapReader::Next(PacketRecord* out) {
  if (!NextRecord(out)) {
    return false;
  }
  DeriveId(out);
  return true;
}

size_t PcapReader::NextBatch(std::span<PacketRecord> out) {
  size_t n = 0;
  while (n < out.size() && NextRecord(&out[n])) {
    ++n;
    // A live source hands over what has arrived: once a record is held,
    // a refill that would wait on the source ends the burst instead.
    hold_ = true;
  }
  hold_ = false;
  stalled_ = false;
  DerivePacketIds(policy_, out.data(), n);
  return n;
}

bool PcapReader::NextClassic(PacketRecord* out) {
  const Interface& iface = interfaces_.front();
  for (;;) {
    if (!Refill(kPcapRecordHeaderBytes)) {
      if (stalled_) {
        return false;
      }
      if (Available() == 0) {
        return SourceEof();
      }
      return Malformed("truncated pcap record header");
    }
    const uint8_t* h = data_.data() + offset_;
    const uint64_t sec = Load32(h);
    const uint64_t frac = Load32(h + 4);
    const uint32_t caplen = Load32(h + 8);
    const uint32_t origlen = Load32(h + 12);
    if (caplen > kMaxSaneCaplen) {
      return Malformed("bogus caplen " + std::to_string(caplen));
    }
    if (!Refill(kPcapRecordHeaderBytes + caplen)) {
      return stalled_ ? false : Malformed("record caplen overruns the file");
    }
    const uint8_t* frame = data_.data() + offset_ + kPcapRecordHeaderBytes;
    offset_ += kPcapRecordHeaderBytes + caplen;
    if (caplen == 0) {
      ++stats_.skipped_other;
      continue;
    }
    if (ParseFrame(frame, caplen, iface.link_type, out)) {
      out->timestamp_ns =
          sec * 1'000'000'000ULL + (iface.tsresol == 9 ? frac : frac * 1000ULL);
      out->wire_len = origlen;
      ++stats_.packets;
      stats_.wire_bytes += out->wire_len;
      return true;
    }
  }
}

bool PcapReader::NextNg(PacketRecord* out) {
  for (;;) {
    if (!Refill(12)) {
      if (stalled_) {
        return false;
      }
      if (Available() == 0) {
        return SourceEof();
      }
      return Malformed("truncated pcapng block header");
    }
    const uint8_t* b = data_.data() + offset_;
    uint32_t type;
    std::memcpy(&type, b, sizeof(type));

    if (type == kBlockSectionHeader) {
      // The byte-order magic inside the SHB fixes this section's
      // endianness (the block type constant is a palindrome).
      uint32_t bom;
      std::memcpy(&bom, b + 8, sizeof(bom));
      if (bom == kByteOrderMagic) {
        swapped_ = false;
      } else if (bom == kByteOrderMagicSwapped) {
        swapped_ = true;
      } else {
        return Malformed("pcapng section header with bad byte-order magic");
      }
      interfaces_.clear();
    }

    const uint32_t total_len = Load32(b + 4);
    if (total_len < 12 || total_len % 4 != 0 || total_len > kMaxSaneBlockLen) {
      return Malformed("pcapng block with bogus total length " + std::to_string(total_len));
    }
    if (!Refill(total_len)) {
      return stalled_ ? false : Malformed("pcapng block overruns the file");
    }
    b = data_.data() + offset_;  // Refill may have moved the window
    if (Load32(b + total_len - 4) != total_len) {
      return Malformed("pcapng block trailing length mismatch");
    }
    const uint8_t* body = b + 8;
    const size_t body_len = total_len - 12;  // minus type, lengths
    offset_ += total_len;

    switch (swapped_ ? __builtin_bswap32(type) : type) {
      case kBlockSectionHeader:
        break;  // consumed above
      case kBlockInterfaceDescription: {
        Interface iface;
        if (body_len < 8) {
          return Malformed("pcapng interface block too short");
        }
        iface.link_type = Load16(body);
        iface.snaplen = Load32(body + 4);
        iface.tsresol = 6;  // pcapng default: microseconds
        iface.tsresol_pow2 = false;
        // Option walk for if_tsresol; every length bounds-checked.
        size_t pos = 8;
        while (body_len - pos >= 4) {
          const uint16_t code = Load16(body + pos);
          const uint16_t len = Load16(body + pos + 2);
          pos += 4;
          if (code == kOptEndOfOpt) {
            break;
          }
          if (len > body_len - pos) {
            return Malformed("pcapng interface option overruns its block");
          }
          if (code == kOptIfTsResol && len >= 1) {
            const uint8_t v = body[pos];
            iface.tsresol = v & 0x7f;
            iface.tsresol_pow2 = (v & 0x80) != 0;
          }
          pos += (len + 3u) & ~3u;  // options are padded to 4 bytes
        }
        iface.supported = SupportedLinkType(iface.link_type);
        // Hostile/nonsense resolutions: past femtoseconds the pow-10
        // divisor in TicksToNs would overflow uint64 (10^n == 0 mod 2^64
        // for n >= 64 - a crafted value must not reach a division). The
        // pow-2 branch shifts a 128-bit value by at most 127, always
        // defined.
        if (!iface.tsresol_pow2 && iface.tsresol > 16) {
          iface.supported = false;
        }
        interfaces_.push_back(iface);
        break;
      }
      case kBlockEnhancedPacket: {
        if (body_len < 20) {
          return Malformed("pcapng enhanced packet block too short");
        }
        const uint32_t iface_id = Load32(body);
        const uint64_t ticks =
            static_cast<uint64_t>(Load32(body + 4)) << 32 | Load32(body + 8);
        const uint32_t caplen = Load32(body + 12);
        const uint32_t origlen = Load32(body + 16);
        if (caplen > kMaxSaneCaplen || caplen > body_len - 20) {
          return Malformed("pcapng packet caplen overruns its block");
        }
        if (iface_id >= interfaces_.size() || !interfaces_[iface_id].supported) {
          ++stats_.skipped_other;  // unknown or unsupported interface
          break;
        }
        if (caplen == 0) {
          ++stats_.skipped_other;
          break;
        }
        const Interface& iface = interfaces_[iface_id];
        if (ParseFrame(body + 20, caplen, iface.link_type, out)) {
          out->timestamp_ns = TicksToNs(iface, ticks);
          out->wire_len = origlen;
          ++stats_.packets;
          stats_.wire_bytes += out->wire_len;
          return true;
        }
        break;
      }
      case kBlockSimplePacket: {
        if (body_len < 4 || interfaces_.empty() || !interfaces_.front().supported) {
          ++stats_.skipped_other;
          break;
        }
        const Interface& iface = interfaces_.front();
        const uint32_t origlen = Load32(body);
        uint32_t caplen = static_cast<uint32_t>(body_len - 4);
        if (origlen < caplen) {
          caplen = origlen;  // data is padded to 4; trust origlen when smaller
        }
        if (caplen == 0) {
          ++stats_.skipped_other;
          break;
        }
        if (ParseFrame(body + 4, caplen, iface.link_type, out)) {
          out->timestamp_ns = 0;  // SPBs carry no timestamp
          out->wire_len = origlen;
          ++stats_.packets;
          stats_.wire_bytes += out->wire_len;
          return true;
        }
        break;
      }
      default:
        break;  // name resolution, statistics, custom blocks: skip by length
    }
  }
}

bool PcapReader::ParseFrame(const uint8_t* data, size_t caplen, uint32_t link_type,
                            PacketRecord* out) {
  size_t off = 0;
  // Framings that carry an ethertype (Ethernet and both Linux cooked
  // variants) share the 802.1Q/802.1ad strip below; the others jump
  // straight to the IP header.
  bool has_ethertype = false;
  uint16_t ethertype = 0;
  switch (link_type) {
    case kLinkTypeEthernet:
      if (caplen < 14) {
        ++stats_.skipped_truncated;
        return false;
      }
      ethertype = Be16(data + 12);
      off = 14;
      has_ethertype = true;
      break;
    case kLinkTypeSll:
      // Linux cooked v1: the protocol field is a big-endian ethertype
      // (non-ethertype ARPHRD pseudo-protocols land in skipped_non_ip).
      if (caplen < kSllHeaderBytes) {
        ++stats_.skipped_truncated;
        return false;
      }
      ethertype = Be16(data + kSllProtocolOffset);
      off = kSllHeaderBytes;
      has_ethertype = true;
      break;
    case kLinkTypeSll2:
      if (caplen < kSll2HeaderBytes) {
        ++stats_.skipped_truncated;
        return false;
      }
      ethertype = Be16(data);  // protocol moved to offset 0 in v2
      off = kSll2HeaderBytes;
      has_ethertype = true;
      break;
    case kLinkTypeRaw:
      break;  // IP starts immediately
    case kLinkTypeNull: {
      if (caplen < 4) {
        ++stats_.skipped_truncated;
        return false;
      }
      off = 4;  // 4-byte address-family word (either byte order); IP follows
      break;
    }
    default:
      ++stats_.skipped_other;
      return false;
  }
  if (has_ethertype) {
    // 802.1Q / 802.1ad tag stack (bounded: a hostile frame cannot loop).
    int tags = 0;
    while ((ethertype == kEtherTypeVlan || ethertype == kEtherTypeQinQ) && tags < 8) {
      if (caplen - off < 4) {
        ++stats_.skipped_truncated;
        return false;
      }
      ethertype = Be16(data + off + 2);
      off += 4;
      ++tags;
    }
    if (ethertype != kEtherTypeIpv4 && ethertype != kEtherTypeIpv6) {
      ++stats_.skipped_non_ip;
      return false;
    }
  }
  return ParseIp(data + off, caplen - off, out);
}

bool PcapReader::ParseIp(const uint8_t* data, size_t len, PacketRecord* out) {
  if (len < 1) {
    ++stats_.skipped_truncated;
    return false;
  }
  out->tuple = FiveTuple{};
  const uint8_t version = data[0] >> 4;

  if (version == 4) {
    if (len < 20) {
      ++stats_.skipped_truncated;
      return false;
    }
    const size_t ihl = static_cast<size_t>(data[0] & 0x0f) * 4;
    if (ihl < 20 || ihl > len) {
      ++stats_.skipped_truncated;
      return false;
    }
    out->tuple.proto = data[9];
    out->tuple.src_ip = Be32(data + 12);
    out->tuple.dst_ip = Be32(data + 16);
    const uint16_t frag = Be16(data + 6);
    const bool first_fragment = (frag & 0x1fff) == 0;
    if (first_fragment &&
        (out->tuple.proto == kProtoTcp || out->tuple.proto == kProtoUdp) &&
        len - ihl >= 4) {
      out->tuple.src_port = Be16(data + ihl);
      out->tuple.dst_port = Be16(data + ihl + 2);
    }
    return true;
  }

  if (version == 6) {
    if (len < 40) {
      ++stats_.skipped_truncated;
      return false;
    }
    out->tuple.src_ip = FoldIpv6(data + 8);
    out->tuple.dst_ip = FoldIpv6(data + 24);
    uint8_t next = data[6];
    size_t off = 40;
    bool fragmented = false;
    // Bounded extension-header walk to the transport header.
    for (int hops = 0; hops < 8; ++hops) {
      if (next == kIpv6HopByHop || next == kIpv6Routing || next == kIpv6DestOpts) {
        if (len - off < 8) {
          break;
        }
        const size_t ext_len = (static_cast<size_t>(data[off + 1]) + 1) * 8;
        if (ext_len > len - off) {
          break;
        }
        next = data[off];
        off += ext_len;
      } else if (next == kIpv6Fragment) {
        if (len - off < 8) {
          break;
        }
        if ((Be16(data + off + 2) & 0xfff8) != 0) {
          fragmented = true;  // non-first fragment: no transport header
        }
        next = data[off];
        off += 8;
      } else {
        break;
      }
    }
    out->tuple.proto = next;
    if (!fragmented && (next == kProtoTcp || next == kProtoUdp) && len - off >= 4) {
      out->tuple.src_port = Be16(data + off);
      out->tuple.dst_port = Be16(data + off + 2);
    }
    return true;
  }

  ++stats_.skipped_non_ip;
  return false;
}

void PcapReader::DeriveId(PacketRecord* out) const {
  switch (policy_) {
    case PcapKeyPolicy::kFiveTuple:
      out->id = out->tuple.Id();
      break;
    case PcapKeyPolicy::kAddrPair:
      out->id = AddrPair{out->tuple.src_ip, out->tuple.dst_ip}.Id();
      break;
    case PcapKeyPolicy::kSrcOnly:
      out->id = SrcOnlyId(out->tuple.src_ip);
      break;
  }
}

}  // namespace hk
