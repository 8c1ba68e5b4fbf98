// Malformed-capture hardening for PcapReader (the satellite contract of
// ISSUE 5): truncated headers, bogus capture lengths, unknown linktypes,
// zero-length packets, hostile pcapng block structure. The reader must
// skip or stop cleanly - stats() accounts for every skipped slice, ok()
// goes false only on container-level corruption - and must never read
// past the bytes it was handed (the suite runs under ASan in the
// sanitizer CI job, so an over-read is a hard failure, not a flake).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "ingest/byte_source.h"
#include "ingest/pcap_format.h"
#include "ingest/pcap_reader.h"
#include "ingest/pcap_writer.h"

namespace hk {
namespace {

using namespace pcapfmt;

void Put16(std::vector<uint8_t>& out, uint16_t v) {
  uint8_t b[2];
  std::memcpy(b, &v, sizeof(b));
  out.insert(out.end(), b, b + sizeof(b));
}

void Put32(std::vector<uint8_t>& out, uint32_t v) {
  uint8_t b[4];
  std::memcpy(b, &v, sizeof(b));
  out.insert(out.end(), b, b + sizeof(b));
}

// A minimal valid classic pcap (Ethernet linktype) global header.
std::vector<uint8_t> ClassicHeader(uint32_t link_type = kLinkTypeEthernet) {
  std::vector<uint8_t> out;
  Put32(out, kMagicMicros);
  Put16(out, kPcapVersionMajor);
  Put16(out, kPcapVersionMinor);
  Put32(out, 0);
  Put32(out, 0);
  Put32(out, 65535);
  Put32(out, link_type);
  return out;
}

// One Ethernet+IPv4+UDP frame (42 bytes) for flow 10.0.0.1 -> 10.0.0.2.
std::vector<uint8_t> UdpFrame() {
  static const uint8_t frame[42] = {
      // Ethernet
      0x02, 0, 0, 0, 0, 2, 0x02, 0, 0, 0, 0, 1, 0x08, 0x00,
      // IPv4: ver/ihl, tos, totlen=28, id, frag, ttl, proto=17, csum
      0x45, 0x00, 0x00, 0x1c, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0x00, 0x00,
      // src 10.0.0.1, dst 10.0.0.2
      0x0a, 0x00, 0x00, 0x01, 0x0a, 0x00, 0x00, 0x02,
      // UDP: sport 1000, dport 53, len 8, csum 0
      0x03, 0xe8, 0x00, 0x35, 0x00, 0x08, 0x00, 0x00};
  return std::vector<uint8_t>(frame, frame + sizeof(frame));
}

void AppendRecord(std::vector<uint8_t>& out, const std::vector<uint8_t>& frame,
                  uint32_t caplen_override = 0, uint32_t origlen = 0) {
  const uint32_t caplen =
      caplen_override != 0 ? caplen_override : static_cast<uint32_t>(frame.size());
  Put32(out, 1);  // ts_sec
  Put32(out, 0);  // ts_usec
  Put32(out, caplen);
  Put32(out, origlen != 0 ? origlen : caplen);
  out.insert(out.end(), frame.begin(), frame.end());
}

struct DrainResult {
  uint64_t yielded = 0;
  bool ok = false;
  IngestStats stats;
  std::string error;
};

DrainResult Drain(std::vector<uint8_t> bytes,
                  PcapKeyPolicy policy = PcapKeyPolicy::kFiveTuple) {
  PcapReader reader(policy);
  DrainResult result;
  if (!reader.OpenStream(MakeBufferByteSource(std::move(bytes)))) {
    result.error = reader.error();
    return result;
  }
  PacketRecord record;
  while (reader.Next(&record)) {
    ++result.yielded;
  }
  result.ok = reader.ok();
  result.stats = reader.stats();
  result.error = reader.error();
  return result;
}

TEST(PcapHardeningTest, EmptyAndTinyBuffersFailCleanly) {
  EXPECT_FALSE(PcapReader().OpenStream(MakeBufferByteSource({})));
  EXPECT_FALSE(PcapReader().OpenStream(MakeBufferByteSource({0xa1})));
  // Bad magic.
  EXPECT_FALSE(PcapReader().OpenStream(MakeBufferByteSource({0xde, 0xad, 0xbe, 0xef})));
}

TEST(PcapHardeningTest, TruncatedGlobalHeaderFailsOpen) {
  std::vector<uint8_t> bytes = ClassicHeader();
  bytes.resize(10);
  PcapReader reader;
  EXPECT_FALSE(reader.OpenStream(MakeBufferByteSource(std::move(bytes))));
  EXPECT_FALSE(reader.ok());
}

TEST(PcapHardeningTest, UnknownLinktypeFailsOpen) {
  PcapReader reader;
  EXPECT_FALSE(reader.OpenStream(MakeBufferByteSource(ClassicHeader(/*link_type=*/147))));
  EXPECT_NE(reader.error().find("linktype"), std::string::npos) << reader.error();
}

TEST(PcapHardeningTest, TruncatedRecordHeaderStopsCleanly) {
  std::vector<uint8_t> bytes = ClassicHeader();
  AppendRecord(bytes, UdpFrame());
  Put32(bytes, 2);  // half a record header
  Put32(bytes, 0);
  const DrainResult result = Drain(std::move(bytes));
  EXPECT_EQ(result.yielded, 1u);  // the valid record still parses
  EXPECT_FALSE(result.ok);
}

TEST(PcapHardeningTest, CaplenOverrunningTheFileStopsCleanly) {
  std::vector<uint8_t> bytes = ClassicHeader();
  AppendRecord(bytes, UdpFrame(), /*caplen_override=*/100000);  // claims >> bytes present
  const DrainResult result = Drain(std::move(bytes));
  EXPECT_EQ(result.yielded, 0u);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("overrun"), std::string::npos) << result.error;
}

TEST(PcapHardeningTest, BogusGiantCaplenStopsCleanly) {
  std::vector<uint8_t> bytes = ClassicHeader();
  AppendRecord(bytes, UdpFrame(), /*caplen_override=*/0xf0000000u);
  const DrainResult result = Drain(std::move(bytes));
  EXPECT_EQ(result.yielded, 0u);
  EXPECT_FALSE(result.ok);
}

TEST(PcapHardeningTest, ZeroLengthAndTruncatedFramesAreSkippedNotFatal) {
  std::vector<uint8_t> bytes = ClassicHeader();
  // Zero captured bytes.
  Put32(bytes, 1);
  Put32(bytes, 0);
  Put32(bytes, 0);
  Put32(bytes, 60);
  // Seven bytes of Ethernet (too short for any header).
  std::vector<uint8_t> stub(7, 0xab);
  AppendRecord(bytes, stub);
  // IPv4 claims ihl=5 but the capture cuts off mid-address.
  std::vector<uint8_t> cut = UdpFrame();
  cut.resize(30);
  AppendRecord(bytes, cut);
  // A healthy record after all that still parses.
  AppendRecord(bytes, UdpFrame());
  const DrainResult result = Drain(std::move(bytes));
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.yielded, 1u);
  EXPECT_EQ(result.stats.skipped_other, 1u);      // zero-length
  EXPECT_EQ(result.stats.skipped_truncated, 2u);  // stub + cut
}

TEST(PcapHardeningTest, NonIpAndBadIpVersionsAreSkipped) {
  std::vector<uint8_t> bytes = ClassicHeader();
  // ARP ethertype.
  std::vector<uint8_t> arp = UdpFrame();
  arp[12] = 0x08;
  arp[13] = 0x06;
  AppendRecord(bytes, arp);
  // Ethertype says IPv4 but the version nibble is 7.
  std::vector<uint8_t> bad = UdpFrame();
  bad[14] = 0x75;
  AppendRecord(bytes, bad);
  // IPv4 with ihl < 20 bytes.
  std::vector<uint8_t> ihl = UdpFrame();
  ihl[14] = 0x43;
  AppendRecord(bytes, ihl);
  const DrainResult result = Drain(std::move(bytes));
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.yielded, 0u);
  EXPECT_EQ(result.stats.skipped_non_ip, 2u);
  EXPECT_EQ(result.stats.skipped_truncated, 1u);
}

TEST(PcapHardeningTest, VlanStackTruncatedInsideTheTagIsSkipped) {
  std::vector<uint8_t> bytes = ClassicHeader();
  std::vector<uint8_t> vlan = UdpFrame();
  vlan[12] = 0x81;  // 802.1Q, then the capture ends two bytes later
  vlan[13] = 0x00;
  vlan.resize(16);
  AppendRecord(bytes, vlan);
  const DrainResult result = Drain(std::move(bytes));
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.yielded, 0u);
  EXPECT_EQ(result.stats.skipped_truncated, 1u);
}

// --- pcapng container hardening ---------------------------------------

std::vector<uint8_t> NgSection() {
  std::vector<uint8_t> out;
  Put32(out, kBlockSectionHeader);
  Put32(out, 28);
  Put32(out, kByteOrderMagic);
  Put16(out, 1);
  Put16(out, 0);
  Put32(out, 0xffffffffu);
  Put32(out, 0xffffffffu);
  Put32(out, 28);
  return out;
}

void AppendNgInterface(std::vector<uint8_t>& out, uint32_t link_type = kLinkTypeEthernet) {
  Put32(out, kBlockInterfaceDescription);
  Put32(out, 20);
  Put16(out, static_cast<uint16_t>(link_type));
  Put16(out, 0);
  Put32(out, 65535);
  Put32(out, 20);
}

void AppendNgPacket(std::vector<uint8_t>& out, const std::vector<uint8_t>& frame,
                    uint32_t iface = 0) {
  const uint32_t caplen = static_cast<uint32_t>(frame.size());
  const uint32_t padded = (caplen + 3u) & ~3u;
  const uint32_t total = 32 + padded;
  Put32(out, kBlockEnhancedPacket);
  Put32(out, total);
  Put32(out, iface);
  Put32(out, 0);
  Put32(out, 0);
  Put32(out, caplen);
  Put32(out, caplen);
  out.insert(out.end(), frame.begin(), frame.end());
  out.insert(out.end(), padded - caplen, 0);
  Put32(out, total);
}

TEST(PcapNgHardeningTest, BadByteOrderMagicFailsAtFirstRead) {
  std::vector<uint8_t> bytes = NgSection();
  std::memset(bytes.data() + 8, 0xee, 4);
  const DrainResult result = Drain(std::move(bytes));
  EXPECT_EQ(result.yielded, 0u);
  EXPECT_FALSE(result.ok);
}

TEST(PcapNgHardeningTest, BlockOverrunningTheFileStopsCleanly) {
  std::vector<uint8_t> bytes = NgSection();
  AppendNgInterface(bytes);
  std::vector<uint8_t> packet;
  AppendNgPacket(packet, UdpFrame());
  packet[4] = 0xff;  // inflate total_len past the buffer
  packet[5] = 0x0f;
  bytes.insert(bytes.end(), packet.begin(), packet.end());
  const DrainResult result = Drain(std::move(bytes));
  EXPECT_EQ(result.yielded, 0u);
  EXPECT_FALSE(result.ok);
}

TEST(PcapNgHardeningTest, TrailingLengthMismatchStopsCleanly) {
  std::vector<uint8_t> bytes = NgSection();
  AppendNgInterface(bytes);
  std::vector<uint8_t> packet;
  AppendNgPacket(packet, UdpFrame());
  packet[packet.size() - 4] ^= 0x01;
  bytes.insert(bytes.end(), packet.begin(), packet.end());
  const DrainResult result = Drain(std::move(bytes));
  EXPECT_EQ(result.yielded, 0u);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("trailing"), std::string::npos) << result.error;
}

TEST(PcapNgHardeningTest, CaplenBeyondItsBlockStopsCleanly) {
  std::vector<uint8_t> bytes = NgSection();
  AppendNgInterface(bytes);
  const size_t caplen_at = bytes.size() + 20;
  AppendNgPacket(bytes, UdpFrame());
  bytes[caplen_at] = 0xff;  // caplen claims more than the block holds
  bytes[caplen_at + 1] = 0xff;
  const DrainResult result = Drain(std::move(bytes));
  EXPECT_EQ(result.yielded, 0u);
  EXPECT_FALSE(result.ok);
}

TEST(PcapNgHardeningTest, PacketsOnUnknownOrUnsupportedInterfacesAreSkipped) {
  std::vector<uint8_t> bytes = NgSection();
  AppendNgInterface(bytes);                       // iface 0: Ethernet
  AppendNgInterface(bytes, /*link_type=*/147);    // iface 1: unsupported
  AppendNgPacket(bytes, UdpFrame(), /*iface=*/1);  // unsupported linktype
  AppendNgPacket(bytes, UdpFrame(), /*iface=*/9);  // never described
  AppendNgPacket(bytes, UdpFrame(), /*iface=*/0);  // fine
  const DrainResult result = Drain(std::move(bytes));
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.yielded, 1u);
  EXPECT_EQ(result.stats.skipped_other, 2u);
}

TEST(PcapNgHardeningTest, UnknownBlockTypesAreSkippedByLength) {
  std::vector<uint8_t> bytes = NgSection();
  AppendNgInterface(bytes);
  Put32(bytes, 0x0000000b);  // some statistics-ish block
  Put32(bytes, 16);
  Put32(bytes, 0xdddddddd);
  Put32(bytes, 16);
  AppendNgPacket(bytes, UdpFrame());
  const DrainResult result = Drain(std::move(bytes));
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.yielded, 1u);
}

TEST(PcapNgHardeningTest, InterfaceOptionOverrunStopsCleanly) {
  std::vector<uint8_t> bytes = NgSection();
  // IDB whose option claims 200 bytes in a 12-byte option area.
  Put32(bytes, kBlockInterfaceDescription);
  Put32(bytes, 28);
  Put16(bytes, static_cast<uint16_t>(kLinkTypeEthernet));
  Put16(bytes, 0);
  Put32(bytes, 65535);
  Put16(bytes, kOptIfTsResol);
  Put16(bytes, 200);
  Put32(bytes, 0);
  Put32(bytes, 28);
  const DrainResult result = Drain(std::move(bytes));
  EXPECT_EQ(result.yielded, 0u);
  EXPECT_FALSE(result.ok);
}

void AppendNgInterfaceWithTsResol(std::vector<uint8_t>& out, uint8_t tsresol) {
  Put32(out, kBlockInterfaceDescription);
  Put32(out, 28);
  Put16(out, static_cast<uint16_t>(kLinkTypeEthernet));
  Put16(out, 0);
  Put32(out, 65535);
  Put16(out, kOptIfTsResol);
  Put16(out, 1);
  out.push_back(tsresol);
  out.insert(out.end(), 3, 0);  // option padding
  Put32(out, 28);
}

TEST(PcapNgHardeningTest, AbsurdTimestampResolutionSkipsTheInterface) {
  // if_tsresol = 100 (10^-100 s ticks): the pow-10 divisor would overflow
  // uint64 to zero - a crafted capture must skip cleanly, not divide by it.
  std::vector<uint8_t> bytes = NgSection();
  AppendNgInterfaceWithTsResol(bytes, 100);
  AppendNgPacket(bytes, UdpFrame());
  const DrainResult result = Drain(std::move(bytes));
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.yielded, 0u);
  EXPECT_EQ(result.stats.skipped_other, 1u);
}

TEST(PcapNgHardeningTest, Pow2TimestampResolutionIsAccepted) {
  // 2^-10 s ticks (high bit set): well-defined 128-bit shift path.
  std::vector<uint8_t> bytes = NgSection();
  AppendNgInterfaceWithTsResol(bytes, 0x80 | 10);
  AppendNgPacket(bytes, UdpFrame());
  const DrainResult result = Drain(std::move(bytes));
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.yielded, 1u);
}

TEST(PcapNgHardeningTest, MisalignedTotalLengthStopsCleanly) {
  std::vector<uint8_t> bytes = NgSection();
  std::vector<uint8_t> block;
  AppendNgInterface(block);
  block[4] = 21;  // not a multiple of 4
  bytes.insert(bytes.end(), block.begin(), block.end());
  const DrainResult result = Drain(std::move(bytes));
  EXPECT_EQ(result.yielded, 0u);
  EXPECT_FALSE(result.ok);
}

}  // namespace
}  // namespace hk
