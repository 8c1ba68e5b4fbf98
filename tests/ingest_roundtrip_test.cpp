// PcapWriter -> PcapReader round-trip: the ingest layer's exactness
// contract. A capture synthesized from a generator config must parse back
// to the *bit-identical* flow stream - per-flow packet counts equal to the
// source Oracle, timestamps surviving unmodified (nanosecond pcap and
// pcapng; the microsecond format is exact whenever stamps are us-aligned),
// and wire byte totals matching the writer - for the campus (5-tuple) and
// CAIDA (addr-pair) flow definitions, with VLAN tags and IPv6 framings
// sprinkled in.
//
// Fixture regeneration: HK_WRITE_PCAP_FIXTURES=1 rewrites the committed
// captures in tests/data/ (fixture_campus.pcap, fixture_caida.pcapng)
// that ingest_replay_test.cpp and the CI bench smoke replay.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "ingest/byte_source.h"
#include "ingest/capture_synth.h"
#include "ingest/pcap_reader.h"
#include "ingest/pcap_writer.h"
#include "trace/generators.h"
#include "trace/oracle.h"

namespace hk {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// Parameterized tests run as independent ctest entries that may execute
// concurrently, so the path must carry the param or the /pcap and /pcapng
// instances race on one file.
std::string TempPath(const std::string& name, PcapFormat format) {
  return TempPath(name + (format == PcapFormat::kPcap ? ".pcap" : ".pcapng"));
}

// The committed fixture parameters (see ingest_replay_test.cpp and
// ingest_stream_test.cpp for the SLL cooked-capture fixture).
ZipfTraceConfig CampusFixtureConfig() { return CampusConfig(4000, 31); }
ZipfTraceConfig CaidaFixtureConfig() { return CaidaConfig(3000, 47); }
ZipfTraceConfig SllFixtureConfig() { return CampusConfig(800, 77); }

CaptureSynthOptions FixtureSynthOptions(PcapFormat format) {
  CaptureSynthOptions options;
  options.file.format = format;
  options.vlan_every = 7;   // exercise the 802.1Q strip path
  options.ipv6_every = 5;   // exercise the IPv6 fold path
  return options;
}

struct ReadBack {
  std::unordered_map<FlowId, uint64_t> counts;
  std::vector<uint64_t> timestamps;
  IngestStats stats;
};

ReadBack ReadAll(const std::string& path, PcapKeyPolicy policy) {
  ReadBack result;
  PcapReader reader(policy);
  EXPECT_TRUE(reader.Open(path)) << reader.error();
  PacketRecord record;
  while (reader.Next(&record)) {
    ++result.counts[record.id];
    result.timestamps.push_back(record.timestamp_ns);
  }
  EXPECT_TRUE(reader.ok()) << reader.error();
  result.stats = reader.stats();
  return result;
}

void ExpectBitIdenticalCounts(const Oracle& oracle, const ReadBack& read) {
  ASSERT_EQ(oracle.num_flows(), read.counts.size());
  for (const auto& [id, count] : oracle.counts()) {
    const auto it = read.counts.find(id);
    ASSERT_NE(it, read.counts.end()) << "flow " << id << " lost in the capture";
    EXPECT_EQ(it->second, count) << "flow " << id;
  }
}

class RoundTripTest : public ::testing::TestWithParam<PcapFormat> {};

TEST_P(RoundTripTest, CampusFiveTupleCountsAndTimestampsAreBitExact) {
  const std::string path = TempPath("rt_campus", GetParam());
  CaptureSynthOptions options = FixtureSynthOptions(GetParam());
  CaptureSynthStats synth;
  const Trace trace = SynthesizeCapture(CampusFixtureConfig(), path, options, &synth);
  ASSERT_GT(trace.num_packets(), 0u);
  ASSERT_EQ(synth.packets, trace.num_packets());

  const ReadBack read = ReadAll(path, PcapKeyPolicy::kFiveTuple);
  EXPECT_EQ(read.stats.packets, trace.num_packets());
  EXPECT_EQ(read.stats.wire_bytes, synth.wire_bytes);
  EXPECT_EQ(read.stats.skipped_non_ip + read.stats.skipped_truncated +
                read.stats.skipped_other,
            0u);
  ExpectBitIdenticalCounts(Oracle(trace), read);

  ASSERT_EQ(read.timestamps.size(), trace.num_packets());
  for (size_t i = 0; i < read.timestamps.size(); ++i) {
    EXPECT_EQ(read.timestamps[i], options.start_ns + i * options.gap_ns) << i;
  }
}

TEST_P(RoundTripTest, CaidaAddrPairCountsAreBitExact) {
  const std::string path = TempPath("rt_caida", GetParam());
  const CaptureSynthOptions options = FixtureSynthOptions(GetParam());
  const Trace trace = SynthesizeCapture(CaidaFixtureConfig(), path, options);
  ASSERT_GT(trace.num_packets(), 0u);

  const ReadBack read = ReadAll(path, PcapKeyPolicy::kAddrPair);
  EXPECT_EQ(read.stats.packets, trace.num_packets());
  ExpectBitIdenticalCounts(Oracle(trace), read);
}

INSTANTIATE_TEST_SUITE_P(BothFormats, RoundTripTest,
                         ::testing::Values(PcapFormat::kPcap, PcapFormat::kPcapNg),
                         [](const auto& info) {
                           return info.param == PcapFormat::kPcap ? "pcap" : "pcapng";
                         });

TEST(RoundTripMicrosecondTest, MicrosecondFormatIsExactOnAlignedStamps) {
  const std::string path = TempPath("rt_micro.pcap");
  CaptureSynthOptions options;
  options.file.nanosecond = false;
  options.gap_ns = 2000;  // us-aligned: the coarser format loses nothing
  ZipfTraceConfig config = CampusFixtureConfig();
  config.num_packets = 500;
  const Trace trace = SynthesizeCapture(config, path, options);
  ASSERT_GT(trace.num_packets(), 0u);

  const ReadBack read = ReadAll(path, PcapKeyPolicy::kFiveTuple);
  ASSERT_EQ(read.timestamps.size(), trace.num_packets());
  for (size_t i = 0; i < read.timestamps.size(); ++i) {
    EXPECT_EQ(read.timestamps[i], options.start_ns + i * options.gap_ns) << i;
  }
  ExpectBitIdenticalCounts(Oracle(trace), read);
}

TEST(RoundTripPolicyTest, SrcOnlyPolicyAggregatesPerSource) {
  // Distinct 5-tuples sharing a source collapse to one src-only flow.
  const std::string path = TempPath("rt_src.pcap");
  PcapWriter writer;
  ASSERT_TRUE(writer.Open(path));
  FiveTuple t;
  t.src_ip = 0x0a000001;
  t.proto = 17;
  for (uint16_t port = 1; port <= 10; ++port) {
    t.dst_ip = 0x0a000100u + port;
    t.src_port = port;
    t.dst_port = 80;
    ASSERT_TRUE(writer.Write(t, 1000 * port, 100));
  }
  ASSERT_TRUE(writer.Close());

  const ReadBack five = ReadAll(path, PcapKeyPolicy::kFiveTuple);
  const ReadBack src = ReadAll(path, PcapKeyPolicy::kSrcOnly);
  EXPECT_EQ(five.counts.size(), 10u);
  ASSERT_EQ(src.counts.size(), 1u);
  EXPECT_EQ(src.counts.begin()->first, SrcOnlyId(0x0a000001));
  EXPECT_EQ(src.counts.begin()->second, 10u);
}

// Byte-swap a classic pcap in place (global header + record headers), so
// the reader sees a capture written on the other endianness.
std::vector<uint8_t> SwapClassic(std::vector<uint8_t> data) {
  auto bswap32 = [&](size_t off) {
    std::swap(data[off], data[off + 3]);
    std::swap(data[off + 1], data[off + 2]);
  };
  auto bswap16 = [&](size_t off) { std::swap(data[off], data[off + 1]); };
  auto load32 = [&](size_t off) {
    uint32_t v;
    std::memcpy(&v, data.data() + off, 4);
    return v;
  };
  bswap32(0);
  bswap16(4);
  bswap16(6);
  bswap32(8);
  bswap32(12);
  bswap32(16);
  bswap32(20);
  size_t off = 24;
  while (off + 16 <= data.size()) {
    const uint32_t caplen = load32(off + 8);
    bswap32(off);
    bswap32(off + 4);
    bswap32(off + 8);
    bswap32(off + 12);
    off += 16 + caplen;
  }
  return data;
}

std::vector<uint8_t> Slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  std::vector<uint8_t> data(static_cast<size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(data.data(), 1, data.size(), f), data.size());
  std::fclose(f);
  return data;
}

TEST(RoundTripEndiannessTest, SwappedClassicPcapParsesIdentically) {
  const std::string path = TempPath("rt_swap.pcap");
  ZipfTraceConfig config = CampusFixtureConfig();
  config.num_packets = 600;
  const Trace trace = SynthesizeCapture(config, path, CaptureSynthOptions{});
  ASSERT_GT(trace.num_packets(), 0u);

  const ReadBack native = ReadAll(path, PcapKeyPolicy::kFiveTuple);

  PcapReader swapped(PcapKeyPolicy::kFiveTuple);
  ASSERT_TRUE(swapped.OpenStream(MakeBufferByteSource(SwapClassic(Slurp(path)))));
  std::unordered_map<FlowId, uint64_t> counts;
  std::vector<uint64_t> timestamps;
  PacketRecord record;
  while (swapped.Next(&record)) {
    ++counts[record.id];
    timestamps.push_back(record.timestamp_ns);
  }
  EXPECT_TRUE(swapped.ok()) << swapped.error();
  EXPECT_EQ(counts, native.counts);
  EXPECT_EQ(timestamps, native.timestamps);
}

// HK_WRITE_PCAP_FIXTURES=1 regenerates the committed captures. Kept as a
// test so the fixtures can only ever be produced by the checked-in
// synthesis parameters.
TEST(PcapFixtures, RegenerateWhenRequested) {
  if (std::getenv("HK_WRITE_PCAP_FIXTURES") == nullptr) {
    GTEST_SKIP() << "set HK_WRITE_PCAP_FIXTURES=1 to rewrite tests/data fixtures";
  }
  const std::string dir = HK_TEST_DATA_DIR;
  {
    const Trace trace = SynthesizeCapture(CampusFixtureConfig(), dir + "/fixture_campus.pcap",
                                          FixtureSynthOptions(PcapFormat::kPcap));
    ASSERT_GT(trace.num_packets(), 0u);
  }
  {
    const Trace trace = SynthesizeCapture(CaidaFixtureConfig(), dir + "/fixture_caida.pcapng",
                                          FixtureSynthOptions(PcapFormat::kPcapNg));
    ASSERT_GT(trace.num_packets(), 0u);
  }
  {
    CaptureSynthOptions options = FixtureSynthOptions(PcapFormat::kPcap);
    options.file.link_type = pcapfmt::kLinkTypeSll;
    const Trace trace =
        SynthesizeCapture(SllFixtureConfig(), dir + "/fixture_sll.pcap", options);
    ASSERT_GT(trace.num_packets(), 0u);
  }
}

}  // namespace
}  // namespace hk
