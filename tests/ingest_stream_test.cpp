// PcapReader over a ByteSource (the hk_serve ingest contract): pulling a
// capture in arbitrarily small chunks, from a file or across a pipe, must
// yield the packet stream of one read of the whole capture handed over in
// a single buffer (its "slurp" here), bit for bit, for both container
// formats; and that read must be the trace the capture was synthesized
// from. Plus the framings and failure modes: Linux cooked capture (SLL
// v1/v2, the `tcpdump -i any` linktype), gzip detection with a targeted
// error, and truncated streams.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ingest/byte_source.h"
#include "ingest/capture_synth.h"
#include "ingest/pcap_reader.h"
#include "ingest/pcap_writer.h"
#include "trace/generators.h"
#include "trace/oracle.h"

#ifndef HK_TEST_DATA_DIR
#define HK_TEST_DATA_DIR "tests/data"
#endif

namespace hk {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<uint8_t> Slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::fseek(f, 0, SEEK_END);
  std::vector<uint8_t> data(static_cast<size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(data.data(), 1, data.size(), f), data.size());
  std::fclose(f);
  return data;
}

struct StreamResult {
  std::vector<FlowId> ids;
  std::vector<uint64_t> timestamps;
  IngestStats stats;
  bool ok = false;
  std::string error;
};

StreamResult Drain(PcapReader& reader) {
  StreamResult result;
  PacketRecord record;
  while (reader.Next(&record)) {
    result.ids.push_back(record.id);
    result.timestamps.push_back(record.timestamp_ns);
  }
  result.stats = reader.stats();
  result.ok = reader.ok();
  result.error = reader.error();
  return result;
}

// A synthesized capture and the trace it was written from.
struct Capture {
  std::string path;
  Trace trace;
};

Capture MakeCapture(PcapFormat format, const std::string& name, uint32_t packets = 1200) {
  Capture capture{TempPath(name), {}};
  CaptureSynthOptions options;
  options.file.format = format;
  options.vlan_every = 7;
  options.ipv6_every = 5;
  ZipfTraceConfig config = CampusConfig(packets, 31);
  capture.trace = SynthesizeCapture(config, capture.path, options);
  EXPECT_GT(capture.trace.num_packets(), 0u);
  return capture;
}

// The reference stream: the whole capture handed over in one buffer, which
// must be the synthesized trace itself - its ids in order, and the
// synthesizer's timestamps (start_ns + i * gap_ns).
StreamResult ReadSlurp(const Capture& capture) {
  PcapReader reader;
  EXPECT_TRUE(reader.OpenStream(MakeBufferByteSource(Slurp(capture.path), 0))) << reader.error();
  StreamResult result = Drain(reader);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.ids, capture.trace.packets);
  const CaptureSynthOptions synth;
  std::vector<uint64_t> timestamps(capture.trace.packets.size());
  for (size_t i = 0; i < timestamps.size(); ++i) {
    timestamps[i] = synth.start_ns + i * synth.gap_ns;
  }
  EXPECT_EQ(result.timestamps, timestamps);
  EXPECT_EQ(result.stats.packets, capture.trace.num_packets());
  return result;
}

class StreamEquivalenceTest : public ::testing::TestWithParam<PcapFormat> {};

TEST_P(StreamEquivalenceTest, ChunkedSourceMatchesSlurpAtEveryChunkSize) {
  const Capture capture =
      MakeCapture(GetParam(), GetParam() == PcapFormat::kPcap ? "st_eq.pcap" : "st_eq.pcapng");
  const StreamResult expect = ReadSlurp(capture);
  ASSERT_TRUE(expect.ok) << expect.error;
  ASSERT_GT(expect.ids.size(), 0u);

  const std::vector<uint8_t> bytes = Slurp(capture.path);
  for (const size_t chunk : {size_t{1}, size_t{3}, size_t{7}, size_t{64}, size_t{4096}}) {
    PcapReader reader;
    ASSERT_TRUE(reader.OpenStream(MakeBufferByteSource(bytes, chunk)))
        << "chunk " << chunk << ": " << reader.error();
    const StreamResult got = Drain(reader);
    EXPECT_TRUE(got.ok) << "chunk " << chunk << ": " << got.error;
    EXPECT_EQ(got.ids, expect.ids) << "chunk " << chunk;
    EXPECT_EQ(got.timestamps, expect.timestamps) << "chunk " << chunk;
    EXPECT_EQ(got.stats.packets, expect.stats.packets);
    EXPECT_EQ(got.stats.wire_bytes, expect.stats.wire_bytes);
  }
}

TEST_P(StreamEquivalenceTest, FileSourceMatchesSlurp) {
  const Capture capture =
      MakeCapture(GetParam(), GetParam() == PcapFormat::kPcap ? "st_f.pcap" : "st_f.pcapng");
  const StreamResult expect = ReadSlurp(capture);

  PcapReader reader;
  ASSERT_TRUE(reader.Open(capture.path)) << reader.error();
  const StreamResult got = Drain(reader);
  EXPECT_TRUE(got.ok) << got.error;
  EXPECT_EQ(got.ids, expect.ids);
  EXPECT_EQ(got.timestamps, expect.timestamps);
  EXPECT_EQ(got.stats.wire_bytes, expect.stats.wire_bytes);
}

INSTANTIATE_TEST_SUITE_P(BothFormats, StreamEquivalenceTest,
                         ::testing::Values(PcapFormat::kPcap, PcapFormat::kPcapNg),
                         [](const auto& info) {
                           return info.param == PcapFormat::kPcap ? "pcap" : "pcapng";
                         });

TEST(StreamPipeTest, ReadsAcrossAPipeFedInSmallBursts) {
  // The daemon's stdin/socket shape: a writer thread dribbles the capture
  // through a pipe while the reader blocks in Refill.
  const Capture capture = MakeCapture(PcapFormat::kPcap, "st_pipe.pcap", 600);
  const StreamResult expect = ReadSlurp(capture);

  const std::vector<uint8_t> bytes = Slurp(capture.path);
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::thread feeder([&bytes, fd = fds[1]] {
    size_t pos = 0;
    while (pos < bytes.size()) {
      const size_t n = std::min<size_t>(1024, bytes.size() - pos);
      const ssize_t wrote = ::write(fd, bytes.data() + pos, n);
      ASSERT_GT(wrote, 0);
      pos += static_cast<size_t>(wrote);
    }
    ::close(fd);
  });

  PcapReader reader;
  ASSERT_TRUE(reader.OpenStream(MakeFdByteSource(fds[0], /*own_fd=*/true)))
      << reader.error();
  const StreamResult got = Drain(reader);
  feeder.join();
  EXPECT_TRUE(got.ok) << got.error;
  EXPECT_EQ(got.ids, expect.ids);
}

TEST(StreamTruncationTest, StreamEndingMidRecordIsMalformedNotEof) {
  std::vector<uint8_t> bytes = Slurp(MakeCapture(PcapFormat::kPcap, "st_cut.pcap", 200).path);
  bytes.resize(bytes.size() - 5);  // cut inside the final record's payload

  PcapReader reader;
  ASSERT_TRUE(reader.OpenStream(MakeBufferByteSource(bytes, 11)));
  const StreamResult got = Drain(reader);
  EXPECT_FALSE(got.ok);
  EXPECT_NE(got.error.find("overruns"), std::string::npos) << got.error;
  EXPECT_GT(got.stats.packets, 0u);  // everything before the cut was yielded
}

TEST(StreamOpenTest, MissingFileAndNullSourceFailCleanly) {
  PcapReader reader;
  EXPECT_FALSE(reader.OpenStream(MakeFileByteSource(TempPath("st_nope.pcap"))));
  EXPECT_FALSE(reader.ok());
  PcapReader null_reader;
  EXPECT_FALSE(null_reader.OpenStream(nullptr));
}

TEST(GzipTest, GzipMagicIsRefusedWithATargetedError) {
  // A gzip stream: magic 1f 8b, deflate method, then whatever - the reader
  // must name the remedy instead of reporting a generic bad magic.
  std::vector<uint8_t> gz = {0x1f, 0x8b, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03};
  gz.resize(64, 0);

  PcapReader buffered;
  EXPECT_FALSE(buffered.OpenStream(MakeBufferByteSource(gz)));
  EXPECT_NE(buffered.error().find("gzip"), std::string::npos) << buffered.error();
  EXPECT_NE(buffered.error().find("zcat"), std::string::npos) << buffered.error();

  const std::string path = TempPath("st_gz.pcap.gz");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(gz.data(), 1, gz.size(), f), gz.size());
  std::fclose(f);
  PcapReader from_file;
  EXPECT_FALSE(from_file.Open(path));
  EXPECT_NE(from_file.error().find("zcat"), std::string::npos) << from_file.error();

  PcapReader streamed;
  EXPECT_FALSE(streamed.OpenStream(MakeBufferByteSource(gz, 1)));
  EXPECT_NE(streamed.error().find("zcat"), std::string::npos) << streamed.error();
}

// ---------------------------------------------------------------------------
// Linux cooked capture (SLL v1 linktype 113, SLL2 linktype 276).

class SllRoundTripTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(SllRoundTripTest, CookedCaptureCountsMatchTheOracle) {
  const uint32_t link_type = GetParam();
  const std::string path = TempPath("st_sll_" + std::to_string(link_type) + ".pcap");
  CaptureSynthOptions options;
  options.file.link_type = link_type;
  options.vlan_every = 7;  // VLAN strip must compose with the cooked header
  options.ipv6_every = 5;
  ZipfTraceConfig config = CampusConfig(1500, 31);
  const Trace trace = SynthesizeCapture(config, path, options);
  ASSERT_GT(trace.num_packets(), 0u);

  PcapReader reader(PcapKeyPolicy::kFiveTuple);
  ASSERT_TRUE(reader.Open(path)) << reader.error();
  std::unordered_map<FlowId, uint64_t> counts;
  PacketRecord record;
  while (reader.Next(&record)) {
    ++counts[record.id];
  }
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(reader.stats().packets, trace.num_packets());
  const Oracle oracle(trace);
  ASSERT_EQ(oracle.num_flows(), counts.size());
  for (const auto& [id, count] : oracle.counts()) {
    EXPECT_EQ(counts[id], count) << "flow " << id;
  }
}

TEST_P(SllRoundTripTest, CookedPcapngParsesToo) {
  const uint32_t link_type = GetParam();
  const std::string path = TempPath("st_sllng_" + std::to_string(link_type) + ".pcapng");
  CaptureSynthOptions options;
  options.file.format = PcapFormat::kPcapNg;
  options.file.link_type = link_type;
  ZipfTraceConfig config = CampusConfig(400, 31);
  const Trace trace = SynthesizeCapture(config, path, options);
  ASSERT_GT(trace.num_packets(), 0u);

  PcapReader reader;
  ASSERT_TRUE(reader.Open(path)) << reader.error();
  const StreamResult got = Drain(reader);
  EXPECT_TRUE(got.ok) << got.error;
  EXPECT_EQ(got.stats.packets, trace.num_packets());
}

INSTANTIATE_TEST_SUITE_P(BothVersions, SllRoundTripTest,
                         ::testing::Values(pcapfmt::kLinkTypeSll, pcapfmt::kLinkTypeSll2),
                         [](const auto& info) {
                           return info.param == pcapfmt::kLinkTypeSll ? "sll" : "sll2";
                         });

TEST(SllTruncationTest, ShortCookedHeaderIsSkippedNotParsed) {
  // Hand-build a classic pcap (SLL linktype) holding one 10-byte record -
  // shorter than the 16-byte cooked header - and one valid SLL frame.
  const std::string path = TempPath("st_sll_cut.pcap");
  {
    PcapWriterOptions options;
    options.link_type = pcapfmt::kLinkTypeSll;
    PcapWriter writer;
    ASSERT_TRUE(writer.Open(path, options));
    FiveTuple t;
    t.src_ip = 0x0a000001;
    t.dst_ip = 0x0a000002;
    t.src_port = 1234;
    t.dst_port = 80;
    t.proto = 6;
    ASSERT_TRUE(writer.Write(t, 1000, 100));
    ASSERT_TRUE(writer.Close());
  }
  std::vector<uint8_t> bytes = Slurp(path);
  // Append a record header claiming caplen 10 + 10 junk bytes.
  const uint8_t short_rec[16] = {0, 0, 0, 0, 0, 0, 0, 0, 10, 0, 0, 0, 10, 0, 0, 0};
  bytes.insert(bytes.end(), short_rec, short_rec + 16);
  bytes.resize(bytes.size() + 10, 0xee);

  PcapReader reader;
  ASSERT_TRUE(reader.OpenStream(MakeBufferByteSource(bytes)));
  const StreamResult got = Drain(reader);
  EXPECT_TRUE(got.ok) << got.error;
  EXPECT_EQ(got.stats.packets, 1u);
  EXPECT_EQ(got.stats.skipped_truncated, 1u);
}

TEST(SllFixtureTest, CommittedCookedFixtureParses) {
  const std::string path = std::string(HK_TEST_DATA_DIR) + "/fixture_sll.pcap";
  PcapReader reader(PcapKeyPolicy::kFiveTuple);
  ASSERT_TRUE(reader.Open(path)) << reader.error();
  const StreamResult got = Drain(reader);
  EXPECT_TRUE(got.ok) << got.error;
  EXPECT_EQ(got.stats.packets, 800u);
  EXPECT_EQ(got.stats.skipped_non_ip + got.stats.skipped_truncated + got.stats.skipped_other,
            0u);
}

}  // namespace
}  // namespace hk
