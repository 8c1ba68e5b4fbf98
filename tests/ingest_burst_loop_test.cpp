// RunBurstLoop (ingest/burst_loop.h), the one capture-to-sketch burst loop:
// a replay through it leaves every registered sketch byte-equal to a
// serial NextBatch + InsertBatch reference, whether the loop parses ahead
// on its own thread or inline; its bursts and recovery skip cut the
// capture exactly as NextBatch does; and the stop flag and an exception
// from apply or from the parse both end it with the parse thread joined
// (a parse exception is rethrown on the calling thread). The capture's
// length is not a multiple of the burst, so every run ends on a short one.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ingest/burst_loop.h"
#include "ingest/byte_source.h"
#include "ingest/capture_synth.h"
#include "ingest/pcap_reader.h"
#include "ingest/trace_replayer.h"
#include "sketch/registry.h"
#include "trace/generators.h"

namespace hk {
namespace {

constexpr size_t kBatch = 512;
constexpr uint64_t kPackets = 20011;  // 39 full bursts and a short one of 43
constexpr const char kThreaded[] = "Sharded:n=2,threads=1,inner=HK-Minimum";

// Synthesized once per process; the name carries the pid because ctest
// runs several test processes at once.
struct Capture {
  Capture() : path(::testing::TempDir() + "/burst_loop_" + std::to_string(::getpid()) + ".pcap") {
    SynthesizeCapture(CampusConfig(kPackets, 19), path, CaptureSynthOptions{});
    PcapReader reader(PcapKeyPolicy::kFiveTuple);
    EXPECT_TRUE(reader.Open(path)) << reader.error();
    PacketRecord record;
    while (reader.Next(&record)) {
      ids.push_back(record.id);
    }
  }
  ~Capture() { std::remove(path.c_str()); }

  std::string path;
  std::vector<FlowId> ids;  // the capture's flow ids, in order
};

const Capture& TheCapture() {
  static const Capture capture;
  return capture;
}

SketchDefaults Defaults() {
  SketchDefaults d;
  d.memory_bytes = 50 * 1024;
  d.k = 20;
  d.key_kind = KeyKind::kFiveTuple13B;
  d.seed = 9;
  return d;
}

PcapReader OpenCapture() {
  PcapReader reader(PcapKeyPolicy::kFiveTuple);
  EXPECT_TRUE(reader.Open(TheCapture().path)) << reader.error();
  return reader;
}

std::vector<uint8_t> FinalState(const TopKAlgorithm& algo) {
  std::vector<uint8_t> state;
  EXPECT_TRUE(algo.SaveState(&state)) << algo.name();
  return state;
}

// The loop's behaviour, spelled out without it: NextBatch bursts applied
// one after the other on one thread.
std::vector<uint8_t> SerialReference(const std::string& spec) {
  auto algo = MakeSketch(spec, Defaults());
  PcapReader reader = OpenCapture();
  std::vector<PacketRecord> records(kBatch);
  std::vector<FlowId> ids(kBatch);
  for (size_t n = reader.NextBatch(records); n > 0; n = reader.NextBatch(records)) {
    for (size_t i = 0; i < n; ++i) {
      ids[i] = records[i].id;
    }
    algo->InsertBatch(std::span<const FlowId>(ids.data(), n));
  }
  algo->Flush();
  return FinalState(*algo);
}

TEST(IngestBurstLoop, ReplayEqualsSerialReferenceForEverySpec) {
  ASSERT_EQ(TheCapture().ids.size(), kPackets);
  std::vector<std::string> specs = RegisteredSketches();
  specs.push_back(kThreaded);
  for (const std::string& spec : specs) {
    SCOPED_TRACE(spec);
    auto algo = MakeSketch(spec, Defaults());
    // Registered names build synchronous sketches, which parse ahead; the
    // threaded front-end parses inline.
    EXPECT_EQ(ParsesAhead(*algo), spec != kThreaded);
    PcapReader reader = OpenCapture();
    const ReplayStats stats = TraceReplayer().Replay(reader, *algo);
    EXPECT_EQ(stats.packets, kPackets);
    EXPECT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(FinalState(*algo), SerialReference(spec));
  }
}

TEST(IngestBurstLoop, BurstsAndSkipCutAsNextBatchDoes) {
  const std::vector<FlowId>& all = TheCapture().ids;
  const uint64_t skips[] = {0, 700, 1024, kPackets - 5, kPackets, kPackets + 9};
  for (const char* spec : {"HK-Minimum", kThreaded}) {
    auto target = MakeSketch(spec, Defaults());
    for (const uint64_t skip : skips) {
      SCOPED_TRACE(std::string(spec) + " skip " + std::to_string(skip));
      PcapReader reader = OpenCapture();
      std::vector<size_t> sizes;
      std::vector<FlowId> ids;
      BurstLoopOptions options;
      options.batch = kBatch;
      options.skip = skip;
      RunBurstLoop(reader, *target, options, [&](const ParsedBurst& burst) {
        sizes.push_back(burst.records.size());
        EXPECT_EQ(burst.malformed, 0u);
        for (const PacketRecord& record : burst.records) {
          ids.push_back(record.id);
        }
      });
      EXPECT_TRUE(reader.ok()) << reader.error();
      const size_t first = static_cast<size_t>(std::min<uint64_t>(skip, kPackets));
      EXPECT_EQ(ids, std::vector<FlowId>(all.begin() + static_cast<ptrdiff_t>(first), all.end()));
      // Full bursts from right after the skip, then one short one.
      for (size_t i = 0; i + 1 < sizes.size(); ++i) {
        EXPECT_EQ(sizes[i], kBatch) << "burst " << i;
      }
      if (!sizes.empty()) {
        EXPECT_EQ(sizes.back(), (ids.size() - 1) % kBatch + 1);
      }
    }
  }
}

TEST(IngestBurstLoop, StopFlagEndsTheLoopBetweenBursts) {
  for (const char* spec : {"HK-Minimum", kThreaded}) {
    SCOPED_TRACE(spec);
    auto target = MakeSketch(spec, Defaults());
    PcapReader reader = OpenCapture();
    std::atomic<bool> stop{false};
    BurstLoopOptions options;
    options.stop = &stop;
    size_t bursts = 0;
    RunBurstLoop(reader, *target, options, [&](const ParsedBurst&) {
      if (++bursts == 3) {
        stop.store(true, std::memory_order_release);
      }
    });
    EXPECT_EQ(bursts, 3u);
    // The parser stopped too, a few bursts ahead at most.
    EXPECT_LE(reader.stats().packets, (3 + kAheadBursts + 2) * options.batch);
  }
}

TEST(IngestBurstLoop, ExceptionFromApplyJoinsTheParser) {
  for (const char* spec : {"HK-Minimum", kThreaded}) {
    SCOPED_TRACE(spec);
    auto target = MakeSketch(spec, Defaults());
    PcapReader reader = OpenCapture();
    size_t bursts = 0;
    const auto apply = [&](const ParsedBurst&) {
      if (++bursts == 2) {
        throw std::runtime_error("apply failed");
      }
    };
    EXPECT_THROW(RunBurstLoop(reader, *target, BurstLoopOptions{}, apply), std::runtime_error);
    EXPECT_EQ(bursts, 2u);
    // The reader is the caller's again: no thread is still parsing it.
    const uint64_t parsed = reader.stats().packets;
    PacketRecord record;
    EXPECT_TRUE(reader.Next(&record));
    EXPECT_EQ(reader.stats().packets, parsed + 1);
  }
}

// Serves a capture's first `limit` bytes, then throws from Read.
class FailingSource : public ByteSource {
 public:
  FailingSource(std::vector<uint8_t> bytes, size_t limit)
      : bytes_(std::move(bytes)), limit_(std::min(limit, bytes_.size())) {}

  size_t Read(uint8_t* out, size_t max_bytes) override {
    if (pos_ == limit_) {
      throw std::runtime_error("source failed");
    }
    const size_t n = std::min(max_bytes, limit_ - pos_);
    std::memcpy(out, bytes_.data() + pos_, n);
    pos_ += n;
    return n;
  }

 private:
  std::vector<uint8_t> bytes_;
  size_t limit_;
  size_t pos_ = 0;
};

TEST(IngestBurstLoop, ExceptionFromParseReachesTheCaller) {
  std::ifstream in(TheCapture().path, std::ios::binary);
  const std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  ASSERT_GT(bytes.size(), size_t{64} * 1024);
  for (const char* spec : {"HK-Minimum", kThreaded}) {
    SCOPED_TRACE(spec);
    auto target = MakeSketch(spec, Defaults());
    PcapReader reader(PcapKeyPolicy::kFiveTuple);
    ASSERT_TRUE(reader.OpenStream(std::make_unique<FailingSource>(bytes, 64 * 1024)));
    size_t applied = 0;
    const auto apply = [&](const ParsedBurst& burst) { applied += burst.records.size(); };
    EXPECT_THROW(RunBurstLoop(reader, *target, BurstLoopOptions{}, apply), std::runtime_error);
    // Every burst parsed before the failure was applied, in full.
    EXPECT_EQ(applied % kBatch, 0u);
    EXPECT_LT(applied, kPackets);
  }
}

}  // namespace
}  // namespace hk
