// Checkpoint durability tests: (1) the SaveState/LoadState round trip is
// exact for every registered sketch - a recovered daemon answers queries
// identically to the one that crashed; (2) the manifest file format
// rejects every species of corruption a crash can mint (torn tail,
// truncation, bit flips, foreign bytes) instead of loading garbage; (3)
// the bytes on disk are pinned: Crc32 and both of its kernels equal the
// bitwise definition, a committed checkpoint file is reproduced byte for
// byte by both writers, and one in the older sketch format still restores.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/byte_io.h"
#include "common/random.h"
#include "core/hk_topk.h"
#include "ingest/pcap_reader.h"
#include "serve/checkpoint.h"
#include "simd/crc32_fold.h"
#include "sketch/registry.h"
#include "trace/generators.h"

namespace hk {
namespace {

#ifndef HK_TEST_DATA_DIR
#define HK_TEST_DATA_DIR "tests/data"
#endif

SketchDefaults SmallDefaults() {
  SketchDefaults d;
  d.memory_bytes = 20 * 1024;
  d.k = 50;
  d.key_kind = KeyKind::kFiveTuple13B;
  d.seed = 1;
  return d;
}

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

void WriteFileBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

// ---------------------------------------------------------------------------
// Crc32 against its definition: the reflected 0xEDB88320 polynomial one bit
// at a time, which is what every checkpoint CRC on disk was computed with.

uint32_t BitwiseCrc32(const uint8_t* data, size_t size, uint32_t seed = 0) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0xedb88320u : 0u);
    }
  }
  return ~crc;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  return bytes;
}

TEST(Crc32, KnownAnswer) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(check.data()), check.size()), 0xcbf43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  // Lengths 0..300 from start offsets 0..7 cover every alignment of the
  // 8-byte inner loop and every tail length.
  const std::vector<uint8_t> bytes = RandomBytes(300 + 8, 11);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 300; ++len) {
      ASSERT_EQ(Crc32(bytes.data() + offset, len), BitwiseCrc32(bytes.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, ChainsAcrossSplits) {
  // The piecewise checkpoint writer relies on Crc32(b, Crc32(a)) being
  // Crc32(a || b) wherever the pieces split.
  const std::vector<uint8_t> bytes = RandomBytes(300, 12);
  const uint32_t whole = Crc32(bytes);
  ASSERT_EQ(whole, BitwiseCrc32(bytes.data(), bytes.size()));
  for (size_t split = 0; split <= bytes.size(); ++split) {
    const uint32_t head = Crc32(bytes.data(), split);
    ASSERT_EQ(Crc32(bytes.data() + split, bytes.size() - split, head), whole) << "split " << split;
  }
}

// Both kernels Crc32 can pick, called directly: the slicing-by-8 tables
// and, on a host with PCLMULQDQ, the carry-less-multiply fold.
using simd::Crc32Kernel;

void ExpectBitwiseAtEveryLengthOffsetAndSeed(Crc32Kernel kernel) {
  // Lengths 0..1100 from offsets 0..63 cover the fold's 64- and 16-byte
  // blocks at every alignment, the table's short inputs and every tail.
  const std::vector<uint8_t> bytes = RandomBytes(1100 + 64, 13);
  Rng seeds(14);
  for (size_t offset = 0; offset < 64; ++offset) {
    for (size_t len = 0; len <= 1100; ++len) {
      const uint8_t* data = bytes.data() + offset;
      const auto seed = static_cast<uint32_t>(seeds.NextU64());
      ASSERT_EQ(kernel(data, len, seed), BitwiseCrc32(data, len, seed))
          << "offset " << offset << " length " << len << " seed " << seed;
    }
  }
}

void ExpectChainsAroundBlockBoundaries(Crc32Kernel head_kernel, Crc32Kernel tail_kernel) {
  // Splits one byte before, at and after every 16- and 64-byte boundary.
  const std::vector<uint8_t> bytes = RandomBytes(1100, 15);
  const uint32_t whole = BitwiseCrc32(bytes.data(), bytes.size());
  for (size_t boundary = 16; boundary < bytes.size(); boundary += 16) {
    for (const size_t split : {boundary - 1, boundary, boundary + 1}) {
      const uint32_t head = head_kernel(bytes.data(), split, 0);
      ASSERT_EQ(tail_kernel(bytes.data() + split, bytes.size() - split, head), whole)
          << "split " << split;
    }
  }
}

TEST(Crc32, TablePathMatchesBitwiseReference) {
  ExpectBitwiseAtEveryLengthOffsetAndSeed(&Crc32Table);
  ExpectChainsAroundBlockBoundaries(&Crc32Table, &Crc32Table);
}

TEST(Crc32, FoldPathMatchesBitwiseReference) {
  if (!simd::Crc32FoldAvailable()) {
    GTEST_SKIP() << "the host has no PCLMULQDQ";
  }
  ExpectBitwiseAtEveryLengthOffsetAndSeed(&simd::Crc32Fold);
  ExpectChainsAroundBlockBoundaries(&simd::Crc32Fold, &simd::Crc32Fold);
  // A checkpoint written under one kernel verifies under the other.
  ExpectChainsAroundBlockBoundaries(&Crc32Table, &simd::Crc32Fold);
  ExpectChainsAroundBlockBoundaries(&simd::Crc32Fold, &Crc32Table);
}

TEST(Crc32, BothPathsAgreeOnACheckpointSizedBuffer) {
  if (!simd::Crc32FoldAvailable()) {
    GTEST_SKIP() << "the host has no PCLMULQDQ";
  }
  // About e2ebench caida-sharded's state, with a tail the fold leaves to
  // the tables.
  const std::vector<uint8_t> bytes = RandomBytes(33'554'432 + 4'109, 16);
  const uint32_t table = Crc32Table(bytes.data(), bytes.size());
  EXPECT_EQ(simd::Crc32Fold(bytes.data(), bytes.size()), table);
  EXPECT_EQ(Crc32(bytes), table);
}

TEST(Crc32, EveryFlippedBitOfALargePayloadFailsTheCheck) {
  // One bit flipped at 256 places spread over a 1 MiB state, at every
  // offset mod 64 from the payload's start: each must fail the CRC.
  CheckpointManifest manifest;
  CheckpointInstance inst;
  inst.name = "flip";
  inst.spec = "SS";
  inst.state = RandomBytes(1 << 20, 17);
  manifest.instances.push_back(std::move(inst));
  std::vector<uint8_t> file = EncodeCheckpoint(manifest);
  // Magic, version, payload length, CRC.
  constexpr size_t kHeaderBytes = sizeof(uint64_t) + sizeof(uint32_t) + sizeof(uint64_t) +
                                  sizeof(uint32_t);
  std::set<size_t> residues;
  for (size_t i = 0; i < 256; ++i) {
    const size_t at = i * 4093;  // an odd stride: i * 4093 hits every residue mod 64
    residues.insert(at % 64);
    const uint8_t bit = static_cast<uint8_t>(1u << (i % 8));
    file[kHeaderBytes + at] ^= bit;
    CheckpointManifest out;
    std::vector<std::span<const uint8_t>> states;
    std::string err;
    EXPECT_FALSE(DecodeCheckpoint(file.data(), file.size(), &out, &states, &err))
        << "flip at " << at;
    EXPECT_NE(err.find("failed CRC"), std::string::npos) << "flip at " << at << ": " << err;
    file[kHeaderBytes + at] ^= bit;
  }
  EXPECT_EQ(residues.size(), 64u);
  CheckpointManifest out;
  std::vector<std::span<const uint8_t>> states;
  EXPECT_TRUE(DecodeCheckpoint(file.data(), file.size(), &out, &states, nullptr));
}

// ---------------------------------------------------------------------------
// Registry-wide SaveState/LoadState round trip.

class CheckpointSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(CheckpointSweep, SaveLoadRoundTripIsExact) {
  const SketchDefaults defaults = SmallDefaults();
  auto saved = MakeSketch(GetParam(), defaults);
  ASSERT_NE(saved, nullptr);

  const Trace trace = MakeCampusTrace(60000, 3);
  saved->InsertBatch(trace.packets);
  saved->Flush();

  std::vector<uint8_t> blob;
  ASSERT_TRUE(saved->SaveState(&blob)) << GetParam() << " does not support checkpointing";
  ASSERT_FALSE(blob.empty()) << GetParam();

  // Fresh identical-spec instance, per the LoadState contract.
  auto loaded = MakeSketch(saved->name(), defaults);
  ASSERT_NE(loaded, nullptr);
  ASSERT_TRUE(loaded->LoadState(blob.data(), blob.size())) << GetParam();

  QueryOptions exact;
  exact.k = 30;
  const QueryResult a = saved->Snapshot(exact);
  const QueryResult b = loaded->Snapshot(exact);
  EXPECT_EQ(a.flows, b.flows) << GetParam();
  EXPECT_EQ(a.stats.tracked_flows, b.stats.tracked_flows) << GetParam();
  EXPECT_EQ(a.stats.min_tracked, b.stats.min_tracked) << GetParam();

  for (const auto& fc : a.flows) {
    EXPECT_EQ(saved->EstimateSize(fc.id), loaded->EstimateSize(fc.id)) << GetParam();
  }
  // A flow the trace never produced must stay a mouse on both sides.
  EXPECT_EQ(saved->EstimateSize(0xdeadbeefcafef00dULL),
            loaded->EstimateSize(0xdeadbeefcafef00dULL))
      << GetParam();
}

TEST_P(CheckpointSweep, LoadRejectsTruncatedBlobWithoutMutating) {
  const SketchDefaults defaults = SmallDefaults();
  auto saved = MakeSketch(GetParam(), defaults);
  const Trace trace = MakeCampusTrace(20000, 4);
  saved->InsertBatch(trace.packets);
  saved->Flush();

  std::vector<uint8_t> blob;
  ASSERT_TRUE(saved->SaveState(&blob));

  auto fresh = MakeSketch(saved->name(), defaults);
  EXPECT_FALSE(fresh->LoadState(blob.data(), blob.size() / 2)) << GetParam();
  EXPECT_FALSE(fresh->LoadState(blob.data(), 3)) << GetParam();
  // Trailing garbage must also be rejected - the blob is length-framed by
  // its container, so extra bytes mean the frame was torn.
  std::vector<uint8_t> padded = blob;
  padded.push_back(0x5a);
  EXPECT_FALSE(fresh->LoadState(padded.data(), padded.size())) << GetParam();

  // The failed loads left the instance usable and empty.
  EXPECT_TRUE(fresh->TopK(10).empty()) << GetParam();
  ASSERT_TRUE(fresh->LoadState(blob.data(), blob.size())) << GetParam();
  EXPECT_EQ(fresh->TopK(10), saved->TopK(10)) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, CheckpointSweep,
                         ::testing::ValuesIn(RegisteredSketches()), [](const auto& info) {
                           std::string s = info.param;
                           for (auto& c : s) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return s;
                         });

// ---------------------------------------------------------------------------
// Manifest file format.

CheckpointManifest SampleManifest() {
  CheckpointManifest m;
  CheckpointInstance a;
  a.name = "campus";
  a.spec = "HK:mem=32KB,k=40";
  a.memory_bytes = 32 * 1024;
  a.k = 40;
  a.key_kind = static_cast<uint8_t>(KeyKind::kFiveTuple13B);
  a.seed = 7;
  a.source = "/captures/campus.pcap";
  a.source_key_policy = 0;
  a.byte_weighted = 1;
  a.packets_applied = 123456;
  a.state = {1, 2, 3, 4, 5, 6, 7, 8};
  CheckpointInstance b;
  b.name = "edge";
  b.spec = "Concurrent:inner=HK-Basic";
  b.state = std::vector<uint8_t>(300, 0xab);
  m.instances = {a, b};
  return m;
}

// `y` as decoded: its state blobs are the views in `y_states`.
void ExpectEqualManifests(const CheckpointManifest& x, const CheckpointManifest& y,
                          const std::vector<std::span<const uint8_t>>& y_states) {
  ASSERT_EQ(x.instances.size(), y.instances.size());
  ASSERT_EQ(x.instances.size(), y_states.size());
  for (size_t i = 0; i < x.instances.size(); ++i) {
    const auto& p = x.instances[i];
    const auto& q = y.instances[i];
    EXPECT_EQ(p.name, q.name);
    EXPECT_EQ(p.spec, q.spec);
    EXPECT_EQ(p.memory_bytes, q.memory_bytes);
    EXPECT_EQ(p.k, q.k);
    EXPECT_EQ(p.key_kind, q.key_kind);
    EXPECT_EQ(p.seed, q.seed);
    EXPECT_EQ(p.source, q.source);
    EXPECT_EQ(p.source_key_policy, q.source_key_policy);
    EXPECT_EQ(p.byte_weighted, q.byte_weighted);
    EXPECT_EQ(p.packets_applied, q.packets_applied);
    EXPECT_TRUE(std::ranges::equal(p.state, y_states[i]));
    EXPECT_TRUE(q.state.empty());
  }
}

TEST(CheckpointFormat, EncodeDecodeRoundTrip) {
  const CheckpointManifest m = SampleManifest();
  const std::vector<uint8_t> bytes = EncodeCheckpoint(m);
  CheckpointManifest out;
  std::vector<std::span<const uint8_t>> states;
  std::string err;
  ASSERT_TRUE(DecodeCheckpoint(bytes.data(), bytes.size(), &out, &states, &err)) << err;
  ExpectEqualManifests(m, out, states);
}

TEST(CheckpointFormat, EmptyManifestRoundTrips) {
  const std::vector<uint8_t> bytes = EncodeCheckpoint(CheckpointManifest{});
  CheckpointManifest out;
  std::vector<std::span<const uint8_t>> states;
  ASSERT_TRUE(DecodeCheckpoint(bytes.data(), bytes.size(), &out, &states, nullptr));
  EXPECT_TRUE(out.instances.empty());
}

TEST(CheckpointFormat, RejectsEveryTruncationPoint) {
  const std::vector<uint8_t> bytes = EncodeCheckpoint(SampleManifest());
  // A crash can tear the file at any byte; no prefix may load.
  for (size_t len = 0; len < bytes.size(); ++len) {
    CheckpointManifest out;
    std::vector<std::span<const uint8_t>> states;
    EXPECT_FALSE(DecodeCheckpoint(bytes.data(), len, &out, &states, nullptr))
        << "prefix length " << len;
  }
}

TEST(CheckpointFormat, RejectsBitFlips) {
  const std::vector<uint8_t> bytes = EncodeCheckpoint(SampleManifest());
  // Flip one bit at a spread of positions covering header and payload.
  for (size_t pos = 0; pos < bytes.size(); pos += 13) {
    std::vector<uint8_t> bad = bytes;
    bad[pos] ^= 0x20;
    CheckpointManifest out;
    std::vector<std::span<const uint8_t>> states;
    std::string err;
    EXPECT_FALSE(DecodeCheckpoint(bad.data(), bad.size(), &out, &states, &err))
        << "bit flip at " << pos << " loaded anyway";
  }
}

TEST(CheckpointFormat, RejectsAppendedGarbage) {
  std::vector<uint8_t> bytes = EncodeCheckpoint(SampleManifest());
  bytes.insert(bytes.end(), {0xde, 0xad, 0xbe, 0xef});
  CheckpointManifest out;
  std::vector<std::span<const uint8_t>> states;
  EXPECT_FALSE(DecodeCheckpoint(bytes.data(), bytes.size(), &out, &states, nullptr));
}

TEST(CheckpointFormat, RejectsForeignFile) {
  const std::string text = "GIF89a definitely not a checkpoint";
  CheckpointManifest out;
  std::vector<std::span<const uint8_t>> states;
  std::string err;
  EXPECT_FALSE(DecodeCheckpoint(reinterpret_cast<const uint8_t*>(text.data()), text.size(), &out,
                                &states, &err));
  EXPECT_FALSE(err.empty());
}

TEST(CheckpointFile, AtomicWriteThenLoad) {
  const std::string path = TempPath("ckpt_atomic.hk");
  const CheckpointManifest m = SampleManifest();
  std::string err;
  ASSERT_TRUE(WriteCheckpointAtomic(path, m, &err)) << err;
  LoadedCheckpoint out;
  ASSERT_TRUE(LoadCheckpoint(path, &out, &err)) << err;
  ExpectEqualManifests(m, out.manifest, out.states);
  // No temp residue after a clean commit.
  EXPECT_FALSE(RemoveStaleCheckpointTemp(path));
  std::remove(path.c_str());
}

TEST(CheckpointFile, RewriteReplacesAtomically) {
  const std::string path = TempPath("ckpt_rewrite.hk");
  CheckpointManifest first = SampleManifest();
  ASSERT_TRUE(WriteCheckpointAtomic(path, first, nullptr));
  CheckpointManifest second = SampleManifest();
  second.instances[0].packets_applied = 999999;
  second.instances.pop_back();
  ASSERT_TRUE(WriteCheckpointAtomic(path, second, nullptr));
  LoadedCheckpoint out;
  ASSERT_TRUE(LoadCheckpoint(path, &out, nullptr));
  ExpectEqualManifests(second, out.manifest, out.states);
  std::remove(path.c_str());
}

TEST(CheckpointFile, TornFileOnDiskRefusesToLoad) {
  const std::string path = TempPath("ckpt_torn.hk");
  const std::vector<uint8_t> bytes = EncodeCheckpoint(SampleManifest());
  // Simulate a non-atomic writer dying mid-write: half the file.
  WriteFileBytes(path, std::vector<uint8_t>(bytes.begin(), bytes.begin() + bytes.size() / 2));
  LoadedCheckpoint out;
  std::string err;
  EXPECT_FALSE(LoadCheckpoint(path, &out, &err));
  EXPECT_FALSE(err.empty());
  std::remove(path.c_str());
}

TEST(CheckpointFile, StaleTempIsDetectedAndRemoved) {
  const std::string path = TempPath("ckpt_stale.hk");
  const std::string tmp = path + ".tmp";
  WriteFileBytes(tmp, {0x01, 0x02, 0x03});  // crash left a partial temp
  EXPECT_TRUE(RemoveStaleCheckpointTemp(path));
  EXPECT_FALSE(RemoveStaleCheckpointTemp(path));  // gone now
  // And a stale temp never shadows the committed file.
  ASSERT_TRUE(WriteCheckpointAtomic(path, SampleManifest(), nullptr));
  WriteFileBytes(tmp, {0x01, 0x02, 0x03});
  LoadedCheckpoint out;
  ASSERT_TRUE(LoadCheckpoint(path, &out, nullptr));
  EXPECT_EQ(out.manifest.instances.size(), 2u);
  std::remove(tmp.c_str());
  std::remove(path.c_str());
}

TEST(CheckpointFile, MissingFileReportsOpenError) {
  LoadedCheckpoint out;
  std::string err;
  EXPECT_FALSE(LoadCheckpoint(TempPath("ckpt_never_written.hk"), &out, &err));
  // ServeCore::Recover keys "fresh start" off this prefix.
  EXPECT_EQ(err.rfind("open ", 0), 0u) << err;
}

// ---------------------------------------------------------------------------
// Format pins, both from the manifest ReplayGolden() builds: 4-byte and
// 8-byte slab words, a sharded and a windowed wrapper, each fed the
// committed campus fixture. tests/data/checkpoint_golden.hkc was written by
// the original encoder (bitwise Crc32, bucket-by-bucket sketch
// serialization) in sketch format v2, which nothing writes any more: it
// pins what recovery still loads. tests/data/checkpoint_golden_v3.hkc holds
// the same states in format v3 (occupied buckets and the decay RNG), and
// both writers must reproduce it byte for byte. Regenerate it (never the
// v2 file) only when the format changes on purpose:
//   HK_WRITE_GOLDENS=1 ./hk_tests --gtest_filter='CheckpointGolden*'

constexpr const char* kGoldenSpecs[][2] = {
    {"narrow", "HK-Minimum:mem=8KB"},
    {"wide", "HK-Parallel:fp=24,mem=8KB"},
    {"sharded", "Sharded:n=2,mem=8KB,inner=HK-Minimum:d=4"},
    {"window", "Window:w=4,epoch=700,mem=8KB,inner=HK-Minimum"},
};

std::string GoldenPath() { return std::string(HK_TEST_DATA_DIR) + "/checkpoint_golden.hkc"; }
std::string GoldenV3Path() {
  return std::string(HK_TEST_DATA_DIR) + "/checkpoint_golden_v3.hkc";
}

struct GoldenReplay {
  CheckpointManifest manifest;
  std::vector<std::unique_ptr<TopKAlgorithm>> algos;  // parallel to manifest.instances
};

GoldenReplay ReplayGolden() {
  const std::string capture = std::string(HK_TEST_DATA_DIR) + "/fixture_campus.pcap";
  PcapReader reader(PcapKeyPolicy::kFiveTuple);
  EXPECT_TRUE(reader.Open(capture)) << reader.error();
  std::vector<FlowId> ids;
  PacketRecord record;
  while (reader.Next(&record)) {
    ids.push_back(record.id);
  }
  const SketchDefaults defaults = SmallDefaults();
  GoldenReplay replay;
  for (const auto& [name, spec] : kGoldenSpecs) {
    auto algo = MakeSketch(spec, defaults);
    algo->InsertBatch(ids);
    algo->Flush();
    CheckpointInstance entry;
    entry.name = name;
    entry.spec = spec;
    entry.memory_bytes = defaults.memory_bytes;
    entry.k = defaults.k;
    entry.key_kind = static_cast<uint8_t>(defaults.key_kind);
    entry.seed = defaults.seed;
    entry.source = "tests/data/fixture_campus.pcap";
    entry.packets_applied = ids.size();
    EXPECT_TRUE(algo->SaveState(&entry.state)) << spec;
    replay.manifest.instances.push_back(std::move(entry));
    replay.algos.push_back(std::move(algo));
  }
  return replay;
}

TEST(CheckpointGolden, EncoderReproducesCommittedFile) {
  const GoldenReplay replay = ReplayGolden();
  const std::vector<uint8_t> encoded = EncodeCheckpoint(replay.manifest);
  if (std::getenv("HK_WRITE_GOLDENS") != nullptr) {
    WriteFileBytes(GoldenV3Path(), encoded);
    GTEST_SKIP() << "rewrote " << GoldenV3Path();
  }
  const std::vector<uint8_t> golden = ReadFileBytes(GoldenV3Path());
  ASSERT_FALSE(golden.empty()) << "missing " << GoldenV3Path();
  EXPECT_LE(golden.size(), 64u * 1024);
  EXPECT_TRUE(encoded == golden) << "EncodeCheckpoint diverged from " << GoldenV3Path();
}

TEST(CheckpointGolden, AtomicWriterReproducesCommittedFile) {
  const GoldenReplay replay = ReplayGolden();
  const std::string path = TempPath("ckpt_golden_" + std::to_string(::getpid()) + ".hk");
  std::string err;
  ASSERT_TRUE(WriteCheckpointAtomic(path, replay.manifest, &err)) << err;
  const std::vector<uint8_t> written = ReadFileBytes(path);
  std::remove(path.c_str());
  EXPECT_TRUE(written == ReadFileBytes(GoldenV3Path()))
      << "WriteCheckpointAtomic diverged from " << GoldenV3Path();
}

TEST(CheckpointGolden, CommittedFileRestoresTheReplay) {
  const GoldenReplay replay = ReplayGolden();
  LoadedCheckpoint loaded;
  std::string err;
  ASSERT_TRUE(LoadCheckpoint(GoldenPath(), &loaded, &err)) << err;
  ASSERT_EQ(loaded.manifest.instances.size(), replay.algos.size());
  QueryOptions exact;
  exact.k = 50;
  for (size_t i = 0; i < replay.algos.size(); ++i) {
    const CheckpointInstance& entry = loaded.manifest.instances[i];
    SketchDefaults defaults;
    defaults.memory_bytes = entry.memory_bytes;
    defaults.k = entry.k;
    defaults.key_kind = static_cast<KeyKind>(entry.key_kind);
    defaults.seed = entry.seed;
    auto restored = MakeSketch(entry.spec, defaults);
    ASSERT_TRUE(restored->LoadState(loaded.states[i].data(), loaded.states[i].size()))
        << entry.spec;
    const QueryResult want = replay.algos[i]->Snapshot(exact);
    const QueryResult got = restored->Snapshot(exact);
    ASSERT_FALSE(want.flows.empty()) << entry.spec;
    EXPECT_EQ(got.flows, want.flows) << entry.spec;
    EXPECT_EQ(got.stats.tracked_flows, want.stats.tracked_flows) << entry.spec;
  }
}

SketchDefaults DefaultsOf(const CheckpointInstance& entry) {
  SketchDefaults defaults;
  defaults.memory_bytes = entry.memory_bytes;
  defaults.k = entry.k;
  defaults.key_kind = static_cast<KeyKind>(entry.key_kind);
  defaults.seed = entry.seed;
  return defaults;
}

TEST(CheckpointGolden, CommittedV3FileRestoresTheReplayExactly) {
  // v3 carries every bit of a HeavyKeeper's state, the decay RNG included:
  // each restored instance saves the very bytes it was loaded from.
  const GoldenReplay replay = ReplayGolden();
  LoadedCheckpoint loaded;
  std::string err;
  ASSERT_TRUE(LoadCheckpoint(GoldenV3Path(), &loaded, &err)) << err;
  ASSERT_EQ(loaded.manifest.instances.size(), replay.algos.size());
  QueryOptions exact;
  exact.k = 50;
  for (size_t i = 0; i < replay.algos.size(); ++i) {
    const CheckpointInstance& entry = loaded.manifest.instances[i];
    auto restored = MakeSketch(entry.spec, DefaultsOf(entry));
    ASSERT_TRUE(restored->LoadState(loaded.states[i].data(), loaded.states[i].size()))
        << entry.spec;
    std::vector<uint8_t> resaved;
    ASSERT_TRUE(restored->SaveState(&resaved));
    EXPECT_TRUE(std::ranges::equal(resaved, loaded.states[i])) << entry.spec;
    EXPECT_EQ(restored->Snapshot(exact).flows, replay.algos[i]->Snapshot(exact).flows)
        << entry.spec;
  }
}

TEST(CheckpointGolden, MutatedStatesLoadCanonicallyOrAreRefused) {
  // Seeded byte flips, truncations and extensions of the replay's states.
  // Each must be refused, or load into an instance whose saved state is
  // canonical: it loads again and saves to the same bytes. None may crash
  // (the sanitizer build runs this too).
  const GoldenReplay replay = ReplayGolden();
  Rng rng(2501);
  size_t loaded = 0;
  for (int i = 0; i < 5000; ++i) {
    const CheckpointInstance& entry =
        replay.manifest.instances[rng.NextBounded(replay.manifest.instances.size())];
    std::vector<uint8_t> state = entry.state;
    switch (rng.NextBounded(3)) {
      case 0:
        state[rng.NextBounded(state.size())] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
        break;
      case 1:
        state.resize(rng.NextBounded(state.size()));
        break;
      default:
        state.resize(state.size() + 1 + rng.NextBounded(16), static_cast<uint8_t>(rng.NextU64()));
        break;
    }
    auto algo = MakeSketch(entry.spec, DefaultsOf(entry));
    if (!algo->LoadState(state.data(), state.size())) {
      continue;
    }
    ++loaded;
    std::vector<uint8_t> saved;
    ASSERT_TRUE(algo->SaveState(&saved)) << entry.spec << " mutation " << i;
    auto again = MakeSketch(entry.spec, DefaultsOf(entry));
    ASSERT_TRUE(again->LoadState(saved.data(), saved.size())) << entry.spec << " mutation " << i;
    std::vector<uint8_t> resaved;
    ASSERT_TRUE(again->SaveState(&resaved));
    ASSERT_TRUE(resaved == saved) << entry.spec << " mutation " << i;
  }
  // Flips inside counts, ids and the RNG words leave valid states.
  EXPECT_GT(loaded, 0u);
}

// ---------------------------------------------------------------------------
// HeavyKeeper states: one byte string per state, and room reserved for it.

class HkCheckpointRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(HkCheckpointRoundTrip, SaveLoadSaveIsByteIdentical) {
  const SketchDefaults defaults = SmallDefaults();
  auto saved = MakeSketch(GetParam(), defaults);
  const Trace trace = MakeCampusTrace(50000, 5);
  saved->InsertBatch(trace.packets);
  saved->Flush();
  std::vector<uint8_t> blob;
  ASSERT_TRUE(saved->SaveState(&blob));
  auto loaded = MakeSketch(GetParam(), defaults);
  ASSERT_TRUE(loaded->LoadState(blob.data(), blob.size()));
  std::vector<uint8_t> again;
  ASSERT_TRUE(loaded->SaveState(&again));
  EXPECT_TRUE(again == blob);
  QueryOptions exact;
  exact.k = 30;
  EXPECT_EQ(loaded->Snapshot(exact).flows, saved->Snapshot(exact).flows);
}

// Besides every registered HK name: the vector probe's d=4, 8-byte words,
// and the wrappers over HK.
constexpr const char* kMoreHkSpecs[] = {
    "HK-Minimum:d=4",
    "HK-Parallel:fp=24",
    "Sharded:n=4,inner=HK-Minimum",
    "Window:w=4,epoch=15000,inner=HK-Minimum",
};

std::vector<std::string> HkCheckpointSpecs() {
  std::vector<std::string> specs;
  for (const std::string& name : RegisteredSketches()) {
    if (name.rfind("HK-", 0) == 0) {
      specs.push_back(name);
    }
  }
  specs.insert(specs.end(), std::begin(kMoreHkSpecs), std::end(kMoreHkSpecs));
  return specs;
}

INSTANTIATE_TEST_SUITE_P(HeavyKeeper, HkCheckpointRoundTrip,
                         ::testing::ValuesIn(HkCheckpointSpecs()), [](const auto& info) {
                           std::string s = info.param;
                           for (auto& c : s) {
                             if (std::isalnum(static_cast<unsigned char>(c)) == 0) {
                               c = '_';
                             }
                           }
                           return s;
                         });

TEST(StateReserve, FullyOccupiedStateFitsWithoutReallocating) {
  // 4 MB of occupied buckets: the encoding's masks (1/32 of the slab)
  // outgrow any fixed slack, so the reserve must come from the bound.
  for (const std::string spec : {"HK-Minimum:mem=4MB", "HK-Parallel:fp=24,mem=4MB"}) {
    auto algo = MakeSketch(spec, SmallDefaults());
    HeavyKeeper& sketch = dynamic_cast<HeavyKeeperTopK<>&>(*algo).sketch();
    const HeavyKeeperConfig config = sketch.config();
    const auto occupy_all = [&](std::span<uint8_t> slab) {
      const uint64_t occupied = uint64_t{1} << config.counter_bits | 1;  // fp 1, count 1
      for (size_t at = 0; at < slab.size(); at += config.BucketBytes()) {
        std::memcpy(slab.data() + at, &occupied, config.BucketBytes());
      }
      return true;
    };
    sketch = *HeavyKeeper::Restore(config, 0, 0, std::nullopt, occupy_all);
    std::vector<uint8_t> state;
    state.reserve(StateReserveBytes(algo->MemoryBytes()));
    const uint8_t* const buffer = state.data();
    ASSERT_TRUE(algo->SaveState(&state)) << spec;
    EXPECT_EQ(state.data(), buffer) << spec << " reallocated";
    EXPECT_GT(state.size(), sketch.SlabImage().size() + 64 * 1024) << spec;
  }
}

}  // namespace
}  // namespace hk
