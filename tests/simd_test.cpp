// SIMD kernel tests (src/simd/): dispatch resolution, spec grammar, and -
// the load-bearing property - bit-identical behaviour between the scalar
// path and every vector kernel the host can run:
//
//   * PrepareBatch == Prepare element by element (hashing stage),
//   * HashBytesBatch == HashBytes (key-extraction stage),
//   * full-pipeline differential sweep: every HK-family spec shape runs
//     the zipf + mouse-flood workloads and both committed pcap fixtures
//     (unit and byte-weighted) under simd=scalar and the best available
//     kernel; SaveState blobs must match byte for byte (the strongest
//     equality the library can express - every bucket word identical),
//   * EstimateSizeBatch == the EstimateSize loop, windowed rescore
//     included.
//
// On scalar-only hosts the differential tests reduce to scalar == scalar
// (trivially green); CI's AVX2 runners are where they bite. The golden
// state fixtures (core_golden_state_test.cpp) pin the same property
// against committed state files.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/hash.h"
#include "core/heavykeeper.h"
#include "ingest/pcap_reader.h"
#include "ingest/trace_replayer.h"
#include "serve/serve_core.h"
#include "simd/hash_batch.h"
#include "sketch/registry.h"
#include "trace/generators.h"

namespace hk {
namespace {

std::string CampusFixture() { return std::string(HK_TEST_DATA_DIR) + "/fixture_campus.pcap"; }
std::string CaidaFixture() { return std::string(HK_TEST_DATA_DIR) + "/fixture_caida.pcapng"; }

SimdKernel BestKernel() { return ResolveSimdKernel(SimdMode::kAuto); }

std::string BestToken() { return SimdKernelName(BestKernel()); }

// ---------------------------------------------------------------------------
// Dispatch & grammar

TEST(SimdDispatch, ScalarAlwaysAvailable) {
  EXPECT_TRUE(SimdKernelAvailable(SimdKernel::kScalar));
  EXPECT_EQ(ResolveSimdKernel(SimdMode::kScalar), SimdKernel::kScalar);
}

TEST(SimdDispatch, AutoResolvesToAnAvailableKernel) {
  EXPECT_TRUE(SimdKernelAvailable(ResolveSimdKernel(SimdMode::kAuto)));
}

TEST(SimdDispatch, ExplicitUnavailableThrows) {
  if (!SimdKernelAvailable(SimdKernel::kAvx2)) {
    EXPECT_THROW(ResolveSimdKernel(SimdMode::kAvx2), std::invalid_argument);
  }
}

TEST(SimdDispatch, TokensRoundTrip) {
  for (const SimdMode mode : {SimdMode::kAuto, SimdMode::kScalar, SimdMode::kAvx2}) {
    SimdMode parsed;
    ASSERT_TRUE(ParseSimdMode(SimdModeToken(mode), &parsed)) << SimdModeToken(mode);
    EXPECT_EQ(parsed, mode);
  }
  SimdMode parsed;
  EXPECT_FALSE(ParseSimdMode("sse9", &parsed));
  EXPECT_FALSE(ParseSimdMode("", &parsed));
}

TEST(SimdDispatch, EnvOverridesAutoOnly) {
  ASSERT_EQ(setenv("HK_SIMD", "scalar", 1), 0);
  EXPECT_EQ(ResolveSimdKernel(SimdMode::kAuto), SimdKernel::kScalar);
  // Explicit modes ignore the environment.
  if (SimdKernelAvailable(SimdKernel::kAvx2)) {
    EXPECT_EQ(ResolveSimdKernel(SimdMode::kAvx2), SimdKernel::kAvx2);
  }
  // Unknown and unavailable values are ignored, not errors.
  ASSERT_EQ(setenv("HK_SIMD", "bogus", 1), 0);
  EXPECT_TRUE(SimdKernelAvailable(ResolveSimdKernel(SimdMode::kAuto)));
  unsetenv("HK_SIMD");
}

TEST(SimdSpec, RoundTripsThroughRegistry) {
  auto scalar = MakeSketch("HK-Minimum:d=4,simd=scalar");
  EXPECT_EQ(scalar->name(), "HeavyKeeper-Minimum:d=4,simd=scalar");
  EXPECT_STREQ(scalar->ActiveSimdKernel(), "scalar");
  auto round = MakeSketch(scalar->name());
  EXPECT_EQ(round->name(), scalar->name());
  // simd=auto is the default: canonical names omit it, and the resolved
  // kernel is whatever the host offers.
  auto fromauto = MakeSketch("HK-Minimum:simd=auto");
  EXPECT_EQ(fromauto->name(), "HeavyKeeper-Minimum");
  EXPECT_STREQ(fromauto->ActiveSimdKernel(), BestToken().c_str());
}

TEST(SimdSpec, RejectionMatrix) {
  // Unknown tokens, including the removed neon kernel.
  EXPECT_THROW(MakeSketch("HK-Minimum:simd=sse9"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("HK-Minimum:simd=neon"), std::invalid_argument);
  // Non-HK pipelines have no simd key (the wdecay=collapsed precedent:
  // accepting it as a silent no-op would lie about what runs).
  EXPECT_THROW(MakeSketch("SS:simd=scalar"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("CM:simd=scalar"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("Sharded:simd=scalar"), std::invalid_argument);
  EXPECT_THROW(MakeSketch("Window:simd=scalar"), std::invalid_argument);
  // ... but an HK inner inside a wrapper carries it fine.
  auto window = MakeSketch("Window:w=2,epoch=1000,inner=HK-Minimum:simd=scalar");
  EXPECT_STREQ(window->ActiveSimdKernel(), "scalar");
  auto sharded = MakeSketch("Sharded:n=2,inner=HK-Minimum:simd=scalar");
  EXPECT_STREQ(sharded->ActiveSimdKernel(), "scalar");
  // Explicitly requesting a kernel the host lacks throws at build time.
  if (!SimdKernelAvailable(SimdKernel::kAvx2)) {
    EXPECT_THROW(MakeSketch("HK-Minimum:simd=avx2"), std::invalid_argument);
  }
}

TEST(SimdSpec, SnapshotReportsResolvedKernel) {
  auto algo = MakeSketch("HK-Minimum");
  const QueryResult result = algo->Snapshot({.k = 5});
  EXPECT_EQ(result.stats.simd_kernel, BestToken());
  auto scalar = MakeSketch("HK-Minimum:simd=scalar");
  EXPECT_STREQ(scalar->Snapshot({.k = 5}).stats.simd_kernel, "scalar");
  // Algorithms without a SIMD hot path report "".
  auto ss = MakeSketch("SS");
  EXPECT_STREQ(ss->Snapshot({.k = 5}).stats.simd_kernel, "");
}

TEST(SimdSpec, ServeStatsReportKernel) {
  ServeOptions options;
  options.defaults.memory_bytes = 20 * 1024;
  options.defaults.k = 20;
  ServeCore core(options);
  ASSERT_EQ(core.Execute("CREATE hk HK-Minimum"), "OK created hk\n");
  const std::string stats = core.Execute("STATS hk");
  EXPECT_NE(stats.find("STAT simd " + BestToken() + "\n"), std::string::npos) << stats;
  // No SIMD line for algorithms without a vectorized path.
  ASSERT_EQ(core.Execute("CREATE ss SS"), "OK created ss\n");
  EXPECT_EQ(core.Execute("STATS ss").find("STAT simd"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Stage 1: PrepareBatch == Prepare

HeavyKeeperConfig SmallConfig(size_t d, uint32_t fp_bits, uint32_t counter_bits) {
  HeavyKeeperConfig config;
  config.d = d;
  config.w = 613;  // odd, unaligned: exercises the Lemire index reduction
  config.fingerprint_bits = fp_bits;
  config.counter_bits = counter_bits;
  config.seed = 77;
  return config;
}

TEST(SimdPrepare, BatchMatchesScalarAcrossShapes) {
  SplitMix64 rng(42);
  for (const size_t d : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{5}, size_t{8}}) {
    for (const auto& [fp, cb] : std::vector<std::pair<uint32_t, uint32_t>>{
             {16, 16}, {8, 24}, {12, 13}, {32, 32}}) {
      HeavyKeeperConfig config = SmallConfig(d, fp, cb);
      config.simd = SimdMode::kAuto;
      const HeavyKeeper sketch(config);
      constexpr size_t kN = 103;  // deliberately not a lane multiple
      std::vector<FlowId> ids(kN);
      for (auto& id : ids) {
        id = rng.Next();
      }
      std::vector<HeavyKeeper::Prepared> batch(kN);
      sketch.PrepareBatch(ids.data(), kN, batch.data());
      for (size_t i = 0; i < kN; ++i) {
        const HeavyKeeper::Prepared one = sketch.Prepare(ids[i]);
        ASSERT_EQ(batch[i].id, one.id) << "d=" << d << " fp=" << fp << " i=" << i;
        ASSERT_EQ(batch[i].fp, one.fp) << "d=" << d << " fp=" << fp << " i=" << i;
        ASSERT_EQ(batch[i].n, one.n);
        for (uint32_t j = 0; j < one.n; ++j) {
          ASSERT_EQ(batch[i].idx[j], one.idx[j])
              << "d=" << d << " fp=" << fp << " i=" << i << " row=" << j;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Key-extraction stage: HashBytesBatch == HashBytes

TEST(SimdHashBytes, BatchMatchesScalarForEveryLength) {
  SplitMix64 rng(7);
  constexpr size_t kN = 61;
  std::vector<uint8_t> keys(kN * simd::kHashBatchStride);
  for (auto& b : keys) {
    b = static_cast<uint8_t>(rng.Next());
  }
  for (size_t len = 1; len <= simd::kHashBatchStride; ++len) {
    uint64_t out[kN];
    simd::HashBytesBatch(BestKernel(), keys.data(), kN, len, 0xdecafbadULL, out);
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(out[i], HashBytes(keys.data() + i * simd::kHashBatchStride, len, 0xdecafbadULL))
          << "len=" << len << " i=" << i;
    }
  }
}

TEST(SimdHashBytes, NextBatchMatchesNextRecordForRecord) {
  // NextBatch hashes the ids of a whole burst lane-parallel; every record,
  // id included, must equal what Next() yields one at a time. Bursts of 63,
  // 64 and 65 straddle the 64-record hash chunk.
  for (const auto& [path, policy] :
       std::vector<std::pair<std::string, PcapKeyPolicy>>{
           {CampusFixture(), PcapKeyPolicy::kFiveTuple},
           {CampusFixture(), PcapKeyPolicy::kAddrPair},
           {CampusFixture(), PcapKeyPolicy::kSrcOnly},
           {CaidaFixture(), PcapKeyPolicy::kFiveTuple}}) {
    PcapReader eager(policy);
    ASSERT_TRUE(eager.Open(path)) << eager.error();
    std::vector<PacketRecord> expected;
    PacketRecord record;
    while (eager.Next(&record)) {
      expected.push_back(record);
    }
    ASSERT_FALSE(expected.empty());

    for (const size_t burst : {1, 63, 64, 65, 512}) {
      PcapReader batched(policy);
      ASSERT_TRUE(batched.Open(path)) << batched.error();
      std::vector<PacketRecord> records;
      std::vector<PacketRecord> buffer(burst);
      for (size_t n = batched.NextBatch(buffer); n > 0; n = batched.NextBatch(buffer)) {
        records.insert(records.end(), buffer.begin(), buffer.begin() + n);
      }
      EXPECT_TRUE(batched.ok()) << batched.error();
      EXPECT_EQ(batched.stats().packets, eager.stats().packets);
      ASSERT_EQ(records.size(), expected.size()) << "burst " << burst;
      for (size_t i = 0; i < records.size(); ++i) {
        const PacketRecord& got = records[i];
        const PacketRecord& want = expected[i];
        ASSERT_EQ(got.id, want.id)
            << PcapKeyPolicyName(policy) << " burst " << burst << " packet " << i;
        ASSERT_EQ(got.timestamp_ns, want.timestamp_ns) << "packet " << i;
        ASSERT_EQ(got.wire_len, want.wire_len) << "packet " << i;
        ASSERT_EQ(got.tuple, want.tuple) << "packet " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Full-pipeline differential sweep: scalar vs best kernel, byte-identical

// The spec shapes that steer the kernels through every code path: narrow
// and wide packed words, every insert discipline, expansion re-prepare,
// collapsed weighted decay.
const std::vector<std::string>& SweepSpecs() {
  static const std::vector<std::string> specs = {
      "HK-Minimum",
      "HK-Minimum:d=4",
      "HK-Minimum:d=8,b=1.05",
      "HK-Minimum:d=4,fp=8,cb=24",
      "HK-Minimum:d=4,fp=32,cb=32",  // 8-byte words: probe falls back, hash stays vector
      "HK-Minimum:d=1,expand=64",    // Section III-F growth re-prepares mid-stream
      "HK-Minimum:d=4,wdecay=collapsed",
      "HK-Parallel:d=4",
      "HK-Basic:d=4",
  };
  return specs;
}

SketchDefaults SweepDefaults() {
  SketchDefaults d;
  d.memory_bytes = 16 * 1024;  // tight: decay, eviction and admission all fire
  d.k = 50;
  d.key_kind = KeyKind::kFiveTuple13B;
  d.seed = 7;
  return d;
}

std::string WithSimd(const std::string& spec, const std::string& token) {
  return spec + (spec.find(':') == std::string::npos ? ":" : ",") + "simd=" + token;
}

void ExpectIdenticalState(TopKAlgorithm& scalar, TopKAlgorithm& vector,
                          const std::string& label) {
  // SaveState blobs capture every bucket word and store entry; comparing
  // them byte for byte is the strongest equality the library can express.
  // The trailing spec differs only by the simd= key, which serialization
  // does not record, so the blobs must match exactly.
  std::vector<uint8_t> a;
  std::vector<uint8_t> b;
  ASSERT_TRUE(scalar.SaveState(&a)) << label;
  ASSERT_TRUE(vector.SaveState(&b)) << label;
  EXPECT_EQ(a, b) << label << ": state blobs differ";
  EXPECT_EQ(scalar.TopK(50), vector.TopK(50)) << label;
  for (FlowId id = 1; id <= 16; ++id) {
    EXPECT_EQ(scalar.EstimateSize(id), vector.EstimateSize(id)) << label;
  }
}

std::vector<FlowId> ZipfWorkload() {
  ZipfTraceConfig config;
  config.num_packets = 60'000;
  config.num_ranks = 8'000;
  config.skew = 1.1;
  config.seed = 21;
  return MakeZipfTrace(config).packets;
}

std::vector<FlowId> FloodWorkload() {
  std::vector<FlowId> packets;
  for (int round = 0; round < 500; ++round) {
    for (FlowId e = 1; e <= 20; ++e) {
      packets.push_back(e);
    }
  }
  for (uint64_t m = 0; m < 20'000; ++m) {
    packets.push_back(Mix64(m + 1000));
  }
  for (int round = 0; round < 500; ++round) {
    for (FlowId e = 1; e <= 20; ++e) {
      packets.push_back(e);
    }
  }
  return packets;
}

class SimdDifferentialSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(SimdDifferentialSweep, SyntheticWorkloadsBitIdentical) {
  const std::string spec = GetParam();
  for (const auto& [label, packets] :
       std::vector<std::pair<std::string, std::vector<FlowId>>>{
           {"zipf", ZipfWorkload()}, {"mouse-flood", FloodWorkload()}}) {
    auto scalar = MakeSketch(WithSimd(spec, "scalar"), SweepDefaults());
    auto vector = MakeSketch(WithSimd(spec, BestToken()), SweepDefaults());
    // Mixed entry points so every fast path runs: batches with awkward
    // sizes, scalar singles, a weighted packet every stride.
    static constexpr size_t kBursts[] = {1, 7, 64, 333, 2, 31};
    size_t pos = 0;
    size_t b = 0;
    while (pos < packets.size()) {
      const size_t burst = std::min(kBursts[b++ % std::size(kBursts)], packets.size() - pos);
      scalar->InsertBatch(std::span<const FlowId>(packets.data() + pos, burst));
      vector->InsertBatch(std::span<const FlowId>(packets.data() + pos, burst));
      pos += burst;
      if (b % 5 == 0 && pos < packets.size()) {
        scalar->InsertWeighted(packets[pos], 3);
        vector->InsertWeighted(packets[pos], 3);
        ++pos;
      }
    }
    ExpectIdenticalState(*scalar, *vector, spec + "/" + label);
  }
}

TEST_P(SimdDifferentialSweep, FixtureCapturesBitIdentical) {
  const std::string spec = GetParam();
  for (const std::string& path : {CampusFixture(), CaidaFixture()}) {
    for (const bool byte_weighted : {false, true}) {
      auto scalar = MakeSketch(WithSimd(spec, "scalar"), SweepDefaults());
      auto vector = MakeSketch(WithSimd(spec, BestToken()), SweepDefaults());
      ReplayOptions options;
      options.byte_weighted = byte_weighted;
      const TraceReplayer replayer(options);
      for (TopKAlgorithm* algo : {scalar.get(), vector.get()}) {
        PcapReader reader;
        ASSERT_TRUE(reader.Open(path)) << reader.error();
        const ReplayStats stats = replayer.Replay(reader, *algo);
        ASSERT_GT(stats.packets, 0u);
      }
      ExpectIdenticalState(*scalar, *vector,
                           spec + "/" + path + (byte_weighted ? "/bytes" : "/packets"));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Specs, SimdDifferentialSweep, ::testing::ValuesIn(SweepSpecs()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Batched queries

TEST(SimdQuery, EstimateSizeBatchEqualsLoop) {
  for (const std::string spec :
       {"HK-Minimum:d=4", "HK-Minimum:d=4,simd=scalar", "HK-Basic:d=2",
        "Window:w=4,epoch=5000,inner=HK-Minimum:d=4", "SS"}) {
    auto algo = MakeSketch(spec, SweepDefaults());
    const std::vector<FlowId> packets = ZipfWorkload();
    algo->InsertBatch(packets);
    // Mix of tracked elephants, sketch-only mice, and never-seen ids.
    std::vector<FlowId> queries(packets.begin(), packets.begin() + 997);
    for (uint64_t i = 0; i < 64; ++i) {
      queries.push_back(Mix64(i + 77));
    }
    std::vector<uint64_t> batched(queries.size());
    algo->EstimateSizeBatch(queries, batched);
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(batched[i], algo->EstimateSize(queries[i])) << spec << " i=" << i;
    }
  }
}

TEST(SimdQuery, WindowRescoreIdenticalAcrossKernels) {
  // The merged-and-rescored sliding report must not depend on the kernel.
  auto scalar =
      MakeSketch("Window:w=4,epoch=5000,inner=HK-Minimum:d=4,simd=scalar", SweepDefaults());
  auto vector = MakeSketch("Window:w=4,epoch=5000,inner=HK-Minimum:d=4,simd=" + BestToken(),
                           SweepDefaults());
  const std::vector<FlowId> packets = ZipfWorkload();
  scalar->InsertBatch(packets);
  vector->InsertBatch(packets);
  EXPECT_EQ(scalar->TopK(50), vector->TopK(50));
  const QueryResult a = scalar->Snapshot({.k = 50});
  const QueryResult b = vector->Snapshot({.k = 50});
  EXPECT_EQ(a.flows, b.flows);
  EXPECT_STREQ(a.stats.simd_kernel, "scalar");
  EXPECT_EQ(b.stats.simd_kernel, BestToken());
}

}  // namespace
}  // namespace hk
