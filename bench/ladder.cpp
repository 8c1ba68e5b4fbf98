// The performance ladder (google-benchmark): one binary, one JSON, rows
// named by the layer they time, so a win or a regression points at one
// layer. bench/gates.py reads the JSON and holds the same-run ratios.
//
//   L0 prepare         HeavyKeeper::PrepareBatch: fingerprint + d indices
//   L1 apply           L0 + prefetch + the Minimum case logic per handle
//   L2 pipeline+store  one TopKAlgorithm::Insert per packet (sketch + top-k
//                      store), and per-packet InsertWeighted mouse floods
//   L3 InsertBatch     the software-pipelined burst API
//   L4 front-ends      threaded Sharded (n = 1, 2, 4, 8) and the Window
//                      ring over one inner, whole stream + Flush per
//                      iteration, so queued work is paid for, after one
//                      untimed pass
//   L5 pcap parse      PcapReader::NextBatch over a slurped capture and
//                      over a file stream
//   L6 replay          the capture's ids applied alone (parsed beforehand),
//                      and TraceReplayer over the capture, which parses on
//                      a second thread while it applies
//   L8 query           Snapshot(100) of an HK-Minimum:mem=8MB and of a
//                      drained threaded Sharded (e2ebench caida-sharded's
//                      spec) holding the capture, and ServeCore::Execute of
//                      TOPK 100 and POINT on a drained in-process hk_serve
//                      instance of the same HK-Minimum: request parse, locks,
//                      the query and the reply's rendering
//   L9 checkpoint      SaveState, Crc32 (the dispatched kernel, and the
//                      table loop alone), WriteCheckpointAtomic and
//                      LoadCheckpoint of a 32 MB HK-Minimum:d=4 (the size of
//                      e2ebench caida-sharded's instance, mostly empty
//                      buckets), against a plain copy of its slab; and
//                      SaveState of the same sketch with every bucket
//                      occupied (the encoder's worst case) against its own
//                      copy. SaveState and the copies reuse one buffer, as
//                      hk_serve's checkpoints do
//
// (hk_serve ingest, query latency under ingest and the wire are measured
// end to end by e2ebench/.) The chain L0 -> L3 runs HK-Minimum:d=4 on a 4 MB,
// cache-resident sketch over a zipf 0.6 stream: the vector kernels cut
// compute, which only shows when DRAM misses do not hide it. The L2/L3
// `dram` rows, the telemetry rows and L4 use a 64 MB (8 MB for Window)
// sketch past LLC over a zipf 1.0 stream, where prefetching and extra
// cores pay. L5/L6 read one synthesized 1M-packet campus capture.
//
// Items are packets, except for L4/window/snapshot (one TopK(100) each),
// L8 (queries) and L9 (slab bytes, whatever the blob's size). Run settings
// are fixed here (3 interleaved repetitions of >= 0.2 s each, medians
// reported), so a run needs only --benchmark_out=<file>
// --benchmark_out_format=json. Captures and
// checkpoint files live in a temp dir removed at exit.
#include <benchmark/benchmark.h>
#include <stdlib.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/byte_io.h"
#include "common/random.h"
#include "core/heavykeeper.h"
#include "core/hk_topk.h"
#include "ingest/byte_source.h"
#include "ingest/capture_synth.h"
#include "ingest/pcap_reader.h"
#include "ingest/trace_replayer.h"
#include "serve/checkpoint.h"
#include "serve/serve_core.h"
#include "simd/crc32_fold.h"
#include "simd/hash_batch.h"
#include "sketch/registry.h"
#include "telemetry/telemetry.h"
#include "trace/generators.h"

namespace {

using namespace hk;

constexpr uint64_t kPackets = 2'000'000;
constexpr uint64_t kCapturePackets = 1'000'000;
constexpr size_t kCacheBytes = size_t{4} << 20;
constexpr size_t kDramBytes = size_t{64} << 20;
constexpr size_t kWindowBytes = size_t{8} << 20;  // 1 MB per slot at w=8
constexpr size_t kReplayBytes = size_t{1} << 20;  // byte weights need cb=32 headroom
constexpr size_t kCheckpointBytes = size_t{32} << 20;
constexpr double kCacheSkew = 0.6;  // deep tail: the decay path dominates
constexpr double kDramSkew = 1.0;
constexpr size_t kBurst = 512;         // L0-L3 chain and the replayer's default
constexpr size_t kStreamBurst = 4096;  // L4 whole-stream rows
constexpr uint64_t kEpochPackets = 1'000'000;
constexpr uint64_t kMouseWeight = 1000;

// A kPackets-long Zipf stream whose tail is deep (num_ranks = packets / 2,
// so most flows are mice), generated once per (skew, seed).
const std::vector<FlowId>& Zipf(double skew, uint64_t seed) {
  static std::map<std::pair<double, uint64_t>, std::vector<FlowId>> traces;
  std::vector<FlowId>& packets = traces[{skew, seed}];
  if (packets.empty()) {
    ZipfTraceConfig config;
    config.num_packets = kPackets;
    config.num_ranks = kPackets / 2;
    config.skew = skew;
    config.seed = seed;
    packets = MakeZipfTrace(config).packets;
  }
  return packets;
}

using TraceFn = const std::vector<FlowId>& (*)();
const std::vector<FlowId>& CacheTrace() { return Zipf(kCacheSkew, 3); }
const std::vector<FlowId>& DramTrace() { return Zipf(kDramSkew, 3); }
const std::vector<FlowId>& TelemetryTrace() { return Zipf(kDramSkew, 7); }

SketchDefaults Defaults(size_t bytes, KeyKind key_kind) {
  SketchDefaults defaults;
  defaults.memory_bytes = bytes;
  defaults.k = 100;
  defaults.key_kind = key_kind;
  defaults.seed = 1;
  return defaults;
}

std::unique_ptr<TopKAlgorithm> Make(const std::string& spec, size_t bytes,
                                    KeyKind key_kind = KeyKind::kSynthetic4B) {
  return MakeSketch(spec, Defaults(bytes, key_kind));
}

// One temp dir for everything the ladder writes, removed at exit.
const std::filesystem::path& ScratchDir() {
  static const struct Dir {
    std::filesystem::path path;
    Dir() {
      std::string pattern = (std::filesystem::temp_directory_path() / "hk_ladder.XXXXXX").string();
      if (mkdtemp(pattern.data()) == nullptr) {
        std::perror("ladder: mkdtemp");
        std::exit(1);
      }
      path = pattern;
    }
    ~Dir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  } dir;
  return dir.path;
}

const std::string& CapturePath() {
  static const std::string path = [] {
    const std::string out = (ScratchDir() / "campus.pcap").string();
    const Trace trace = SynthesizeCapture(CampusConfig(kCapturePackets, /*seed=*/13), out,
                                          CaptureSynthOptions{});
    if (trace.num_packets() == 0) {
      std::fprintf(stderr, "ladder: failed to synthesize %s\n", out.c_str());
      std::exit(1);
    }
    return out;
  }();
  return path;
}

SimdMode ModeOf(SimdKernel kernel) {
  return kernel == SimdKernel::kAvx2 ? SimdMode::kAvx2 : SimdMode::kScalar;
}

// --- L0 / L1: the bare sketch ------------------------------------------

HeavyKeeper BareSketch(SimdKernel kernel) {
  HeavyKeeperConfig config;
  config.d = 4;
  config.w = kCacheBytes / (config.BucketBytes() * config.d);
  config.seed = 1;
  config.simd = ModeOf(kernel);
  return HeavyKeeper(config);
}

void BM_Prepare(benchmark::State& state, SimdKernel kernel) {
  const HeavyKeeper sketch = BareSketch(kernel);
  const auto& packets = CacheTrace();
  HeavyKeeper::Prepared prepared[kBurst];
  size_t i = 0;
  for (auto _ : state) {
    if (i + kBurst > packets.size()) {
      i = 0;
    }
    sketch.PrepareBatch(packets.data() + i, kBurst, prepared);
    benchmark::DoNotOptimize(prepared[0].idx[0]);
    i += kBurst;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kBurst));
}

// Pre-addressed handles straight into the Minimum case logic: no store
// lookup and no pipeline loop.
void BM_Apply(benchmark::State& state, SimdKernel kernel) {
  HeavyKeeper sketch = BareSketch(kernel);
  const auto& packets = CacheTrace();
  HeavyKeeper::Prepared prepared[kBurst];
  size_t i = 0;
  for (auto _ : state) {
    if (i + kBurst > packets.size()) {
      i = 0;
    }
    sketch.PrepareBatch(packets.data() + i, kBurst, prepared);
    for (size_t j = 0; j < kBurst; ++j) {
      sketch.Prefetch(prepared[j]);
    }
    uint64_t sink = 0;
    for (size_t j = 0; j < kBurst; ++j) {
      sink += sketch.InsertMinimumPrepared(prepared[j], /*monitored=*/false, /*nmin=*/8);
    }
    benchmark::DoNotOptimize(sink);
    i += kBurst;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kBurst));
}

// --- L2 / L3: the pipelines ----------------------------------------------

void BM_Insert(benchmark::State& state, std::string spec, size_t bytes, TraceFn trace) {
  auto algo = Make(spec, bytes);
  const auto& packets = trace();
  size_t i = 0;
  for (auto _ : state) {
    algo->Insert(packets[i]);
    if (++i == packets.size()) {
      i = 0;
    }
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_InsertBatch(benchmark::State& state, std::string spec, size_t bytes, TraceFn trace,
                    size_t burst) {
  auto algo = Make(spec, bytes);
  const auto& packets = trace();
  size_t i = 0;
  for (auto _ : state) {
    if (i + burst > packets.size()) {
      i = 0;
    }
    algo->InsertBatch(std::span<const FlowId>(packets.data() + i, burst));
    i += burst;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(burst));
}

// The same binary and the same instrumented InsertBatch with the runtime
// telemetry switch on or off: what the counters cost.
void BM_Telemetry(benchmark::State& state, size_t bytes, bool enabled) {
  telemetry::Registry::Get().SetEnabled(enabled);
  BM_InsertBatch(state, "HK-Minimum", bytes, TelemetryTrace, 256);
  telemetry::Registry::Get().SetEnabled(true);
}

// Point queries of mostly cold, untracked flows against a populated
// sketch: the Window merge-and-rescore shape.
void BM_QueryBatch(benchmark::State& state, std::string spec) {
  auto algo = Make(spec, kCacheBytes);
  const auto& packets = CacheTrace();
  algo->InsertBatch(std::span<const FlowId>(packets.data(), packets.size() / 2));
  uint64_t out[kBurst];
  size_t i = 0;
  for (auto _ : state) {
    if (i + kBurst > packets.size()) {
      i = 0;
    }
    algo->EstimateSizeBatch(std::span<const FlowId>(packets.data() + i, kBurst),
                            std::span<uint64_t>(out, kBurst));
    benchmark::DoNotOptimize(out[0]);
    i += kBurst;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kBurst));
}

// A mouse flood of distinct byte-weighted flows against a sketch whose
// store and buckets elephants hold, so every packet takes the unmonitored
// weighted path: per-unit coin replay, or one geometric sample per
// counter level with wdecay=collapsed.
void BM_UnmonitoredWeighted(benchmark::State& state, std::string spec) {
  auto algo = Make(spec, 64 * 1024);
  Rng rng(29);
  for (int e = 0; e < 8000; ++e) {
    algo->InsertWeighted(1'000'000 + e, 300 + rng.NextBounded(200));
  }
  FlowId next = 2'000'000;
  for (auto _ : state) {
    algo->InsertWeighted(next++, kMouseWeight);
  }
  state.SetItemsProcessed(state.iterations());
}

// --- L4: front-ends over one inner ---------------------------------------

void StreamOnce(TopKAlgorithm& algo, const std::vector<FlowId>& packets) {
  for (size_t base = 0; base < packets.size(); base += kStreamBurst) {
    const size_t n = std::min(kStreamBurst, packets.size() - base);
    algo.InsertBatch(std::span<const FlowId>(packets.data() + base, n));
  }
  algo.Flush();
}

// One untimed pass first: it faults in the fresh sketch's pages. On a VM
// that can cost more than the pass itself; timed, it made the threaded
// rows read about the same for every n.
void BM_WholeStream(benchmark::State& state, std::string spec, size_t bytes) {
  auto algo = Make(spec, bytes);
  const auto& packets = DramTrace();
  StreamOnce(*algo, packets);
  for (auto _ : state) {
    StreamOnce(*algo, packets);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(packets.size()));
}

std::string WindowSpec(size_t w) {
  return "Window:w=" + std::to_string(w) + ",epoch=" + std::to_string(kEpochPackets) +
         ",inner=HK-Minimum";
}

void BM_WindowSnapshot(benchmark::State& state) {
  auto algo = Make(WindowSpec(8), kWindowBytes);
  algo->InsertBatch(DramTrace());
  algo->Flush();
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo->TopK(100));
  }
  state.SetItemsProcessed(state.iterations());
}

// --- L5 / L6: capture parse and replay -----------------------------------

uint64_t ParseAll(PcapReader& reader, FlowId* sink) {
  PacketRecord records[kBurst];
  uint64_t packets = 0;
  size_t n = 0;
  while ((n = reader.NextBatch(records)) > 0) {
    for (size_t j = 0; j < n; ++j) {
      *sink ^= records[j].id;
    }
    packets += n;
  }
  return packets;
}

void BM_ParseSlurp(benchmark::State& state) {
  PcapReader reader(PcapKeyPolicy::kFiveTuple);
  if (!reader.Open(CapturePath())) {
    state.SkipWithError(reader.error().c_str());
    return;
  }
  uint64_t packets = 0;
  FlowId sink = 0;
  for (auto _ : state) {
    reader.Rewind();
    packets += ParseAll(reader, &sink);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<int64_t>(packets));
}

void BM_ParseStream(benchmark::State& state) {
  uint64_t packets = 0;
  FlowId sink = 0;
  for (auto _ : state) {
    PcapReader reader(PcapKeyPolicy::kFiveTuple);
    if (!reader.OpenStream(MakeFileByteSource(CapturePath()))) {
      state.SkipWithError(reader.error().c_str());
      return;
    }
    packets += ParseAll(reader, &sink);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<int64_t>(packets));
}

// The key-extraction hash NextBatch runs over each burst of records.
void BM_HashBytes(benchmark::State& state, size_t len, SimdKernel kernel) {
  const auto& packets = CacheTrace();
  std::vector<uint8_t> keys(kBurst * simd::kHashBatchStride);
  for (size_t i = 0; i < kBurst; ++i) {
    std::memcpy(keys.data() + i * simd::kHashBatchStride, &packets[i], sizeof(FlowId));
    std::memcpy(keys.data() + i * simd::kHashBatchStride + 8, &packets[i], sizeof(FlowId));
  }
  uint64_t out[kBurst];
  for (auto _ : state) {
    simd::HashBytesBatch(kernel, keys.data(), kBurst, len, 0x68656176796b6565ULL, out);
    benchmark::DoNotOptimize(out[0]);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kBurst));
}

// The capture's ids, parsed once; empty when the capture is unreadable.
const std::vector<FlowId>& CaptureIds() {
  static const std::vector<FlowId> ids = [] {
    std::vector<FlowId> out;
    PcapReader reader(PcapKeyPolicy::kFiveTuple);
    PacketRecord record;
    if (reader.Open(CapturePath())) {
      while (reader.Next(&record)) {
        out.push_back(record.id);
      }
    }
    return out;
  }();
  return ids;
}

// The capture's ids in kBurst bursts, as hk_serve's ingest applies them.
void ApplyCaptureIds(TopKAlgorithm& algo) {
  const std::vector<FlowId>& ids = CaptureIds();
  for (size_t i = 0; i < ids.size(); i += kBurst) {
    algo.InsertBatch(std::span<const FlowId>(ids).subspan(i, std::min(kBurst, ids.size() - i)));
  }
  algo.Flush();
}

// The apply half of L6/replay: the capture's ids, parsed once outside the
// timer, applied in kBurst bursts into the same sketch. Replay overlaps its
// parse with this, so it can run at most at the slower of the two rates.
void BM_ApplyCapture(benchmark::State& state, std::string spec) {
  if (CaptureIds().empty()) {
    state.SkipWithError("capture unreadable");
    return;
  }
  auto algo = Make(spec, kReplayBytes, KeyKind::kFiveTuple13B);
  for (auto _ : state) {
    ApplyCaptureIds(*algo);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(CaptureIds().size()));
}

void BM_Replay(benchmark::State& state, std::string spec, bool byte_weighted) {
  PcapReader reader(PcapKeyPolicy::kFiveTuple);
  if (!reader.Open(CapturePath())) {
    state.SkipWithError(reader.error().c_str());
    return;
  }
  auto algo = Make(spec, kReplayBytes, KeyKind::kFiveTuple13B);
  ReplayOptions options;
  options.byte_weighted = byte_weighted;
  const TraceReplayer replayer(options);
  uint64_t packets = 0;
  for (auto _ : state) {
    reader.Rewind();
    packets += replayer.Replay(reader, *algo).packets;
  }
  state.SetItemsProcessed(static_cast<int64_t>(packets));
}

// --- L8: queries ----------------------------------------------------------

constexpr char kQuerySpec[] = "HK-Minimum:mem=8MB";

// Snapshot(100) of a sketch holding the capture, drained first.
void BM_Snapshot(benchmark::State& state, std::string spec) {
  if (CaptureIds().empty()) {
    state.SkipWithError("capture unreadable");
    return;
  }
  auto algo = Make(spec, kReplayBytes, KeyKind::kFiveTuple13B);
  ApplyCaptureIds(*algo);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo->Snapshot(QueryOptions{100, ConsistencyLevel::kExact}));
  }
  state.SetItemsProcessed(state.iterations());
}

// An in-process hk_serve core whose one instance (kQuerySpec, built with
// the defaults BM_Snapshot uses) has ingested the whole capture; null when
// CREATE or ATTACH failed.
ServeCore* QueryCore() {
  static const std::unique_ptr<ServeCore> core = [] {
    ServeOptions options;
    options.defaults = Defaults(kReplayBytes, KeyKind::kFiveTuple13B);
    options.ingest_batch = kBurst;
    auto built = std::make_unique<ServeCore>(options);
    if (built->Execute(std::string("CREATE flows ") + kQuerySpec) != "OK created flows\n" ||
        built->Execute("ATTACH flows " + CapturePath()) != "OK attached flows\n") {
      return std::unique_ptr<ServeCore>();
    }
    built->DrainIngest();
    return built;
  }();
  return core.get();
}

using RequestsFn = std::vector<std::string> (*)();

std::vector<std::string> TopKRequests() { return {"TOPK flows 100"}; }

// POINT requests for the capture's first 256 packets: elephants and mice.
std::vector<std::string> PointRequests() {
  std::vector<std::string> requests;
  const std::vector<FlowId>& ids = CaptureIds();
  for (size_t i = 0; i < std::min<size_t>(256, ids.size()); ++i) {
    char line[64];
    std::snprintf(line, sizeof(line), "POINT flows %llx", static_cast<unsigned long long>(ids[i]));
    requests.emplace_back(line);
  }
  return requests;
}

// ServeCore::Execute of the requests in turn on the drained instance.
void BM_Execute(benchmark::State& state, RequestsFn make_requests) {
  ServeCore* core = QueryCore();
  const std::vector<std::string> requests = make_requests();
  if (core == nullptr || requests.empty()) {
    state.SkipWithError("CREATE or ATTACH failed");
    return;
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core->Execute(requests[i]));
    if (++i == requests.size()) {
      i = 0;
    }
  }
  state.SetItemsProcessed(state.iterations());
}

// --- L9: checkpoint -------------------------------------------------------

const TopKAlgorithm& CheckpointSketch() {
  static const std::unique_ptr<TopKAlgorithm> algo = [] {
    auto built = Make("HK-Minimum:d=4", kCheckpointBytes);
    built->InsertBatch(CacheTrace());
    built->Flush();
    return built;
  }();
  return *algo;
}

// The checkpoint sketch's geometry with every bucket occupied: the
// encoder's worst case, a mask per 64 words on top of the slab.
const TopKAlgorithm& DenseCheckpointSketch() {
  static const std::unique_ptr<TopKAlgorithm> algo = [] {
    auto built = Make("HK-Minimum:d=4", kCheckpointBytes);
    HeavyKeeper& sketch = dynamic_cast<HeavyKeeperTopK<>&>(*built).sketch();
    const auto occupy_all = [](std::span<uint8_t> slab) {
      const uint32_t occupied = 0x00010001;  // fingerprint 1, count 1
      for (size_t at = 0; at < slab.size(); at += sizeof(occupied)) {
        std::memcpy(slab.data() + at, &occupied, sizeof(occupied));
      }
      return true;
    };
    sketch = *HeavyKeeper::Restore(sketch.config(), 0, 0, std::nullopt, occupy_all);
    return built;
  }();
  return *algo;
}

std::span<const uint8_t> SlabOf(const TopKAlgorithm& algo) {
  return dynamic_cast<const HeavyKeeperTopK<>&>(algo).sketch().SlabImage();
}

const std::vector<uint8_t>& CheckpointBlob() {
  static const std::vector<uint8_t> blob = [] {
    std::vector<uint8_t> out;
    CheckpointSketch().SaveState(&out);
    return out;
  }();
  return blob;
}

void SetSlabItems(benchmark::State& state, const TopKAlgorithm& algo = CheckpointSketch()) {
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(SlabOf(algo).size()));
}

using SketchFn = const TopKAlgorithm& (*)();

// SaveState into a buffer reused across iterations, as
// ServeCore::WriteCheckpoint reuses each instance's from one checkpoint to
// the next (a fresh one would time first-touch page faults).
void BM_Save(benchmark::State& state, SketchFn sketch) {
  const TopKAlgorithm& algo = sketch();
  std::vector<uint8_t> out;
  for (auto _ : state) {
    out.clear();
    out.reserve(StateReserveBytes(algo.MemoryBytes()));
    if (!algo.SaveState(&out)) {
      state.SkipWithError("SaveState failed");
      break;
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  SetSlabItems(state, algo);
}

// The denominator of L9/save: the sketch's slab copied into a reused
// buffer, what SaveState cost when the blob was the slab image.
void BM_Copy(benchmark::State& state, SketchFn sketch) {
  const TopKAlgorithm& algo = sketch();
  const std::span<const uint8_t> slab = SlabOf(algo);
  std::vector<uint8_t> out;
  for (auto _ : state) {
    out.clear();
    out.reserve(StateReserveBytes(algo.MemoryBytes()));
    out.insert(out.end(), slab.begin(), slab.end());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  SetSlabItems(state, algo);
}

using simd::Crc32Kernel;

// Crc32 as a checkpoint runs it (the kernel the host dispatches to), and
// the table loop alone: bench/gates.py holds their ratio.
void BM_Crc(benchmark::State& state, Crc32Kernel kernel) {
  const std::vector<uint8_t>& blob = CheckpointBlob();
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel(blob.data(), blob.size(), 0));
  }
  SetSlabItems(state);
}

const CheckpointManifest& LadderManifest() {
  static const CheckpointManifest manifest = [] {
    CheckpointInstance instance;
    instance.name = "ladder";
    instance.spec = "HK-Minimum:d=4";
    instance.memory_bytes = kCheckpointBytes;
    instance.state = CheckpointBlob();
    CheckpointManifest out;
    out.instances.push_back(std::move(instance));
    return out;
  }();
  return manifest;
}

std::string CheckpointPath() { return (ScratchDir() / "ladder.hkc").string(); }

void BM_Write(benchmark::State& state) {
  std::string error;
  for (auto _ : state) {
    if (!WriteCheckpointAtomic(CheckpointPath(), LadderManifest(), &error)) {
      state.SkipWithError(error.c_str());
      break;
    }
  }
  SetSlabItems(state);
}

// Recovery's read: LoadCheckpoint of the file L9/write writes (written
// here first, since the rows run in random order), with the state left in
// the file buffer, as ServeCore::Recover reads it.
void BM_Load(benchmark::State& state) {
  std::string error;
  if (!WriteCheckpointAtomic(CheckpointPath(), LadderManifest(), &error)) {
    state.SkipWithError(error.c_str());
    return;
  }
  for (auto _ : state) {
    LoadedCheckpoint loaded;
    if (!LoadCheckpoint(CheckpointPath(), &loaded, &error)) {
      state.SkipWithError(error.c_str());
      break;
    }
    benchmark::DoNotOptimize(loaded.states.data());
  }
  SetSlabItems(state);
}

void RegisterRows() {
  using benchmark::RegisterBenchmark;
  // Vector rows only where the host has the kernel; bench/gates.py skips
  // its avx2 gate when the context says scalar.
  std::vector<SimdKernel> kernels = {SimdKernel::kScalar};
  if (const SimdKernel best = ResolveSimdKernel(SimdMode::kAuto); best != SimdKernel::kScalar) {
    kernels.push_back(best);
  }
  for (const SimdKernel kernel : kernels) {
    const std::string k = SimdKernelName(kernel);
    const std::string simd = ",simd=" + k;
    RegisterBenchmark(("L0/prepare/" + k).c_str(), BM_Prepare, kernel);
    RegisterBenchmark(("L1/apply/" + k).c_str(), BM_Apply, kernel);
    RegisterBenchmark(("L2/insert/" + k).c_str(), BM_Insert, "HK-Minimum:d=4" + simd, kCacheBytes,
                      CacheTrace);
    RegisterBenchmark(("L3/insert_batch/" + k).c_str(), BM_InsertBatch, "HK-Minimum:d=4" + simd,
                      kCacheBytes, CacheTrace, kBurst);
    RegisterBenchmark(("L3/insert_batch/d2/" + k).c_str(), BM_InsertBatch, "HK-Minimum:d=2" + simd,
                      kCacheBytes, CacheTrace, kBurst);
    RegisterBenchmark(("L3/insert_batch/HK-Parallel/" + k).c_str(), BM_InsertBatch,
                      "HK-Parallel:d=4" + simd, kCacheBytes, CacheTrace, kBurst);
    RegisterBenchmark(("L3/query_batch/" + k).c_str(), BM_QueryBatch, "HK-Minimum:d=4" + simd);
    for (const size_t len : {size_t{4}, size_t{8}, size_t{13}}) {
      RegisterBenchmark(("L5/hash_bytes/" + std::to_string(len) + "/" + k).c_str(), BM_HashBytes,
                        len, kernel);
    }
  }

  for (const std::string spec : {"HK-Minimum", "HK-Parallel"}) {
    RegisterBenchmark(("L2/dram/" + spec + "/insert").c_str(), BM_Insert, spec, kDramBytes,
                      DramTrace);
    for (const size_t burst : {size_t{32}, size_t{256}, size_t{4096}}) {
      RegisterBenchmark(("L3/dram/" + spec + "/burst:" + std::to_string(burst)).c_str(),
                        BM_InsertBatch, spec, kDramBytes, DramTrace, burst);
    }
  }
  RegisterBenchmark("L3/telemetry/off", BM_Telemetry, kDramBytes, false);
  RegisterBenchmark("L3/telemetry/on", BM_Telemetry, kDramBytes, true);
  RegisterBenchmark("L3/telemetry/small/off", BM_Telemetry, size_t{50 * 1024}, false);
  RegisterBenchmark("L3/telemetry/small/on", BM_Telemetry, size_t{50 * 1024}, true);
  RegisterBenchmark("L2/weighted/replay", BM_UnmonitoredWeighted, "HK-Minimum:cb=32");
  RegisterBenchmark("L2/weighted/collapsed", BM_UnmonitoredWeighted,
                    "HK-Minimum:cb=32,wdecay=collapsed");

  RegisterBenchmark("L4/sharded/single", BM_WholeStream, "HK-Minimum", kDramBytes)
      ->Unit(benchmark::kMillisecond);
  for (const int n : {1, 2, 4, 8}) {
    // Workers run off-thread: wall time is the result.
    RegisterBenchmark(("L4/sharded/n:" + std::to_string(n)).c_str(), BM_WholeStream,
                      "Sharded:n=" + std::to_string(n) + ",threads=1,inner=HK-Minimum", kDramBytes)
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
  }
  RegisterBenchmark("L4/window/inner", BM_WholeStream, "HK-Minimum", kWindowBytes)
      ->Unit(benchmark::kMillisecond);
  RegisterBenchmark("L4/window/w:8", BM_WholeStream, WindowSpec(8), kWindowBytes)
      ->Unit(benchmark::kMillisecond);
  RegisterBenchmark("L4/window/snapshot", BM_WindowSnapshot)->Unit(benchmark::kMillisecond);

  RegisterBenchmark("L5/parse/slurp", BM_ParseSlurp)->Unit(benchmark::kMillisecond);
  RegisterBenchmark("L5/parse/stream", BM_ParseStream)->Unit(benchmark::kMillisecond);
  RegisterBenchmark("L6/apply/HK-Minimum", BM_ApplyCapture, "HK-Minimum")
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
  // Replay parses on a second thread (or the workers apply off-thread):
  // wall time is the result.
  for (const std::string spec : {"HK-Minimum", "Sharded:n=4,threads=1,inner=HK-Minimum"}) {
    RegisterBenchmark(("L6/replay/" + spec).c_str(), BM_Replay, spec, false)
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
  }
  RegisterBenchmark("L6/replay_bytes/HK-Minimum:cb=32,wdecay=collapsed", BM_Replay,
                    "HK-Minimum:cb=32,wdecay=collapsed", true)
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();

  RegisterBenchmark("L8/snapshot/HK-Minimum", BM_Snapshot, std::string(kQuerySpec));
  RegisterBenchmark("L8/snapshot/Sharded", BM_Snapshot,
                    "Sharded:n=2,threads=1,mem=32MB,inner=HK-Minimum:d=4");
  RegisterBenchmark("L8/execute/topk", BM_Execute, &TopKRequests);
  RegisterBenchmark("L8/execute/point", BM_Execute, &PointRequests);

  for (const auto& [suffix, sketch] :
       {std::pair{"", &CheckpointSketch}, std::pair{"/dense", &DenseCheckpointSketch}}) {
    RegisterBenchmark((std::string("L9/copy") + suffix).c_str(), BM_Copy, sketch)
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
    RegisterBenchmark((std::string("L9/save") + suffix).c_str(), BM_Save, sketch)
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
  }
  const Crc32Kernel dispatched = &Crc32;
  const Crc32Kernel table = &Crc32Table;
  RegisterBenchmark("L9/crc", BM_Crc, dispatched)->Unit(benchmark::kMillisecond)->UseRealTime();
  RegisterBenchmark("L9/crc/table", BM_Crc, table)->Unit(benchmark::kMillisecond)->UseRealTime();
  RegisterBenchmark("L9/write", BM_Write)->Unit(benchmark::kMillisecond)->UseRealTime();
  RegisterBenchmark("L9/load", BM_Load)->Unit(benchmark::kMillisecond)->UseRealTime();
}

}  // namespace

int main(int argc, char** argv) {
  // The run settings the gates assume; flags given on the command line
  // come after these and win.
  static char min_time[] = "--benchmark_min_time=0.2";
  static char repetitions[] = "--benchmark_repetitions=3";
  static char interleave[] = "--benchmark_enable_random_interleaving=true";
  static char aggregates[] = "--benchmark_report_aggregates_only=true";
  std::vector<char*> args = {argv[0], min_time, repetitions, interleave, aggregates};
  args.insert(args.end(), argv + 1, argv + argc);
  int args_count = static_cast<int>(args.size());
  args.push_back(nullptr);

  RegisterRows();
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::AddCustomContext("simd_kernel", SimdKernelName(ResolveSimdKernel(SimdMode::kAuto)));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
