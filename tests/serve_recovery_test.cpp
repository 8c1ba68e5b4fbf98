// hk_serve crash-recovery tests (the ISSUE's kill-point suite, run
// in-process): a daemon killed at any synthetic kill point - mid-ingest,
// mid-checkpoint-write, with a torn manifest, with a stale temp file -
// recovers from the latest durable checkpoint into a well-formed sketch,
// with loss bounded by the checkpoint interval (zero for replayable file
// sources, whose applied prefix is skipped on re-attach), and never loads
// a corrupt manifest.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ingest/capture_synth.h"
#include "serve/checkpoint.h"
#include "serve/net.h"
#include "serve/serve_core.h"
#include "sketch/registry.h"
#include "trace/generators.h"
#include "trace/oracle.h"

namespace hk {
namespace {

#ifndef HK_TEST_DATA_DIR
#define HK_TEST_DATA_DIR "tests/data"
#endif

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

SketchDefaults SmallDefaults() {
  SketchDefaults d;
  d.memory_bytes = 32 * 1024;
  d.k = 50;
  d.key_kind = KeyKind::kFiveTuple13B;
  d.seed = 1;
  return d;
}

ServeOptions OptionsWithCheckpoint(const std::string& ckpt) {
  ServeOptions options;
  options.checkpoint_path = ckpt;
  options.defaults = SmallDefaults();
  options.ingest_batch = 64;  // more checkpoint cut points per capture
  return options;
}

// A capture synthesized once per process, with its exact oracle. ctest
// runs each test case as its own process, several at once, so the file
// name carries the pid (no process rewrites a capture another is reading)
// and each process removes its own file at exit.
struct Fixture {
  Fixture(const std::string& name, const ZipfTraceConfig& config)
      : path(TempPath(name + "_" + std::to_string(::getpid()) + ".pcap")),
        trace(SynthesizeCapture(config, path, CaptureSynthOptions{})),
        oracle(trace) {}
  ~Fixture() { std::remove(path.c_str()); }

  std::string path;
  Trace trace;
  Oracle oracle;
};

// One larger capture shared by the suite (ingest takes long enough that a
// checkpoint usually lands mid-stream; every assertion also holds when it
// lands after EOF).
const Fixture& Capture() {
  static const Fixture fixture("serve_recovery", CampusConfig(120000, 9));
  return fixture;
}

// Deterministic reference: Space-Saving has no randomized transitions, so
// any interleaving of batches - including a checkpoint/recover seam at an
// arbitrary cut - must reproduce the uninterrupted run bit for bit.
constexpr const char kSpec[] = "SS:mem=24KB";

std::unique_ptr<TopKAlgorithm> ReferenceFedPrefix(uint64_t packets) {
  auto ref = MakeSketch(kSpec, SmallDefaults());
  std::span<const FlowId> prefix(Capture().trace.packets.data(), packets);
  ref->InsertBatch(prefix);
  return ref;
}

// `spelling` prefixes the capture path: "" for the bare path, or
// "stream:", which checkpoints written by earlier builds carry.
void RecoverWithZeroLossFromFileSource(const std::string& spelling) {
  const Fixture& fx = Capture();
  const std::string ckpt = TempPath("reco_mid_ingest.hk");
  std::remove(ckpt.c_str());

  uint64_t offset_at_checkpoint = 0;
  {
    ServeCore core(OptionsWithCheckpoint(ckpt));
    std::string err;
    ASSERT_TRUE(core.Create("t", kSpec, &err)) << err;
    SourceBinding binding;
    binding.source = spelling + fx.path;
    ASSERT_TRUE(core.Attach("t", binding, &err)) << err;
    // Let some of the stream land, then checkpoint - usually mid-ingest.
    while (core.PacketsApplied("t") < 2000) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    ASSERT_TRUE(core.WriteCheckpoint(&err)) << err;
    LoadedCheckpoint m;
    ASSERT_TRUE(LoadCheckpoint(ckpt, &m, &err)) << err;
    ASSERT_EQ(m.manifest.instances.size(), 1u);
    offset_at_checkpoint = m.manifest.instances[0].packets_applied;
    EXPECT_GE(offset_at_checkpoint, 2000u);
    // Crash: the core dies here; everything applied after the checkpoint
    // is lost with the process.
  }

  ServeCore revived(OptionsWithCheckpoint(ckpt));
  size_t recovered = 0;
  std::string err;
  ASSERT_TRUE(revived.Recover(&recovered, &err)) << err;
  EXPECT_EQ(recovered, 1u);
  // The applied offset resumed from the durable cut, not from zero.
  EXPECT_GE(revived.PacketsApplied("t"), offset_at_checkpoint);
  revived.DrainIngest();
  const std::string stats = revived.Execute("STATS t");
  EXPECT_NE(stats.find("STAT source " + spelling + fx.path + "\n"), std::string::npos) << stats;
  EXPECT_EQ(stats.find("STAT ingest_error"), std::string::npos) << stats;
  // Zero loss: the file source replays with the checkpointed prefix
  // skipped, so the final state equals an uninterrupted run's.
  EXPECT_EQ(revived.PacketsApplied("t"), fx.trace.packets.size());
  auto reference = ReferenceFedPrefix(fx.trace.packets.size());
  const auto got = revived.Execute("TOPK t 20 exact");
  std::string want;
  for (const auto& fc : reference->TopK(20)) {
    char line[64];
    std::snprintf(line, sizeof(line), "FLOW %llx %llu\n",
                  static_cast<unsigned long long>(fc.id),
                  static_cast<unsigned long long>(fc.count));
    want += line;
  }
  EXPECT_EQ(got.substr(0, want.size()), want);
}

TEST(ServeRecovery, KilledMidIngestRecoversWithZeroLossFromFileSource) {
  for (const std::string spelling : {"", "stream:"}) {
    SCOPED_TRACE("source " + spelling + "<path>");
    RecoverWithZeroLossFromFileSource(spelling);
  }
}

// Each instance's state buffer is reused from one checkpoint to the next:
// two checkpoints with no ingest between them write the same bytes.
TEST(ServeRecovery, BackToBackCheckpointsWriteIdenticalFiles) {
  const std::string ckpt = TempPath("reco_twice_" + std::to_string(::getpid()) + ".hk");
  std::remove(ckpt.c_str());
  ServeCore core(OptionsWithCheckpoint(ckpt));
  std::string err;
  ASSERT_TRUE(core.Create("fed", "HK-Minimum", &err)) << err;
  ASSERT_TRUE(core.Create("idle", kSpec, &err)) << err;
  SourceBinding binding;
  binding.source = Capture().path;
  ASSERT_TRUE(core.Attach("fed", binding, &err)) << err;
  core.DrainIngest();
  const auto checkpoint_bytes = [&] {
    EXPECT_TRUE(core.WriteCheckpoint(&err)) << err;
    std::ifstream in(ckpt, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  };
  const std::string first = checkpoint_bytes();
  const std::string second = checkpoint_bytes();
  EXPECT_FALSE(first.empty());
  EXPECT_TRUE(first == second) << first.size() << " bytes, then " << second.size();
  LoadedCheckpoint loaded;
  ASSERT_TRUE(LoadCheckpoint(ckpt, &loaded, &err)) << err;
  ASSERT_EQ(loaded.manifest.instances.size(), 2u);
  EXPECT_EQ(loaded.manifest.instances[0].packets_applied, Capture().trace.packets.size());
  std::remove(ckpt.c_str());
}

// The recovery skip reads in ingest_batch bursts and must stop exactly at
// the checkpointed offset when that offset is not a multiple of the batch.
// The checkpoint is cut by 64-record bursts and the revived daemon reads
// 100 at a time; the capture's length is a multiple of neither, so even a
// cut at end of stream leaves the skip's last burst short.
TEST(ServeRecovery, SkipEndingMidBurstRecoversExactly) {
  static const Fixture fx("serve_recovery_odd", CampusConfig(120037, 9));
  const std::string ckpt = TempPath("reco_mid_burst_" + std::to_string(::getpid()) + ".hk");
  std::remove(ckpt.c_str());

  uint64_t cut = 0;
  {
    ServeCore core(OptionsWithCheckpoint(ckpt));
    std::string err;
    ASSERT_TRUE(core.Create("t", kSpec, &err)) << err;
    SourceBinding binding;
    binding.source = fx.path;
    ASSERT_TRUE(core.Attach("t", binding, &err)) << err;
    while (core.PacketsApplied("t") < 2000) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    // Checkpoint again while the cut lands on a 100-record boundary.
    do {
      ASSERT_TRUE(core.WriteCheckpoint(&err)) << err;
      LoadedCheckpoint m;
      ASSERT_TRUE(LoadCheckpoint(ckpt, &m, &err)) << err;
      cut = m.manifest.instances[0].packets_applied;
    } while (cut % 100 == 0);
  }

  ServeOptions revived_options = OptionsWithCheckpoint(ckpt);
  revived_options.ingest_batch = 100;
  ServeCore revived(revived_options);
  size_t recovered = 0;
  std::string err;
  ASSERT_TRUE(revived.Recover(&recovered, &err)) << err;
  EXPECT_EQ(recovered, 1u);
  revived.DrainIngest();
  EXPECT_EQ(revived.PacketsApplied("t"), fx.trace.packets.size()) << "cut " << cut;
  EXPECT_EQ(revived.Execute("STATS t").find("STAT ingest_error"), std::string::npos);

  // The uninterrupted run's top flows...
  auto uninterrupted = MakeSketch(kSpec, SmallDefaults());
  uninterrupted->InsertBatch(fx.trace.packets);
  std::string want;
  for (const auto& fc : uninterrupted->TopK(20)) {
    char line[64];
    std::snprintf(line, sizeof(line), "FLOW %llx %llu\n",
                  static_cast<unsigned long long>(fc.id),
                  static_cast<unsigned long long>(fc.count));
    want += line;
  }
  EXPECT_EQ(revived.Execute("TOPK t 20 exact").substr(0, want.size()), want);
  // ...and byte-equal state against a sketch that crosses the same
  // save/load seam at the same cut (LoadState rebuilds Space-Saving's
  // layout, so only a seam-for-seam reference compares byte for byte).
  const std::span<const FlowId> packets(fx.trace.packets);
  auto prefix = MakeSketch(kSpec, SmallDefaults());
  prefix->InsertBatch(packets.first(cut));
  std::vector<uint8_t> seam;
  ASSERT_TRUE(prefix->SaveState(&seam));
  auto reference = MakeSketch(kSpec, SmallDefaults());
  ASSERT_TRUE(reference->LoadState(seam.data(), seam.size()));
  reference->InsertBatch(packets.subspan(cut));
  std::vector<uint8_t> reference_state;
  ASSERT_TRUE(reference->SaveState(&reference_state));
  ASSERT_TRUE(revived.WriteCheckpoint(&err)) << err;
  LoadedCheckpoint m;
  ASSERT_TRUE(LoadCheckpoint(ckpt, &m, &err)) << err;
  ASSERT_EQ(m.manifest.instances.size(), 1u);
  EXPECT_TRUE(std::ranges::equal(m.states[0], reference_state)) << "cut " << cut;
  std::remove(ckpt.c_str());
}

TEST(ServeRecovery, WindowedInstanceRecoversRingContentsIntact) {
  // Kill point for the sliding-window ring: checkpoint mid-ingest after
  // several rotations, crash, recover, finish the stream. The checkpoint
  // must carry all W slots plus the rotation cursor - a missing slot or a
  // reset cursor would desynchronize every later rotation, so bit-equality
  // with the uninterrupted run proves the ring survived whole.
  const Fixture& fx = Capture();
  constexpr const char kWinSpec[] = "Window:w=4,epoch=1000,inner=SS:mem=24KB";
  const std::string ckpt = TempPath("reco_windowed.hk");
  std::remove(ckpt.c_str());

  uint64_t offset_at_checkpoint = 0;
  {
    ServeCore core(OptionsWithCheckpoint(ckpt));
    std::string err;
    ASSERT_TRUE(core.Create("t", kWinSpec, &err)) << err;
    SourceBinding binding;
    binding.source = fx.path;
    ASSERT_TRUE(core.Attach("t", binding, &err)) << err;
    // Past 5000 packets the 1000-packet ring has rotated 5+ times, so the
    // checkpoint cut lands with a populated ring and a mid-epoch cursor.
    while (core.PacketsApplied("t") < 5000) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    ASSERT_TRUE(core.WriteCheckpoint(&err)) << err;
    LoadedCheckpoint m;
    ASSERT_TRUE(LoadCheckpoint(ckpt, &m, &err)) << err;
    offset_at_checkpoint = m.manifest.instances[0].packets_applied;
    EXPECT_GE(offset_at_checkpoint, 5000u);
    // Crash here.
  }

  ServeCore revived(OptionsWithCheckpoint(ckpt));
  size_t recovered = 0;
  std::string err;
  ASSERT_TRUE(revived.Recover(&recovered, &err)) << err;
  EXPECT_EQ(recovered, 1u);
  EXPECT_GE(revived.PacketsApplied("t"), offset_at_checkpoint);
  revived.DrainIngest();
  EXPECT_EQ(revived.PacketsApplied("t"), fx.trace.packets.size());

  // Uninterrupted reference ring over the whole capture (SS inner: fully
  // deterministic, and the batch == scalar contract makes the ingest
  // thread's burst shape irrelevant).
  auto reference = MakeSketch(kWinSpec, SmallDefaults());
  reference->InsertBatch(fx.trace.packets);
  const std::string got = revived.Execute("TOPK t 20 window");
  std::string want;
  for (const auto& fc : reference->TopK(20)) {
    char line[64];
    std::snprintf(line, sizeof(line), "FLOW %llx %llu\n",
                  static_cast<unsigned long long>(fc.id),
                  static_cast<unsigned long long>(fc.count));
    want += line;
  }
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(got.substr(0, want.size()), want);
  // The rotation cursor also survived: 120000 packets / 1000 per epoch.
  EXPECT_NE(got.find(" completed_epochs=120"), std::string::npos) << got;
  std::remove(ckpt.c_str());
}

TEST(ServeRecovery, KilledDuringCheckpointWriteRecoversFromPreviousDurableOne) {
  const Fixture& fx = Capture();
  const std::string ckpt = TempPath("reco_mid_write.hk");
  std::remove(ckpt.c_str());

  uint64_t durable_offset = 0;
  {
    ServeCore core(OptionsWithCheckpoint(ckpt));
    std::string err;
    ASSERT_TRUE(core.Create("t", kSpec, &err)) << err;
    SourceBinding binding;
    binding.source = fx.path;
    ASSERT_TRUE(core.Attach("t", binding, &err)) << err;
    while (core.PacketsApplied("t") < 1000) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    ASSERT_TRUE(core.WriteCheckpoint(&err)) << err;
    LoadedCheckpoint m;
    ASSERT_TRUE(LoadCheckpoint(ckpt, &m, &err)) << err;
    durable_offset = m.manifest.instances[0].packets_applied;
  }
  // Kill point: the next checkpoint died mid-write, leaving a partial
  // temp file beside the intact previous manifest (exactly what the
  // atomic write protocol guarantees is the worst case).
  {
    std::ofstream torn(ckpt + ".tmp", std::ios::binary | std::ios::trunc);
    torn << "HKSERVE1 but torn before the payload landed";
  }

  ServeCore revived(OptionsWithCheckpoint(ckpt));
  size_t recovered = 0;
  std::string err;
  ASSERT_TRUE(revived.Recover(&recovered, &err)) << err;
  EXPECT_EQ(recovered, 1u);
  EXPECT_GE(revived.PacketsApplied("t"), durable_offset);
  revived.DrainIngest();
  EXPECT_EQ(revived.PacketsApplied("t"), fx.trace.packets.size());
  // The stale temp was cleared, not promoted.
  std::ifstream tmp(ckpt + ".tmp");
  EXPECT_FALSE(tmp.good());
}

TEST(ServeRecovery, TornManifestIsRejectedNotHalfLoaded) {
  const Fixture& fx = Capture();
  const std::string ckpt = TempPath("reco_torn.hk");
  {
    ServeCore core(OptionsWithCheckpoint(ckpt));
    std::string err;
    ASSERT_TRUE(core.Create("t", kSpec, &err)) << err;
    SourceBinding binding;
    binding.source = fx.path;
    ASSERT_TRUE(core.Attach("t", binding, &err)) << err;
    core.DrainIngest();
    ASSERT_TRUE(core.WriteCheckpoint(&err)) << err;
  }
  // Truncate the committed manifest in place (a non-atomic writer's torn
  // file; our own writer can never produce this, which is the point).
  std::vector<char> bytes;
  {
    std::ifstream in(ckpt, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  {
    std::ofstream out(ckpt, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  ServeCore revived(OptionsWithCheckpoint(ckpt));
  size_t recovered = 0;
  std::string err;
  EXPECT_FALSE(revived.Recover(&recovered, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_EQ(recovered, 0u);
  EXPECT_TRUE(revived.InstanceNames().empty()) << "partial recovery leaked instances";
  std::remove(ckpt.c_str());
}

TEST(ServeRecovery, CheckpointNamingAnUnknownSketchIsRefusedAndKept) {
  // A checkpoint written by an older build may name a sketch this build
  // no longer registers (the shared-slab Concurrent front-end). Recovery
  // must refuse it by instance name and leave the file as it was.
  const std::string ckpt = TempPath("reco_unknown_spec.hk");
  CheckpointManifest manifest;
  CheckpointInstance edge;
  edge.name = "edge";
  edge.spec = "Concurrent:threads=2,inner=HK-Minimum";
  edge.state = {1, 2, 3, 4};
  manifest.instances.push_back(edge);
  std::string err;
  ASSERT_TRUE(WriteCheckpointAtomic(ckpt, manifest, &err)) << err;
  const auto read_bytes = [&ckpt] {
    std::ifstream in(ckpt, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  };
  const std::vector<char> before = read_bytes();
  ASSERT_FALSE(before.empty());

  ServeCore revived(OptionsWithCheckpoint(ckpt));
  size_t recovered = 0;
  EXPECT_FALSE(revived.Recover(&recovered, &err));
  EXPECT_NE(err.find("instance 'edge'"), std::string::npos) << err;
  EXPECT_NE(err.find("unknown sketch 'Concurrent'"), std::string::npos) << err;
  EXPECT_EQ(recovered, 0u);
  EXPECT_TRUE(revived.InstanceNames().empty());
  EXPECT_EQ(read_bytes(), before);
  std::remove(ckpt.c_str());
}

TEST(ServeRecovery, MissingCheckpointIsAFreshStart) {
  ServeCore core(OptionsWithCheckpoint(TempPath("reco_never_written.hk")));
  size_t recovered = 99;
  std::string err;
  EXPECT_TRUE(core.Recover(&recovered, &err)) << err;
  EXPECT_EQ(recovered, 0u);
}

TEST(ServeRecovery, VanishedSourceRecoversStateAndSurfacesTheError) {
  const std::string capture = TempPath("reco_vanishing.pcap");
  const Trace trace = SynthesizeCapture(CampusConfig(5000, 13), capture, CaptureSynthOptions{});
  ASSERT_FALSE(trace.packets.empty());
  const std::string ckpt = TempPath("reco_vanished.hk");
  {
    ServeCore core(OptionsWithCheckpoint(ckpt));
    std::string err;
    ASSERT_TRUE(core.Create("t", kSpec, &err)) << err;
    SourceBinding binding;
    binding.source = capture;
    ASSERT_TRUE(core.Attach("t", binding, &err)) << err;
    core.DrainIngest();
    ASSERT_TRUE(core.WriteCheckpoint(&err)) << err;
  }
  std::remove(capture.c_str());  // the capture is gone when the daemon restarts

  ServeCore revived(OptionsWithCheckpoint(ckpt));
  size_t recovered = 0;
  std::string err;
  ASSERT_TRUE(revived.Recover(&recovered, &err)) << err;  // state recovery still succeeds
  EXPECT_EQ(recovered, 1u);
  EXPECT_EQ(revived.PacketsApplied("t"), trace.packets.size());
  const std::string stats = revived.Execute("STATS t");
  EXPECT_NE(stats.find("STAT ingest_error"), std::string::npos) << stats;
  // The recovered sketch still answers.
  Oracle oracle(trace);
  const auto truth = oracle.TopK(1);
  char point[48];
  std::snprintf(point, sizeof(point), "POINT t %llx",
                static_cast<unsigned long long>(truth[0].id));
  const std::string answer = revived.Execute(point);
  EXPECT_EQ(answer.rfind("OK ", 0), 0u);
  EXPECT_NE(answer, "OK 0\n");
  std::remove(ckpt.c_str());
}

TEST(ServeRecovery, NonReplayableSocketSourceLosesAtMostTheTailAfterTheCut) {
  const Fixture& fx = Capture();
  // Feed the capture's bytes over a TCP socket: a non-replayable source.
  std::string err;
  uint16_t port = 0;
  const int listen_fd = ListenTcp(0, &port, &err);
  ASSERT_GE(listen_fd, 0) << err;
  std::thread feeder([&] {
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) {
      return;
    }
    std::ifstream in(fx.path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    WriteAll(conn, bytes.data(), bytes.size());
    ::close(conn);  // EOF ends the stream
  });

  const std::string ckpt = TempPath("reco_socket.hk");
  std::remove(ckpt.c_str());
  uint64_t cut = 0;
  {
    ServeCore core(OptionsWithCheckpoint(ckpt));
    ASSERT_TRUE(core.Create("t", kSpec, &err)) << err;
    SourceBinding binding;
    binding.source = "tcp://127.0.0.1:" + std::to_string(port);
    ASSERT_TRUE(core.Attach("t", binding, &err)) << err;
    core.DrainIngest();  // the feeder closes after the full capture
    EXPECT_EQ(core.PacketsApplied("t"), fx.trace.packets.size());
    ASSERT_TRUE(core.WriteCheckpoint(&err)) << err;
    LoadedCheckpoint m;
    ASSERT_TRUE(LoadCheckpoint(ckpt, &m, &err)) << err;
    cut = m.manifest.instances[0].packets_applied;
  }
  feeder.join();
  ::close(listen_fd);

  // Restart: the socket peer is gone. Recovery must restore the sketch to
  // exactly the checkpoint cut (no replay possible, loss bounded by the
  // interval) and surface the dead source instead of failing.
  ServeCore revived(OptionsWithCheckpoint(ckpt));
  size_t recovered = 0;
  ASSERT_TRUE(revived.Recover(&recovered, &err)) << err;
  EXPECT_EQ(recovered, 1u);
  revived.DrainIngest();
  EXPECT_EQ(revived.PacketsApplied("t"), cut) << "socket source must not be replayed";
  auto reference = ReferenceFedPrefix(cut);
  const std::string got = revived.Execute("TOPK t 20 exact");
  std::string want;
  for (const auto& fc : reference->TopK(20)) {
    char line[64];
    std::snprintf(line, sizeof(line), "FLOW %llx %llu\n",
                  static_cast<unsigned long long>(fc.id),
                  static_cast<unsigned long long>(fc.count));
    want += line;
  }
  EXPECT_EQ(got.substr(0, want.size()), want);
  std::remove(ckpt.c_str());
}

TEST(ServeCheckpointRace, EveryCheckpointLoadsAndRecoversWhileInstancesChurn) {
  // Checkpoints save each instance under its own lock only, with map_mu_
  // released. Race that against a thread that creates, attaches and drops
  // a scratch instance (Drop must never free an instance a checkpoint is
  // saving) and a thread querying a long-lived one. Every file written must
  // load, and recover into a daemon that holds the same instances. The
  // long-lived instance is large and sorts first, so each checkpoint holds
  // the scratch instance's pointer for a whole SaveState before saving it,
  // while the scratch instance, fed the small committed fixture, churns
  // many times over.
  const Fixture& fx = Capture();
  const std::string small = std::string(HK_TEST_DATA_DIR) + "/fixture_campus.pcap";
  const std::string ckpt = TempPath("reco_race_" + std::to_string(::getpid()) + ".hk");
  std::remove(ckpt.c_str());
  ServeCore core(OptionsWithCheckpoint(ckpt));
  ASSERT_EQ(core.Execute("CREATE live HK-Minimum:mem=4MB"), "OK created live\n");
  ASSERT_EQ(core.Execute("ATTACH live " + fx.path), "OK attached live\n");

  std::atomic<bool> stop{false};
  std::atomic<int> churn_errors{0};
  std::atomic<int> query_errors{0};
  std::thread churn([&] {
    while (!stop.load()) {
      std::string replies = core.Execute("CREATE scratch Sharded:n=2,threads=1");
      replies += core.Execute("ATTACH scratch " + small);
      replies += core.Execute("DROP scratch");
      churn_errors += replies.find("ERR") != std::string::npos ? 1 : 0;
    }
  });
  std::thread queries([&] {
    while (!stop.load()) {
      std::string replies = core.Execute("TOPK live 10");
      replies += core.Execute("STATS live");
      query_errors += replies.find("ERR") != std::string::npos ? 1 : 0;
    }
  });

  // At least 15 checkpoints, and more until 3 of them caught the scratch
  // instance live (a loaded host can starve the churn thread). EXPECT, not
  // ASSERT, inside the loop: returning early would destroy the running
  // threads unjoined.
  size_t saw_scratch = 0;
  for (int round = 0; (round < 15 || saw_scratch < 3) && round < 300 && !HasFailure(); ++round) {
    const std::string reply = core.Execute("CHECKPOINT");
    EXPECT_EQ(reply.rfind("OK checkpoint", 0), 0u) << reply;
    LoadedCheckpoint m;
    std::string err;
    EXPECT_TRUE(LoadCheckpoint(ckpt, &m, &err)) << err;
    EXPECT_GE(m.manifest.instances.size(), 1u);
    EXPECT_LE(m.manifest.instances.size(), 2u);
    for (const CheckpointInstance& inst : m.manifest.instances) {
      EXPECT_TRUE(inst.name == "live" || inst.name == "scratch") << inst.name;
      EXPECT_LE(inst.packets_applied, fx.trace.packets.size()) << inst.name;
      saw_scratch += inst.name == "scratch" ? 1 : 0;
    }
    ServeCore revived(OptionsWithCheckpoint(ckpt));
    size_t recovered = 0;
    EXPECT_TRUE(revived.Recover(&recovered, &err)) << err;
    EXPECT_EQ(recovered, m.manifest.instances.size());
    for (const CheckpointInstance& inst : m.manifest.instances) {
      EXPECT_GE(revived.PacketsApplied(inst.name), inst.packets_applied) << inst.name;
    }
  }
  stop.store(true);
  churn.join();
  queries.join();
  EXPECT_EQ(churn_errors.load(), 0);
  EXPECT_EQ(query_errors.load(), 0);
  EXPECT_GE(saw_scratch, 3u) << "the race was never exercised";
  std::remove(ckpt.c_str());
}

TEST(ServeRecovery, QueriesStayCorrectWhileIngestRuns) {
  const Fixture& fx = Capture();
  ServeOptions options = OptionsWithCheckpoint(TempPath("reco_live.hk"));
  options.defaults.memory_bytes = 64 * 1024;
  ServeCore core(options);
  ASSERT_EQ(core.Execute("CREATE live Sharded:n=2,threads=1,inner=HK-Basic"),
            "OK created live\n");
  ASSERT_EQ(core.Execute("ATTACH live " + fx.path), "OK attached live\n");

  // While the ingest thread inserts, relaxed snapshots must stay
  // well-formed: sorted descending, duplicate-free, never more than k.
  // And periodic checkpoints interleave without wedging either side.
  for (int round = 0; round < 5; ++round) {
    const std::string response = core.Execute("TOPK live 10 relaxed");
    std::istringstream in(response);
    std::string line;
    uint64_t prev = UINT64_MAX;
    std::vector<std::string> ids;
    size_t flows = 0;
    while (std::getline(in, line)) {
      if (line.rfind("FLOW ", 0) != 0) {
        continue;
      }
      std::istringstream fields(line);
      std::string tag, id;
      uint64_t count = 0;
      fields >> tag >> id >> count;
      EXPECT_LE(count, prev) << "relaxed snapshot not sorted: " << response;
      prev = count;
      for (const auto& seen : ids) {
        EXPECT_NE(seen, id) << "duplicate flow in relaxed snapshot";
      }
      ids.push_back(id);
      ++flows;
    }
    EXPECT_LE(flows, 10u);
    std::string err;
    ASSERT_TRUE(core.WriteCheckpoint(&err)) << err;
  }
  core.DrainIngest();
  // After the stream drains, the exact answer agrees with the oracle on
  // the heaviest flow (64KB on this trace is effectively collision-free).
  const std::string final = core.Execute("TOPK live 5 exact");
  const auto truth = fx.oracle.TopK(1);
  char expect[48];
  std::snprintf(expect, sizeof(expect), "FLOW %llx %llu",
                static_cast<unsigned long long>(truth[0].id),
                static_cast<unsigned long long>(truth[0].count));
  EXPECT_EQ(final.rfind(expect, 0), 0u) << final;
  std::remove(options.checkpoint_path.c_str());
}

}  // namespace
}  // namespace hk
