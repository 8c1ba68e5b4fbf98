// hk_serve line-protocol tests: ServeCore::Execute() verb coverage
// (multi-tenancy, the single-tenant name-omission convenience, relaxed vs
// exact TOPK, ingest from a synthesized capture, the one-read ATTACH, the
// ingest stage timers, live and idle FIFO sources and DROP mid-ingest) and the
// LineServer TCP transport end to end over loopback, including its
// connection cap.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ingest/capture_synth.h"
#include "serve/line_server.h"
#include "serve/net.h"
#include "serve/serve_core.h"
#include "slow_batch_algorithm.h"
#include "telemetry/telemetry.h"
#include "trace/generators.h"
#include "trace/oracle.h"
#include "window/windowed_topk.h"

namespace hk {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

ServeOptions SmallOptions() {
  ServeOptions options;
  options.defaults.memory_bytes = 20 * 1024;
  options.defaults.k = 50;
  options.defaults.key_kind = KeyKind::kFiveTuple13B;
  options.defaults.seed = 1;
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

const Fixture& CampusCapture() {
  static const Fixture fixture("serve_protocol_campus", CampusConfig(5000, 11));
  return fixture;
}

std::vector<std::string> Lines(const std::string& response) {
  std::vector<std::string> lines;
  std::istringstream in(response);
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

TEST(ServeProtocol, PingAndUnknown) {
  // The registry is process-global and cumulative, so assert on deltas.
  const uint64_t errors_before =
      telemetry::Registry::Get().SumCounter("hk_serve_errors_total");
  ServeCore core(SmallOptions());
  EXPECT_EQ(core.Execute("PING"), "OK pong\n");
  EXPECT_EQ(core.Execute("FROB x").rfind("ERR ", 0), 0u);
  EXPECT_EQ(core.Execute("").rfind("ERR ", 0), 0u);
  if (telemetry::Registry::Enabled()) {  // counters frozen under HK_TELEMETRY=off
    EXPECT_GE(telemetry::Registry::Get().SumCounter("hk_serve_errors_total") - errors_before,
              2u);
  }
}

TEST(ServeProtocol, CreateListDrop) {
  ServeCore core(SmallOptions());
  EXPECT_EQ(core.Execute("CREATE a HK"), "OK created a\n");
  EXPECT_EQ(core.Execute("CREATE b SS:mem=10KB"), "OK created b\n");
  EXPECT_EQ(core.Execute("CREATE a HK").rfind("ERR ", 0), 0u) << "duplicate name accepted";
  EXPECT_EQ(core.Execute("CREATE bad not-a-sketch").rfind("ERR ", 0), 0u);
  EXPECT_EQ(core.Execute("CREATE empty HK-Minimum:mem=0").rfind("ERR ", 0), 0u);
  EXPECT_EQ(core.Execute("CREATE flat HK-Minimum:b=1").rfind("ERR ", 0), 0u);
  // Sizes that overflow a size_t answer ERR, and the daemon still answers.
  const char kHugeRing[] = "Sharded:n=1,threads=1,ring=9223372036854775808,inner=HK-Minimum";
  EXPECT_EQ(core.Execute("CREATE huge HK-Minimum:k=1152921504606846976").rfind("ERR ", 0), 0u);
  EXPECT_EQ(core.Execute(std::string("CREATE r ") + kHugeRing).rfind("ERR ", 0), 0u);
  EXPECT_EQ(core.Execute("PING"), "OK pong\n");

  const auto lines = Lines(core.Execute("LIST"));
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].rfind("INSTANCE a ", 0), 0u);
  EXPECT_EQ(lines[1].rfind("INSTANCE b ", 0), 0u);
  EXPECT_EQ(lines[2], "END");

  EXPECT_EQ(core.Execute("DROP b"), "OK dropped b\n");
  EXPECT_EQ(core.Execute("DROP b").rfind("ERR ", 0), 0u);
  EXPECT_EQ(core.InstanceNames(), std::vector<std::string>{"a"});
}

// A threaded Sharded burst= far past the ring is accepted and drains: a
// worker never takes more than its ring holds, so its buffers are sized to
// the ring, not to the burst.
TEST(ServeProtocol, OversizedShardedBurstDrainsTheCapture) {
  const Fixture& fx = CampusCapture();
  ServeCore core(SmallOptions());
  const char kHugeBurst[] = "Sharded:n=1,threads=1,burst=100000000000,inner=HK-Minimum";
  ASSERT_EQ(core.Execute(std::string("CREATE x ") + kHugeBurst), "OK created x\n");
  ASSERT_EQ(core.Execute("ATTACH x " + fx.path), "OK attached x\n");
  core.DrainIngest();
  EXPECT_EQ(core.PacketsApplied("x"), fx.trace.packets.size());
  const auto topk = Lines(core.Execute("TOPK x 5 exact"));
  EXPECT_EQ(topk.size(), 6u);
  EXPECT_EQ(core.Execute("PING"), "OK pong\n");
}

TEST(ServeProtocol, SingleTenantNameOmission) {
  ServeCore core(SmallOptions());
  // No instances yet: the convenience form explains itself.
  EXPECT_EQ(core.Execute("TOPK 5").rfind("ERR ", 0), 0u);
  core.Execute("CREATE only HK");
  // One instance: TOPK/POINT/STATS resolve without a name.
  EXPECT_EQ(core.Execute("POINT 1a2b"), "OK 0\n");
  const auto topk = Lines(core.Execute("TOPK 5"));
  ASSERT_EQ(topk.size(), 1u);  // empty sketch: just the END trailer
  EXPECT_EQ(topk[0].rfind("END consistency=exact", 0), 0u);
  core.Execute("CREATE second HK");
  // Two instances: the omission is ambiguous again.
  EXPECT_EQ(core.Execute("TOPK 5").rfind("ERR ", 0), 0u);
  EXPECT_EQ(core.Execute("POINT second 1a2b"), "OK 0\n");
}

TEST(ServeProtocol, IngestTopKAgainstOracle) {
  const Fixture& fx = CampusCapture();
  ServeCore core(SmallOptions());
  ASSERT_EQ(core.Execute("CREATE campus HK:mem=64KB"), "OK created campus\n");
  ASSERT_EQ(core.Execute("ATTACH campus " + fx.path + " key=5tuple"), "OK attached campus\n");
  core.DrainIngest();
  EXPECT_EQ(core.PacketsApplied("campus"), fx.trace.packets.size());

  const auto lines = Lines(core.Execute("TOPK campus 10 exact"));
  ASSERT_EQ(lines.size(), 11u);
  // With a 64KB budget on a 5k-packet trace the sketch is effectively
  // exact: the reported top-10 must match the oracle's.
  const auto truth = fx.oracle.TopK(10);
  for (size_t i = 0; i < 10; ++i) {
    char expect[64];
    std::snprintf(expect, sizeof(expect), "FLOW %llx %llu",
                  static_cast<unsigned long long>(truth[i].id),
                  static_cast<unsigned long long>(truth[i].count));
    EXPECT_EQ(lines[i], expect) << "rank " << i;
  }
  EXPECT_EQ(lines[10].rfind("END consistency=exact", 0), 0u);

  // POINT answers the top flow's exact count in hex-id form.
  char point[32];
  std::snprintf(point, sizeof(point), "POINT campus %llx",
                static_cast<unsigned long long>(truth[0].id));
  EXPECT_EQ(core.Execute(point), "OK " + std::to_string(truth[0].count) + "\n");

  // Per-instance stats reflect the ingest.
  const std::string stats = core.Execute("STATS campus");
  EXPECT_NE(stats.find("STAT packets_applied " + std::to_string(fx.trace.packets.size())),
            std::string::npos)
      << stats;
  EXPECT_NE(stats.find("STAT ingest_done 1"), std::string::npos) << stats;
  EXPECT_EQ(stats.find("STAT ingest_error"), std::string::npos) << stats;
}

TEST(ServeProtocol, AttachErrors) {
  ServeCore core(SmallOptions());
  core.Execute("CREATE a HK");
  EXPECT_EQ(core.Execute("ATTACH a /nonexistent/missing.pcap").rfind("ERR ", 0), 0u);
  EXPECT_EQ(core.Execute("ATTACH a x.pcap key=bogus").rfind("ERR ", 0), 0u);
  EXPECT_EQ(core.Execute("ATTACH a x.pcap frobnicate").rfind("ERR ", 0), 0u);
  EXPECT_EQ(core.Execute("ATTACH nosuch x.pcap").rfind("ERR ", 0), 0u);
  // A failed attach leaves the instance free for a working source.
  const Fixture& fx = CampusCapture();
  EXPECT_EQ(core.Execute("ATTACH a " + fx.path), "OK attached a\n");
  EXPECT_EQ(core.Execute("ATTACH a " + fx.path).rfind("ERR ", 0), 0u) << "double attach";
  core.DrainIngest();
}

// ATTACH reads a file source without the map lock. A FIFO's open blocks
// until a writer appears, so while ATTACH waits in it, verbs on another
// instance must still answer.
TEST(ServeProtocol, AttachReadsAFifoWithoutTheMapLock) {
  const std::string fifo = TempPath("serve_fifo_" + std::to_string(::getpid()));
  std::remove(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0) << std::strerror(errno);
  ServeCore core(SmallOptions());
  ASSERT_EQ(core.Execute("CREATE waiting HK"), "OK created waiting\n");
  ASSERT_EQ(core.Execute("CREATE other HK"), "OK created other\n");
  std::string attach_reply;
  std::thread attach([&] { attach_reply = core.Execute("ATTACH waiting " + fifo); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // ATTACH reaches the open
  auto queries = std::async(std::launch::async, [&] {
    return core.Execute("LIST") + core.Execute("TOPK other 5");
  });
  const bool answered = queries.wait_for(std::chrono::seconds(2)) == std::future_status::ready;
  // Open and close a writer: ATTACH's open returns, finds no capture
  // header, and answers ERR.
  const int writer = ::open(fifo.c_str(), O_WRONLY);
  EXPECT_GE(writer, 0) << std::strerror(errno);
  ::close(writer);
  attach.join();
  EXPECT_TRUE(answered) << "LIST and TOPK waited for ATTACH's read";
  const std::string replies = queries.get();
  EXPECT_NE(replies.find("INSTANCE other "), std::string::npos) << replies;
  EXPECT_NE(replies.find("END consistency=exact"), std::string::npos) << replies;
  EXPECT_EQ(attach_reply.rfind("ERR ", 0), 0u) << attach_reply;
  // The failed ATTACH left the instance free for a working source.
  EXPECT_NE(core.Execute("STATS waiting").find("STAT source none\n"), std::string::npos);
  std::remove(fifo.c_str());
}

// A capture torn mid-record: the ingest thread applies every whole record,
// then stops with the parser's diagnostic. LIST and STATS are polled while
// it runs and read ingest_error only once ingest_done is set (under TSan,
// an unordered read is a data race against the ingest thread's write; a
// LIST that reads the error before it has seen ingest_done is one).
TEST(ServeProtocol, TornCaptureReportsIngestErrorOnceDone) {
  const std::string path = TempPath("serve_torn_" + std::to_string(::getpid()) + ".pcap");
  const Trace trace = SynthesizeCapture(CampusConfig(50000, 17), path, CaptureSynthOptions{});
  ASSERT_FALSE(trace.packets.empty());
  // Cut 10 bytes off the last frame: its record header still promises them.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 10);

  ServeCore core(SmallOptions());
  ASSERT_EQ(core.Execute("CREATE torn HK"), "OK created torn\n");
  ASSERT_EQ(core.Execute("ATTACH torn " + path), "OK attached torn\n");
  std::string stats;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  do {
    core.Execute("LIST");
    stats = core.Execute("STATS torn");
  } while (stats.find("STAT ingest_done 1\n") == std::string::npos &&
           std::chrono::steady_clock::now() < deadline);
  EXPECT_NE(stats.find("STAT ingest_done 1\n"), std::string::npos) << stats;
  EXPECT_NE(stats.find("STAT ingest_error record caplen overruns the file\n"), std::string::npos)
      << stats;
  EXPECT_NE(core.Execute("LIST").find(" ingest_error=1\n"), std::string::npos);
  EXPECT_EQ(core.PacketsApplied("torn"), trace.packets.size() - 1);
  std::remove(path.c_str());
}

// The three ingest stage counters tile the ingest thread's time: together
// they cover at least 90% of the wall time from Attach returning to the
// drain. The thread starts inside Attach, and a caller descheduled after
// that start reads its clock late (by 4.5 ms once under ctest -j8), so the
// upper bound is the wall time from the Attach call.
TEST(ServeProtocol, IngestStageTimersAddUpToWallTime) {
  if (!telemetry::Registry::Enabled()) {
    GTEST_SKIP() << "telemetry is off: the stage counters do not move";
  }
  const std::string path = TempPath("serve_timed_" + std::to_string(::getpid()) + ".pcap");
  constexpr uint64_t kPackets = 500000;
  const Trace trace = SynthesizeCapture(CampusConfig(kPackets, 23), path, CaptureSynthOptions{});
  ASSERT_EQ(trace.packets.size(), kPackets);
  ServeCore core(SmallOptions());
  std::string err;
  ASSERT_TRUE(core.Create("timed", "HK", &err)) << err;
  SourceBinding binding;
  binding.source = path;
  const auto called = std::chrono::steady_clock::now();
  ASSERT_TRUE(core.Attach("timed", binding, &err)) << err;
  const auto attached = std::chrono::steady_clock::now();
  core.DrainIngest();
  const auto drained = std::chrono::steady_clock::now();
  const auto us = [](auto elapsed) {
    return std::chrono::duration<double, std::micro>(elapsed).count();
  };
  const double wall_us = us(drained - attached);
  ASSERT_EQ(core.PacketsApplied("timed"), kPackets);

  telemetry::Registry& registry = telemetry::Registry::Get();
  const std::string label = "instance=\"timed\"";
  const auto counter = [&](const char* name) {
    return static_cast<double>(registry.GetCounter(name, "", label)->Value());
  };
  const double source = counter("hk_ingest_source_wait_us_total");
  const double lock_wait = counter("hk_ingest_lock_wait_us_total");
  const double apply = counter("hk_ingest_apply_us_total");
  const double stages = source + lock_wait + apply;
  EXPECT_GE(stages, 0.9 * wall_us) << "apply " << apply << " lock wait " << lock_wait;
  EXPECT_LE(stages, us(drained - called)) << "apply " << apply << " lock wait " << lock_wait;
  EXPECT_GT(apply, 0.0);
  // Parsing runs on the parse thread here, overlapped with the stages
  // above; it too fits inside the ingest wall time.
  const double parse = counter("hk_ingest_parse_us_total");
  EXPECT_GT(parse, 0.0);
  EXPECT_LE(parse, us(drained - called));
  // The burst histogram carries the instance label too: one observation
  // per burst of up to ingest_batch records.
  const size_t batch = core.options().ingest_batch;
  EXPECT_EQ(registry.GetHistogram("hk_ingest_burst_packets", "", label)->Count(),
            (kPackets + batch - 1) / batch);
  std::remove(path.c_str());
}

double CpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec / 1e6; };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

size_t ThreadCount() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<size_t>(std::distance(begin(tasks), end(tasks)));
}

// An idle live source costs no CPU. The writer sends a capture prefix
// (more than one 256 KB stream read) and then holds the FIFO open without
// writing: the parse thread hands over what has arrived and sleeps in
// read(), and the ingest thread sleeps waiting for its next burst.
// Neither may spin through the second the writer holds.
TEST(ServeProtocol, IngestFromAnIdleFifoCostsNoCpu) {
  const std::string tag = std::to_string(::getpid());
  const std::string capture = TempPath("serve_idle_" + tag + ".pcap");
  const Trace trace = SynthesizeCapture(CampusConfig(6000, 29), capture, CaptureSynthOptions{});
  std::ifstream in(capture, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  ASSERT_GT(bytes.size(), size_t{300} * 1024);
  const std::string fifo = TempPath("serve_idle_fifo_" + tag);
  std::remove(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0) << std::strerror(errno);

  ServeCore core(SmallOptions());
  ASSERT_EQ(core.Execute("CREATE idle HK"), "OK created idle\n");
  std::promise<void> release;
  std::thread writer([&, released = release.get_future()] {
    // A non-blocking open fails until ATTACH opens the read side; give up
    // after 10 s rather than hang the test.
    int fd = -1;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while ((fd = ::open(fifo.c_str(), O_WRONLY | O_NONBLOCK)) < 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (fd < 0) {
      return;
    }
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) & ~O_NONBLOCK);
    for (size_t off = 0; off < bytes.size();) {
      const ssize_t put = ::write(fd, bytes.data() + off, bytes.size() - off);
      if (put <= 0) {
        break;
      }
      off += static_cast<size_t>(put);
    }
    released.wait();
    ::close(fd);
  });
  EXPECT_EQ(core.Execute("ATTACH idle stream:" + fifo), "OK attached idle\n");
  // Let what arrived be parsed and applied; after that nothing comes.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const double cpu_before = CpuSeconds();
  std::this_thread::sleep_for(std::chrono::seconds(1));
  const double idle_cpu = CpuSeconds() - cpu_before;
  EXPECT_NE(core.Execute("STATS idle").find("STAT ingest_done 0\n"), std::string::npos);
  release.set_value();
  writer.join();
  EXPECT_LT(idle_cpu, 0.010) << "CPU seconds used while the source was idle";
  core.DrainIngest();
  EXPECT_NE(core.Execute("STATS idle").find("STAT ingest_done 1\n"), std::string::npos);
  EXPECT_EQ(core.PacketsApplied("idle"), trace.packets.size());
  std::remove(fifo.c_str());
  std::remove(capture.c_str());
}

// A live source's records are applied as they arrive: the writer sends a
// 40-record capture and holds the FIFO open, and all 40 are applied within
// a second - the ingest does not wait for a full 512-record burst or for
// the writer to close.
TEST(ServeProtocol, LiveFifoAppliesWhatHasArrived) {
  const std::string tag = std::to_string(::getpid());
  const std::string capture = TempPath("serve_live_" + tag + ".pcap");
  const Trace trace = SynthesizeCapture(CampusConfig(40, 37), capture, CaptureSynthOptions{});
  ASSERT_EQ(trace.packets.size(), 40u);
  std::ifstream in(capture, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const std::string fifo = TempPath("serve_live_fifo_" + tag);
  std::remove(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0) << std::strerror(errno);

  ServeCore core(SmallOptions());
  ASSERT_EQ(core.Execute("CREATE live HK"), "OK created live\n");
  std::promise<void> checked;
  std::thread writer([&, done = checked.get_future()] {
    int fd = -1;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while ((fd = ::open(fifo.c_str(), O_WRONLY | O_NONBLOCK)) < 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (fd < 0) {
      return;
    }
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) & ~O_NONBLOCK);
    EXPECT_EQ(::write(fd, bytes.data(), bytes.size()), static_cast<ssize_t>(bytes.size()));
    done.wait_for(std::chrono::seconds(10));  // hold the pipe open
    ::close(fd);
  });
  ASSERT_EQ(core.Execute("ATTACH live stream:" + fifo), "OK attached live\n");
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (core.PacketsApplied("live") < trace.packets.size() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const uint64_t applied_while_open = core.PacketsApplied("live");
  const std::string stats = core.Execute("STATS live");
  checked.set_value();
  writer.join();
  EXPECT_EQ(applied_while_open, trace.packets.size()) << "applied before the writer closed";
  EXPECT_NE(stats.find("STAT ingest_done 0\n"), std::string::npos) << stats;
  core.DrainIngest();
  EXPECT_EQ(core.PacketsApplied("live"), trace.packets.size());
  std::remove(fifo.c_str());
  std::remove(capture.c_str());
}

// The inner of the test below: 20 ms a batch, so a threaded Sharded
// instance over it takes about a second to drain 50 queued packets.
std::unique_ptr<TopKAlgorithm> MakeSlowBatchSketch(const SketchArgs& args) {
  SketchDefaults defaults;
  defaults.memory_bytes = args.memory_bytes();
  defaults.k = args.k();
  auto inner = MakeSketch("SS", defaults);
  return std::make_unique<SlowBatchAlgorithm>(std::move(inner), std::chrono::milliseconds(20));
}

// The child half of StatsDoesNotWaitForAThreadedShardedDrain: 0 when STATS
// answered within 100 ms while the rings held about a second of work, 1
// when it took longer, 2 when CREATE or ATTACH failed, 3 on a wrong STATS
// answer.
int StatsWhileTheRingsDrain(const std::string& capture) {
  RegisterSketch({"SlowBatchTestDouble", {}, {}, &MakeSlowBatchSketch});
  ServeCore core(SmallOptions());
  const std::string spec = "Sharded:n=1,threads=1,burst=1,inner=SlowBatchTestDouble";
  if (core.Execute("CREATE slow " + spec) != "OK created slow\n" ||
      core.Execute("ATTACH slow " + capture) != "OK attached slow\n") {
    return 2;
  }
  // Every packet is queued once the ingest thread has counted it.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (core.PacketsApplied("slow") < 50 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto before = std::chrono::steady_clock::now();
  const std::string stats = core.Execute("STATS slow");
  const auto took = std::chrono::steady_clock::now() - before;
  const auto took_ms = std::chrono::duration_cast<std::chrono::milliseconds>(took).count();
  std::fprintf(stderr, "STATS took %lld ms\n", static_cast<long long>(took_ms));
  const std::string algo = "Sharded:n=1,threads=1,burst=1,inner=slow-batch-test-double";
  if (stats.find("STAT packets_applied 50\n") == std::string::npos ||
      stats.find("STAT algo " + algo + "\n") == std::string::npos) {
    std::fprintf(stderr, "%s", stats.c_str());
    return 3;
  }
  return took < std::chrono::milliseconds(100) ? 0 : 1;
}

// STATS reads a threaded Sharded instance's name and memory without
// draining its rings, so a poll never stalls the ingest thread behind the
// workers. The test sketch is registered in a child process, so no other
// test's registry sees it.
TEST(ServeProtocol, StatsDoesNotWaitForAThreadedShardedDrain) {
  const std::string capture = TempPath("stats_drain_" + std::to_string(::getpid()) + ".pcap");
  SynthesizeCapture(CampusConfig(50, 3), capture, CaptureSynthOptions{});
  const pid_t child = ::fork();
  ASSERT_GE(child, 0) << std::strerror(errno);
  if (child == 0) {
    ::_exit(StatsWhileTheRingsDrain(capture));
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  std::remove(capture.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "see StatsWhileTheRingsDrain for the exit codes";
}

// A threaded Sharded instance whose capture is drained costs no CPU: its
// workers sleep in their rings' Pop until the next packet.
TEST(ServeProtocol, DrainedThreadedShardedInstanceCostsNoCpu) {
  const Fixture& fx = CampusCapture();
  ServeCore core(SmallOptions());
  ASSERT_EQ(core.Execute("CREATE edge Sharded:n=2,threads=1,inner=HK-Minimum"),
            "OK created edge\n");
  ASSERT_EQ(core.Execute("ATTACH edge " + fx.path), "OK attached edge\n");
  core.DrainIngest();
  EXPECT_EQ(core.PacketsApplied("edge"), fx.trace.packets.size());
  std::this_thread::sleep_for(std::chrono::milliseconds(200));  // past the workers' spin
  const double cpu_before = CpuSeconds();
  std::this_thread::sleep_for(std::chrono::seconds(1));
  const double idle_cpu = CpuSeconds() - cpu_before;
  EXPECT_LT(idle_cpu, 0.010) << "CPU seconds used by the drained instance";
  const auto topk = Lines(core.Execute("TOPK edge 5 exact"));
  EXPECT_EQ(topk.back().rfind("END consistency=exact", 0), 0u);
}

// ATTACH answers once the capture header has arrived, even while the
// writer holds the FIFO open with nothing more to send: a read returns
// what the pipe has, it does not wait for a whole stream chunk. Should
// ATTACH wait for more, the writer gives up after 5 s and closes, so the
// test fails on the elapsed time instead of hanging.
TEST(ServeProtocol, AttachReadsAFifoHeaderWithoutWaitingForMore) {
  const std::string tag = std::to_string(::getpid());
  const std::string capture = TempPath("serve_header_" + tag + ".pcap");
  const Trace trace = SynthesizeCapture(CampusConfig(40, 37), capture, CaptureSynthOptions{});
  std::ifstream in(capture, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  ASSERT_LT(bytes.size(), size_t{16} * 1024);  // far below one 256 KB stream read
  const std::string fifo = TempPath("serve_header_fifo_" + tag);
  std::remove(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0) << std::strerror(errno);

  ServeCore core(SmallOptions());
  ASSERT_EQ(core.Execute("CREATE live HK"), "OK created live\n");
  std::promise<void> attached;
  std::thread writer([&, answered = attached.get_future()] {
    int fd = -1;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while ((fd = ::open(fifo.c_str(), O_WRONLY | O_NONBLOCK)) < 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (fd < 0) {
      return;
    }
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) & ~O_NONBLOCK);
    EXPECT_EQ(::write(fd, bytes.data(), bytes.size()), static_cast<ssize_t>(bytes.size()));
    answered.wait_for(std::chrono::seconds(5));  // hold the pipe open
    ::close(fd);
  });
  const auto start = std::chrono::steady_clock::now();
  const std::string reply = core.Execute("ATTACH live stream:" + fifo);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  attached.set_value();
  writer.join();
  EXPECT_EQ(reply, "OK attached live\n");
  EXPECT_LT(elapsed, std::chrono::seconds(2)) << "ATTACH waited for the writer to close";
  core.DrainIngest();
  EXPECT_EQ(core.PacketsApplied("live"), trace.packets.size());
  std::remove(fifo.c_str());
  std::remove(capture.c_str());
}

// DROP mid-ingest stops the ingest thread and its parse thread and joins
// both before it answers.
TEST(ServeProtocol, DropMidIngestJoinsBothThreads) {
  const std::string path = TempPath("serve_drop_" + std::to_string(::getpid()) + ".pcap");
  constexpr uint64_t kPackets = 2'000'000;
  const Trace trace = SynthesizeCapture(CampusConfig(kPackets, 31), path, CaptureSynthOptions{});
  ASSERT_GT(trace.packets.size(), kPackets / 2);
  ServeCore core(SmallOptions());
  ASSERT_EQ(core.Execute("CREATE busy HK"), "OK created busy\n");
  // A first thread start brings up any helper thread the runtime keeps
  // (ThreadSanitizer starts one), so it is in the count on both sides.
  std::thread([] {}).join();
  const size_t threads_before = ThreadCount();
  ASSERT_EQ(core.Execute("ATTACH busy " + path), "OK attached busy\n");
  // Drop once the first bursts have landed: both threads are running then.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (core.PacketsApplied("busy") == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const auto dropping = std::chrono::steady_clock::now();
  EXPECT_EQ(core.Execute("DROP busy"), "OK dropped busy\n");
  EXPECT_LT(std::chrono::steady_clock::now() - dropping, std::chrono::seconds(1));
  EXPECT_EQ(ThreadCount(), threads_before);
  std::remove(path.c_str());
}

TEST(ServeProtocol, RelaxedTopKOnThreadedShardedInstance) {
  const Fixture& fx = CampusCapture();
  ServeOptions options = SmallOptions();
  options.defaults.memory_bytes = 64 * 1024;
  ServeCore core(options);
  ASSERT_EQ(core.Execute("CREATE edge Sharded:n=2,threads=1,inner=HK-Basic"),
            "OK created edge\n");
  ASSERT_EQ(core.Execute("ATTACH edge " + fx.path), "OK attached edge\n");
  // Relaxed queries answer while ingest may still be running, without the
  // ingest lock or a drain - and say so.
  const auto mid = Lines(core.Execute("TOPK edge 5 relaxed"));
  ASSERT_FALSE(mid.empty());
  EXPECT_EQ(mid.back().rfind("END consistency=relaxed", 0), 0u) << mid.back();
  core.DrainIngest();
  // Exact after drain agrees with the oracle's top flow.
  const auto lines = Lines(core.Execute("TOPK edge 5 exact"));
  ASSERT_EQ(lines.size(), 6u);
  const auto truth = fx.oracle.TopK(1);
  char expect[64];
  std::snprintf(expect, sizeof(expect), "FLOW %llx",
                static_cast<unsigned long long>(truth[0].id));
  EXPECT_EQ(lines[0].rfind(expect, 0), 0u) << lines[0];
  if (telemetry::Registry::Enabled()) {  // counters frozen under HK_TELEMETRY=off
    EXPECT_GE(telemetry::Registry::Get().SumCounter("hk_serve_relaxed_queries_total"), 1u);
    EXPECT_GE(telemetry::Registry::Get().SumCounter("hk_serve_exact_queries_total"), 1u);
  }
}

TEST(ServeProtocol, RelaxedDegradesToExactOnSynchronousSketch) {
  ServeCore core(SmallOptions());
  core.Execute("CREATE a HK");
  const auto lines = Lines(core.Execute("TOPK a 5 relaxed"));
  ASSERT_EQ(lines.size(), 1u);
  // The response reports the consistency actually delivered.
  EXPECT_EQ(lines[0].rfind("END consistency=exact", 0), 0u) << lines[0];
}

TEST(ServeProtocol, WindowTopKAnswersSlidingAndRejectsNonWindowed) {
  const Fixture& fx = CampusCapture();
  ServeOptions options = SmallOptions();
  options.defaults.memory_bytes = 64 * 1024;
  ServeCore core(options);
  // 1000-packet epochs, 4-deep ring: the 5000-packet capture rotates the
  // ring and the window answer covers only the newest epochs.
  ASSERT_EQ(core.Execute("CREATE recent Window:w=4,epoch=1000,inner=SS"),
            "OK created recent\n");
  ASSERT_EQ(core.Execute("ATTACH recent " + fx.path), "OK attached recent\n");
  core.DrainIngest();

  const auto lines = Lines(core.Execute("TOPK recent 5 window"));
  ASSERT_FALSE(lines.empty());
  // END advertises the ring shape and how far the capture rotated it:
  // 5000 packets / 1000 per epoch = 5 completed epochs.
  EXPECT_NE(lines.back().find(" window=4 epoch_packets=1000 completed_epochs=5"),
            std::string::npos)
      << lines.back();
  EXPECT_EQ(lines.back().rfind("END consistency=exact", 0), 0u) << lines.back();
  EXPECT_GT(lines.size(), 1u) << "sliding window answered no flows";

  // "window" against a non-windowed instance is an error, not a silent
  // since-boot answer - the caller asked for sliding semantics.
  core.Execute("CREATE plain HK");
  EXPECT_EQ(core.Execute("TOPK plain 5 window").rfind("ERR ", 0), 0u);
  // And the grammar rejects unknown consistency tokens as before.
  EXPECT_EQ(core.Execute("TOPK recent 5 sliding").rfind("ERR ", 0), 0u);
}

TEST(ServeProtocol, GlobalStatsRender) {
  ServeCore core(SmallOptions());
  core.Execute("CREATE a HK");
  core.Execute("PING");
  const std::string stats = core.Execute("STATS");
  EXPECT_NE(stats.find("STAT commands "), std::string::npos);
  EXPECT_NE(stats.find("STAT instances 1\n"), std::string::npos);
  EXPECT_NE(stats.find("END\n"), std::string::npos);
}

TEST(ServeProtocol, CheckpointDisabledWithoutPath) {
  ServeCore core(SmallOptions());
  core.Execute("CREATE a HK");
  EXPECT_EQ(core.Execute("CHECKPOINT").rfind("ERR ", 0), 0u);
}

// ---------------------------------------------------------------------------
// Reply rendering: TOPK and POINT replies at the edges of a uint64 id and
// count, byte for byte against the text snprintf("%llx") and
// std::to_string render.

constexpr uint64_t kMaxU64 = std::numeric_limits<uint64_t>::max();

// Ids 0, 1 and 2^64 - 1 with counts 2^64 - 1 and 0, in rank order.
const std::vector<FlowCount>& EdgeReport() {
  static const std::vector<FlowCount> report = {
      {0, kMaxU64}, {kMaxU64, kMaxU64}, {0xabcdef, 12345}, {1, 0}};
  return report;
}

// A sketch that holds the edge report and nothing else.
class EdgeReportSketch : public TopKAlgorithm {
 public:
  void Insert(FlowId) override {}
  std::vector<FlowCount> TopK(size_t k) const override {
    const std::vector<FlowCount>& all = EdgeReport();
    return {all.begin(), all.begin() + static_cast<std::ptrdiff_t>(std::min(k, all.size()))};
  }
  uint64_t EstimateSize(FlowId id) const override {
    for (const FlowCount& flow : EdgeReport()) {
      if (flow.id == id) {
        return flow.count;
      }
    }
    return 0;
  }
  std::string name() const override { return "edge-report-test-double"; }
  size_t MemoryBytes() const override { return 0; }
};

// A TOPK reply as snprintf and std::to_string render it.
std::string ReferenceTopK(const QueryResult& result, const std::string& suffix = "") {
  std::string out;
  for (const FlowCount& flow : result.flows) {
    char id[32];
    std::snprintf(id, sizeof(id), "%llx", static_cast<unsigned long long>(flow.id));
    out += "FLOW " + std::string(id) + " " + std::to_string(flow.count) + "\n";
  }
  return out + "END consistency=exact tracked=" + std::to_string(result.stats.tracked_flows) +
         " min=" + std::to_string(result.stats.min_tracked) + suffix + "\n";
}

std::unique_ptr<TopKAlgorithm> MakeEdgeReportSketch(const SketchArgs&) {
  return std::make_unique<EdgeReportSketch>();
}

// The child half of RepliesRenderEdgeIdsAndCounts: the number of replies
// that differ from the reference (each printed), or 100 when CREATE fails.
int EdgeRepliesDiffering() {
  RegisterSketch({"EdgeReportTestDouble", {}, {}, &MakeEdgeReportSketch});
  ServeCore core(SmallOptions());
  if (core.Execute("CREATE edge EdgeReportTestDouble") != "OK created edge\n") {
    return 100;
  }
  EdgeReportSketch sketch;
  const std::string top2 = ReferenceTopK(sketch.Snapshot({.k = 2}));
  const std::vector<std::pair<std::string, std::string>> cases = {
      // k above the tracked count: all four flows.
      {"TOPK edge 10", ReferenceTopK(sketch.Snapshot({.k = 10}))},
      {"TOPK edge 2", top2},
      {"TOPK 2 exact", top2},
      // Every character istream's >> skips separates tokens.
      {" \tTOPK\vedge\f 2\r", top2},
      {"POINT edge 0", "OK " + std::to_string(kMaxU64) + "\n"},
      {"POINT edge 1", "OK 0\n"},
      {"POINT edge ffffffffffffffff", "OK 18446744073709551615\n"},
      {"POINT abcdef", "OK 12345\n"},
      {"POINT edge 2", "OK 0\n"},
  };
  int differing = 0;
  for (const auto& [request, want] : cases) {
    const std::string got = core.Execute(request);
    if (got != want) {
      std::fprintf(stderr, "'%s' answered:\n%swant:\n%s", request.c_str(), got.c_str(),
                   want.c_str());
      ++differing;
    }
  }
  return differing;
}

// The test sketch is registered in a child process, so no other test's
// registry sees it.
TEST(ServeProtocol, RepliesRenderEdgeIdsAndCounts) {
  const pid_t child = ::fork();
  ASSERT_GE(child, 0) << std::strerror(errno);
  if (child == 0) {
    ::_exit(EdgeRepliesDiffering());
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "replies differing from the reference (see stderr)";
}

// TOPK ... window: the reply equals the in-process Window's Snapshot of the
// same stream, rendered as above, with k below and above the tracked count.
TEST(ServeProtocol, WindowTopKRendersTheInProcessSnapshot) {
  const Fixture& fx = CampusCapture();
  const std::string spec = "Window:w=4,epoch=1000,inner=HK-Minimum";
  ServeCore core(SmallOptions());
  ASSERT_EQ(core.Execute("CREATE recent " + spec), "OK created recent\n");
  ASSERT_EQ(core.Execute("ATTACH recent " + fx.path), "OK attached recent\n");
  core.DrainIngest();

  std::unique_ptr<TopKAlgorithm> reference = MakeSketch(spec, SmallOptions().defaults);
  const std::span<const FlowId> packets(fx.trace.packets);
  const size_t burst = SmallOptions().ingest_batch;
  for (size_t i = 0; i < packets.size(); i += burst) {
    reference->InsertBatch(packets.subspan(i, std::min(burst, packets.size() - i)));
  }
  const auto& window = dynamic_cast<const WindowedTopK&>(*reference);
  const std::string suffix = " window=" + std::to_string(window.window_epochs()) +
                             " epoch_packets=" + std::to_string(window.epoch_packets()) +
                             " completed_epochs=" + std::to_string(window.completed_epochs());
  for (const size_t k : {size_t{5}, size_t{100000}}) {
    const QueryResult result = reference->Snapshot({.k = k});
    ASSERT_FALSE(result.flows.empty());
    EXPECT_EQ(core.Execute("TOPK recent " + std::to_string(k) + " window"),
              ReferenceTopK(result, suffix))
        << "k = " << k;
  }
}

// ---------------------------------------------------------------------------
// The TCP transport.

// Read response lines until a terminator ("END ...", "OK ...", "ERR ...").
std::vector<std::string> Request(int fd, LineCarry* carry, const std::string& line) {
  EXPECT_TRUE(WriteAll(fd, (line + "\n").data(), line.size() + 1));
  std::vector<std::string> lines;
  std::string got;
  while (ReadLine(fd, carry, &got)) {
    lines.push_back(got);
    if (got.rfind("END", 0) == 0 || got.rfind("OK", 0) == 0 || got.rfind("ERR", 0) == 0) {
      break;
    }
  }
  return lines;
}

TEST(LineServerTest, ServesProtocolOverLoopback) {
  const Fixture& fx = CampusCapture();
  ServeCore core(SmallOptions());
  LineServer server(core);
  std::string err;
  ASSERT_TRUE(server.Start(0, &err)) << err;
  ASSERT_NE(server.port(), 0);

  const int fd = ConnectTcp("127.0.0.1", server.port(), &err);
  ASSERT_GE(fd, 0) << err;
  LineCarry carry;

  auto expect_one = [&](const std::string& request, const std::string& response) {
    const auto lines = Request(fd, &carry, request);
    ASSERT_EQ(lines.size(), 1u) << request;
    EXPECT_EQ(lines[0], response) << request;
  };
  expect_one("PING", "OK pong");
  expect_one("CREATE campus HK:mem=64KB", "OK created campus");
  expect_one("ATTACH campus " + fx.path, "OK attached campus");
  core.DrainIngest();

  const auto topk = Request(fd, &carry, "TOPK 10");
  ASSERT_EQ(topk.size(), 11u);
  const auto truth = fx.oracle.TopK(1);
  char expect[64];
  std::snprintf(expect, sizeof(expect), "FLOW %llx %llu",
                static_cast<unsigned long long>(truth[0].id),
                static_cast<unsigned long long>(truth[0].count));
  EXPECT_EQ(topk[0], expect);

  // A second concurrent client sees the same instance map.
  const int fd2 = ConnectTcp("localhost", server.port(), &err);
  ASSERT_GE(fd2, 0) << err;
  LineCarry carry2;
  const auto list = Request(fd2, &carry2, "LIST");
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].rfind("INSTANCE campus ", 0), 0u);

  // QUIT closes only this connection; the first client keeps working.
  const auto bye = Request(fd2, &carry2, "QUIT");
  ASSERT_EQ(bye.size(), 1u);
  EXPECT_EQ(bye[0], "OK bye");
  ::close(fd2);
  expect_one("PING", "OK pong");

  // SHUTDOWN raises the daemon-exit flag the binary polls.
  EXPECT_FALSE(server.shutdown_requested());
  const auto down = Request(fd, &carry, "SHUTDOWN");
  ASSERT_EQ(down.size(), 1u);
  EXPECT_EQ(down[0], "OK shutting down");
  EXPECT_TRUE(server.shutdown_requested());
  ::close(fd);
  server.Stop();
}

int64_t VmSizeKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) {
      return std::stoll(line.substr(7));
    }
  }
  return -1;
}

// A connection's thread is joined once it finishes (at the latest on the
// next accept), so a long run of short connections does not keep a stack
// mapped per connection.
TEST(LineServerTest, FinishedConnectionsAreReaped) {
  ServeCore core(SmallOptions());
  LineServer server(core);
  std::string err;
  ASSERT_TRUE(server.Start(0, &err)) << err;
  const int64_t before_kb = VmSizeKb();
  ASSERT_GT(before_kb, 0);
  for (int cycle = 0; cycle < 1000; ++cycle) {
    const int fd = ConnectTcp("127.0.0.1", server.port(), &err);
    ASSERT_GE(fd, 0) << err;
    LineCarry carry;
    const auto bye = Request(fd, &carry, "QUIT");
    ::close(fd);
    ASSERT_EQ(bye, std::vector<std::string>{"OK bye"}) << "cycle " << cycle;
  }
  const int64_t grown_kb = VmSizeKb() - before_kb;
  EXPECT_LT(grown_kb, 1024 * 1024) << "VmSize grew " << grown_kb << " kB over 1000 connections";
  server.Stop();
}

// Past kMaxConnections open connections a new client reads one ERR line
// and is closed. Once a connection ends, a new client is served again.
TEST(LineServerTest, ConnectionsPastTheCapAreRefused) {
  ServeCore core(SmallOptions());
  LineServer server(core);
  std::string err;
  ASSERT_TRUE(server.Start(0, &err)) << err;
  const uint64_t refused_before =
      telemetry::Registry::Get().SumCounter("hk_serve_connections_refused_total");
  std::vector<int> held;
  for (size_t i = 0; i < kMaxConnections; ++i) {
    const int fd = ConnectTcp("127.0.0.1", server.port(), &err);
    ASSERT_GE(fd, 0) << err;
    held.push_back(fd);
    LineCarry carry;
    ASSERT_EQ(Request(fd, &carry, "PING"), std::vector<std::string>{"OK pong"})
        << "connection " << i;
  }

  const int extra = ConnectTcp("127.0.0.1", server.port(), &err);
  ASSERT_GE(extra, 0) << err;
  // A server without the cap serves this client silently: time the read
  // out instead of hanging.
  const timeval timeout{5, 0};
  ASSERT_EQ(::setsockopt(extra, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)), 0);
  LineCarry carry;
  std::string line;
  ASSERT_EQ(ReadLineEx(extra, &carry, &line), ReadLineStatus::kLine);
  EXPECT_EQ(line, "ERR too many connections (limit 256)");
  EXPECT_EQ(ReadLineEx(extra, &carry, &line), ReadLineStatus::kEof);  // server hung up
  ::close(extra);
  if (telemetry::Registry::Enabled()) {
    EXPECT_EQ(telemetry::Registry::Get().SumCounter("hk_serve_connections_refused_total"),
              refused_before + 1);
  }

  // One connection leaves. Its thread notices the close on its own, so
  // retry for up to 1 s until a new client is served.
  ::close(held.back());
  held.pop_back();
  bool served = false;
  for (int attempt = 0; attempt < 100 && !served; ++attempt) {
    const int fd = ConnectTcp("127.0.0.1", server.port(), &err);
    ASSERT_GE(fd, 0) << err;
    LineCarry retry_carry;
    WriteAll(fd, "PING\n", 5);
    served = ReadLine(fd, &retry_carry, &line) && line == "OK pong";
    ::close(fd);
    if (!served) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(served) << "no client served 1 s after a connection closed";
  for (const int fd : held) {
    ::close(fd);
  }
  server.Stop();
}

TEST(LineServerTest, StopUnblocksPendingReads) {
  ServeCore core(SmallOptions());
  LineServer server(core);
  std::string err;
  ASSERT_TRUE(server.Start(0, &err)) << err;
  // A client that connects and never writes must not wedge Stop().
  const int fd = ConnectTcp("127.0.0.1", server.port(), &err);
  ASSERT_GE(fd, 0) << err;
  server.Stop();
  ::close(fd);
}

// ---------------------------------------------------------------------------
// ReadLineEx status discrimination (the PR 10 framing bugfix): a clean
// close, a mid-line death, and an error must come back as three different
// statuses - the old bool collapsed them and the server could not count
// protocol errors.

TEST(ReadLineExTest, DistinguishesEofTruncatedAndLine) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  LineCarry carry;
  std::string line;

  // A complete line followed by a half line, then the writer hangs up.
  ASSERT_TRUE(WriteAll(sv[0], "PING\r\nTOP", 9));
  ::close(sv[0]);
  EXPECT_EQ(ReadLineEx(sv[1], &carry, &line), ReadLineStatus::kLine);
  EXPECT_EQ(line, "PING");  // CR stripped
  EXPECT_EQ(ReadLineEx(sv[1], &carry, &line), ReadLineStatus::kTruncated);
  ::close(sv[1]);

  // Clean close with nothing buffered is a polite goodbye.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  carry = {};
  ::close(sv[0]);
  EXPECT_EQ(ReadLineEx(sv[1], &carry, &line), ReadLineStatus::kEof);
  ::close(sv[1]);

  // recv on a closed fd is kError, not a disconnect.
  EXPECT_EQ(ReadLineEx(sv[1], &carry, &line), ReadLineStatus::kError);
}

// A line may be kMaxRequestLineBytes long; one byte more with no newline
// ends the read as kTooLong instead of buffering the flood until EOF.
TEST(ReadLineExTest, LineLongerThanTheLimitIsTooLong) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  // The writer runs on its own thread: 128 KiB may not fit the socket
  // buffer in one go.
  std::thread writer([fd = sv[0]] {
    const std::string longest(kMaxRequestLineBytes, 'A');
    const std::string flood(kMaxRequestLineBytes + 1, 'B');
    WriteAll(fd, longest.data(), longest.size());
    WriteAll(fd, "\n", 1);
    WriteAll(fd, flood.data(), flood.size());
    ::close(fd);
  });
  LineCarry carry;
  std::string line;
  EXPECT_EQ(ReadLineEx(sv[1], &carry, &line), ReadLineStatus::kLine);
  EXPECT_EQ(line.size(), kMaxRequestLineBytes);
  EXPECT_EQ(ReadLineEx(sv[1], &carry, &line), ReadLineStatus::kTooLong);
  ::close(sv[1]);
  writer.join();
}

// A client dribbling one byte at a time must still be served: ReadLineEx
// keeps accumulating through short reads instead of treating them as
// closes. Its mid-line death afterwards must register as a protocol error.
TEST(LineServerTest, ByteAtATimeClientAndTruncationTelemetry) {
  ServeCore core(SmallOptions());
  LineServer server(core);
  std::string err;
  ASSERT_TRUE(server.Start(0, &err)) << err;
  const uint64_t proto_errors_before =
      telemetry::Registry::Get().SumCounter("hk_serve_protocol_errors_total");

  const int fd = ConnectTcp("127.0.0.1", server.port(), &err);
  ASSERT_GE(fd, 0) << err;
  const std::string request = "PING\n";
  for (char byte : request) {  // TCP_NODELAY: each byte is its own segment
    ASSERT_TRUE(WriteAll(fd, &byte, 1));
  }
  LineCarry carry;
  std::string line;
  ASSERT_TRUE(ReadLine(fd, &carry, &line));
  EXPECT_EQ(line, "OK pong");

  // Die mid-request: bytes on the wire, no newline, then hang up.
  ASSERT_TRUE(WriteAll(fd, "TOPK 1", 6));
  ::close(fd);
  // The connection thread notices the truncation on its next read; poll
  // the counter rather than racing it. With telemetry off (HK_TELEMETRY=off)
  // the counter never moves - nothing to assert.
  if (telemetry::Registry::Enabled()) {
    uint64_t proto_errors_after = proto_errors_before;
    for (int i = 0; i < 200 && proto_errors_after == proto_errors_before; ++i) {
      ::usleep(10 * 1000);
      proto_errors_after =
          telemetry::Registry::Get().SumCounter("hk_serve_protocol_errors_total");
    }
    EXPECT_GE(proto_errors_after, proto_errors_before + 1);
  }
  server.Stop();
}

// A client that floods one line with no newline gets an ERR and a closed
// connection, is counted as a protocol error, and the daemon keeps serving.
TEST(LineServerTest, OverlongRequestLineIsRefusedAndClosed) {
  ServeCore core(SmallOptions());
  LineServer server(core);
  std::string err;
  ASSERT_TRUE(server.Start(0, &err)) << err;
  const uint64_t proto_errors_before =
      telemetry::Registry::Get().SumCounter("hk_serve_protocol_errors_total");

  const int fd = ConnectTcp("127.0.0.1", server.port(), &err);
  ASSERT_GE(fd, 0) << err;
  const std::string flood(kMaxRequestLineBytes + 1, 'A');
  ASSERT_TRUE(WriteAll(fd, flood.data(), flood.size()));
  ::shutdown(fd, SHUT_WR);
  LineCarry carry;
  std::string line;
  ASSERT_EQ(ReadLineEx(fd, &carry, &line), ReadLineStatus::kLine);
  EXPECT_EQ(line, "ERR request line longer than 65536 bytes");
  EXPECT_EQ(ReadLineEx(fd, &carry, &line), ReadLineStatus::kEof);  // server hung up
  ::close(fd);
  if (telemetry::Registry::Enabled()) {
    EXPECT_GE(telemetry::Registry::Get().SumCounter("hk_serve_protocol_errors_total"),
              proto_errors_before + 1);
  }

  const int next = ConnectTcp("127.0.0.1", server.port(), &err);
  ASSERT_GE(next, 0) << err;
  ASSERT_TRUE(WriteAll(next, "PING\n", 5));
  carry = {};
  ASSERT_TRUE(ReadLine(next, &carry, &line));
  EXPECT_EQ(line, "OK pong");
  ::close(next);
  server.Stop();
}


// ---------------------------------------------------------------------------
// Pipelined bursts: a connection executes every request already received
// and sends the replies together, so each test reads the whole reply
// stream and cuts it into replies by their framing.

// Every byte the server sends until it closes the connection.
std::string ReadUntilClosed(int fd) {
  const timeval timeout{10, 0};
  EXPECT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)), 0);
  std::string received;
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      EXPECT_EQ(n, 0) << "recv: " << std::strerror(errno);
      return received;
    }
    received.append(chunk, static_cast<size_t>(n));
  }
}

// The next reply at *pos: through its END line when it is multi-line,
// else its one line. Empty when the stream ends mid-reply.
std::string NextReply(const std::string& stream, size_t* pos, bool multi_line) {
  size_t end = *pos;
  for (;;) {
    const size_t nl = stream.find('\n', end);
    if (nl == std::string::npos) {
      return "";
    }
    const bool last = !multi_line || stream.compare(end, 3, "END") == 0;
    end = nl + 1;
    if (last) {
      break;
    }
  }
  std::string reply = stream.substr(*pos, end - *pos);
  *pos = end;
  return reply;
}

// One write of 205 mixed requests whose replies pass the 64 KiB send
// threshold, then QUIT: every reply arrives whole and in order, then
// "OK bye", then the close.
TEST(LineServerTest, PipelinedBurstRepliesArriveWholeAndInOrder) {
  const Fixture& fx = CampusCapture();
  ServeCore core(SmallOptions());
  ASSERT_EQ(core.Execute("CREATE campus HK:mem=64KB"), "OK created campus\n");
  ASSERT_EQ(core.Execute("ATTACH campus " + fx.path), "OK attached campus\n");
  core.DrainIngest();
  LineServer server(core);
  std::string err;
  ASSERT_TRUE(server.Start(0, &err)) << err;

  std::vector<std::string> requests;
  for (int i = 0; i < 50; ++i) {
    char point[64];
    std::snprintf(point, sizeof(point), "POINT campus %llx",
                  static_cast<unsigned long long>(fx.trace.packets[i * 7]));
    requests.insert(requests.end(), {"TOPK campus 100", point, "FETCH everything", "PING"});
    if (i % 10 == 0) {
      requests.push_back("METRICS hk_serve_");
    }
  }
  ASSERT_GE(requests.size(), 200u);
  std::string burst;
  for (const std::string& request : requests) {
    burst += request + "\n";
  }
  burst += "QUIT\n";
  const int fd = ConnectTcp("127.0.0.1", server.port(), &err);
  ASSERT_GE(fd, 0) << err;
  ASSERT_TRUE(WriteAll(fd, burst.data(), burst.size()));
  const std::string stream = ReadUntilClosed(fd);
  ::close(fd);
  EXPECT_GT(stream.size(), kMaxPendingReplyBytes);

  size_t pos = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const std::string& request = requests[i];
    const bool metrics = request.rfind("METRICS", 0) == 0;
    const std::string reply = NextReply(stream, &pos, metrics || request.rfind("TOPK", 0) == 0);
    if (metrics) {
      // Counters move with every request: check the framing alone.
      EXPECT_EQ(reply.rfind("# HELP hk_serve_", 0), 0u) << "request " << i;
      EXPECT_NE(reply.find("\nhk_serve_requests_total{verb=\"TOPK\"} "), std::string::npos);
      EXPECT_TRUE(reply.ends_with("\nEND\n")) << "request " << i;
    } else {
      // A drained instance answers these the same every time.
      ASSERT_EQ(reply, core.Execute(request)) << "request " << i << ": " << request;
    }
  }
  EXPECT_EQ(stream.substr(pos), "OK bye\n");
  server.Stop();
}

// A pipelined burst followed by a line past the 64 KiB limit: the burst's
// replies arrive, in order, before the ERR that ends the connection.
TEST(LineServerTest, PipelinedRepliesPrecedeTheOverlongLineError) {
  ServeCore core(SmallOptions());
  ASSERT_EQ(core.Execute("CREATE a SS"), "OK created a\n");
  LineServer server(core);
  std::string err;
  ASSERT_TRUE(server.Start(0, &err)) << err;
  const int fd = ConnectTcp("127.0.0.1", server.port(), &err);
  ASSERT_GE(fd, 0) << err;
  // The reader is the server's: this write may outrun the socket buffers.
  std::thread writer([fd] {
    const std::string burst = "PING\nPOINT a 1\nTOPK a 5\nBOGUS\n";
    const std::string flood(kMaxRequestLineBytes + 1, 'x');
    WriteAll(fd, burst.data(), burst.size());
    WriteAll(fd, flood.data(), flood.size());
    ::shutdown(fd, SHUT_WR);
  });
  const std::string stream = ReadUntilClosed(fd);
  writer.join();
  ::close(fd);
  const std::string want = "OK pong\nOK 0\nEND consistency=exact tracked=0 min=0\n" +
                           core.Execute("BOGUS") + "ERR request line longer than 65536 bytes\n";
  EXPECT_EQ(stream, want);
  server.Stop();
}

// A request that can block does not hold back the replies before it:
// ATTACH of a FIFO waits in its open for a writer, and the PING written
// in the same burst ahead of it must be answered meanwhile.
TEST(LineServerTest, PipelinedRepliesPrecedeABlockingAttach) {
  const std::string fifo = TempPath("serve_wire_fifo_" + std::to_string(::getpid()));
  std::remove(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0) << std::strerror(errno);
  ServeCore core(SmallOptions());
  ASSERT_EQ(core.Execute("CREATE waiting HK"), "OK created waiting\n");
  LineServer server(core);
  std::string err;
  ASSERT_TRUE(server.Start(0, &err)) << err;
  const int fd = ConnectTcp("127.0.0.1", server.port(), &err);
  ASSERT_GE(fd, 0) << err;
  const std::string burst = "PING\nATTACH waiting " + fifo + "\nPING\nQUIT\n";
  ASSERT_TRUE(WriteAll(fd, burst.data(), burst.size()));
  const timeval timeout{2, 0};
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)), 0);
  char first[9] = {};
  const ssize_t got = ::recv(fd, first, sizeof(first) - 1, MSG_WAITALL);
  // Open and close a writer: ATTACH's open returns, finds no capture
  // header, and answers ERR.
  const int writer = ::open(fifo.c_str(), O_WRONLY);
  EXPECT_GE(writer, 0) << std::strerror(errno);
  ::close(writer);
  EXPECT_EQ(std::string(first, got > 0 ? static_cast<size_t>(got) : 0), "OK pong\n")
      << "the PING's reply waited for ATTACH";
  const std::string rest = ReadUntilClosed(fd);
  ::close(fd);
  EXPECT_EQ(rest.rfind("ERR ", 0), 0u) << rest;
  EXPECT_TRUE(rest.ends_with("\nOK pong\nOK bye\n")) << rest;
  server.Stop();
  std::remove(fifo.c_str());
}

}  // namespace
}  // namespace hk
