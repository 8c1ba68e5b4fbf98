// hk_serve line-protocol tests: ServeCore::Execute() verb coverage
// (multi-tenancy, the single-tenant name-omission convenience, relaxed vs
// exact TOPK, ingest from a synthesized capture) and the LineServer TCP
// transport end to end over loopback.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ingest/capture_synth.h"
#include "serve/line_server.h"
#include "serve/net.h"
#include "serve/serve_core.h"
#include "telemetry/telemetry.h"
#include "trace/generators.h"
#include "trace/oracle.h"

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

  const auto lines = Lines(core.Execute("LIST"));
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].rfind("INSTANCE a ", 0), 0u);
  EXPECT_EQ(lines[1].rfind("INSTANCE b ", 0), 0u);
  EXPECT_EQ(lines[2], "END");

  EXPECT_EQ(core.Execute("DROP b"), "OK dropped b\n");
  EXPECT_EQ(core.Execute("DROP b").rfind("ERR ", 0), 0u);
  EXPECT_EQ(core.InstanceNames(), std::vector<std::string>{"a"});
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
// The TCP transport.

// Read response lines until a terminator ("END ...", "OK ...", "ERR ...").
std::vector<std::string> Request(int fd, std::string* carry, const std::string& line) {
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
  std::string carry;

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
  std::string carry2;
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
  std::string carry;
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
  carry.clear();
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
  std::string carry;
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
  std::string carry;
  std::string line;
  ASSERT_TRUE(ReadLine(fd, &carry, &line));
  EXPECT_EQ(line, "OK pong");

  // Die mid-request: bytes on the wire, no newline, then hang up.
  ASSERT_TRUE(WriteAll(fd, "TOPK 1", 6));
  ::close(fd);
  // The connection thread notices the truncation on its next read; poll
  // the counter rather than racing it. With telemetry off (runtime switch
  // or -DHK_TELEMETRY=OFF) the counter never moves - nothing to assert.
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
  std::string carry;
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
  carry.clear();
  ASSERT_TRUE(ReadLine(next, &carry, &line));
  EXPECT_EQ(line, "OK pong");
  ::close(next);
  server.Stop();
}

}  // namespace
}  // namespace hk
