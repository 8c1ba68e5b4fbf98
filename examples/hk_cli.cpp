// hk_cli - command-line front end for the library.
//
//   hk_cli algos
//   hk_cli generate --out t.trace [--packets N] [--kind campus|caida|zipf]
//                   [--skew S] [--seed X]
//   hk_cli topk     --trace t.trace [--algo HK] [--memory-kb 50] [--k 20]
//   hk_cli evaluate --trace t.trace [--algo HK] [--memory-kb 50] [--k 100]
//   hk_cli bench    --trace t.trace [--algo HK] [--memory-kb 50] [--k 100]
//   hk_cli ingest   --pcap c.pcap [--algo HK] [--key 5tuple|pair|src]
//                   [--bytes] [--epoch-ms N] [--memory-kb 50] [--k 100]
//   hk_cli query    [--host 127.0.0.1] [--port 7070] "TOPK 10 relaxed" ...
//   hk_cli metrics  [--host 127.0.0.1] [--port 7070] [filter]
//   hk_cli watch    [--host 127.0.0.1] [--port 7070] [--interval-ms N] [filter]
//
// `--algo` accepts any sketch registry spec (sketch/registry.h): a name
// from `hk_cli algos` plus optional key=value overrides, e.g.
// "HK-Minimum:d=4,b=1.05". The multi-core front-end rides the same
// grammar - "Sharded:n=8,inner=HK-Minimum" partitions the key space over
// 8 shards ("threads=1" runs them on worker threads; README "Multi-core:
// when Sharded pays").
// --memory-kb/--k/--seed set the spec's context defaults. Reports go
// through Snapshot(), the consistency-documented query surface.
//
// `query` is the thin client for a running hk_serve daemon: each
// positional argument is sent as one protocol line and the full response
// (through its OK/ERR/END terminator) is printed. Exit status 1 when any
// request came back ERR.
//
// `metrics` scrapes the daemon's METRICS verb and prints the Prometheus
// text exposition with the protocol's END sentinel stripped, so the
// output pipes straight into promtool or a file_sd scraper. `watch`
// re-scrapes on an interval and prints per-interval counter deltas - a
// poor man's `top` for a live daemon.
//
// `ingest` reads a real capture (pcap or pcapng, src/ingest/), replays it
// through the algorithm in InsertBatch bursts - byte-weighted by wire
// length with --bytes - and reports the top-k next to the capture's exact
// oracle. --key picks the flow definition (Section VI-A): the campus
// 5-tuple, the CAIDA src/dst pair, or per-source aggregation; the same
// flag overrides the key accounting for the trace commands. --epoch-ms N
// reports per N-ms capture-time window instead (a one-slot Window ring;
// --window W keeps W of them and ends with their sliding top-k). Window
// keeps only synchronous inners, so a threaded --algo is refused there.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/algorithms.h"
#include "ingest/pcap_reader.h"
#include "ingest/trace_replayer.h"
#include "metrics/accuracy.h"
#include "metrics/throughput.h"
#include "serve/net.h"
#include "sketch/registry.h"
#include "trace/generators.h"
#include "trace/oracle.h"
#include "trace/trace.h"
#include "window/windowed_topk.h"

namespace {

using namespace hk;
using namespace hk::bench;

struct Options {
  std::string command;
  std::string trace_path;
  std::string pcap_path;
  std::string out_path;
  std::string kind = "campus";
  std::string algo = "HK";
  std::string key;  // empty = trace default / 5tuple for ingest
  uint64_t packets = 1'000'000;
  double skew = 1.0;
  uint64_t seed = 1;
  size_t memory_kb = 50;
  size_t k = 100;
  uint64_t epoch_ms = 0;
  size_t window = 0;  // >0: sliding ring of W capture-time windows
  bool bytes = false;
  std::string host = "127.0.0.1";
  uint16_t port = 7070;
  uint64_t interval_ms = 2000;     // watch: re-scrape cadence
  std::vector<std::string> lines;  // query: protocol lines / metrics: filter
};

int Usage() {
  std::fprintf(stderr,
               "usage: hk_cli <algos|generate|topk|evaluate|bench|ingest|query|metrics|watch>"
               " [options]\n"
               "  algos    list registered algorithm names (specs for --algo)\n"
               "  generate --out FILE [--packets N] [--kind campus|caida|zipf]\n"
               "           [--skew S] [--seed X]\n"
               "  topk     --trace FILE [--algo SPEC] [--memory-kb KB] [--k K]\n"
               "  evaluate --trace FILE [--algo SPEC] [--memory-kb KB] [--k K]\n"
               "  bench    --trace FILE [--algo SPEC] [--memory-kb KB] [--k K]\n"
               "  ingest   --pcap FILE [--algo SPEC] [--key 5tuple|pair|src]\n"
               "           [--bytes] [--epoch-ms N] [--window W] [--memory-kb KB]\n"
               "           [--k K]   (--epoch-ms N: a report per N-ms capture-time\n"
               "           window; --window W: sliding top-k over the last W)\n"
               "  query    [--host H] [--port N] \"LINE\" [\"LINE\"...]  send protocol\n"
               "           lines to a running hk_serve (default 127.0.0.1:7070)\n"
               "  metrics  [--host H] [--port N] [FILTER]  scrape the daemon's\n"
               "           Prometheus exposition (END stripped; FILTER keeps\n"
               "           names with that prefix or instance=\"FILTER\" series)\n"
               "  watch    [--host H] [--port N] [--interval-ms N] [FILTER]\n"
               "           re-scrape every interval and print counter deltas\n"
               "  --key    flow definition: 5tuple (campus), pair (CAIDA), src;\n"
               "           also overrides the key accounting for trace commands\n"
               "  SPEC = NAME[:key=value,...], e.g. \"HK-Minimum:d=4,b=1.05\"\n"
               "         or \"Sharded:n=8,threads=1,inner=HK-Minimum\" (partitioned\n"
               "         multi-core; inner= swallows the rest of the spec, so it\n"
               "         goes last)\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* opts) {
  if (argc < 2) {
    return false;
  }
  opts->command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--bytes") {  // boolean: no value
      opts->bytes = true;
      continue;
    }
    if (flag.rfind("--", 0) != 0) {  // positional: a protocol line for `query`
      opts->lines.push_back(flag);
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--trace") {
      opts->trace_path = value;
    } else if (flag == "--pcap") {
      opts->pcap_path = value;
    } else if (flag == "--out") {
      opts->out_path = value;
    } else if (flag == "--kind") {
      opts->kind = value;
    } else if (flag == "--algo") {
      opts->algo = value;
    } else if (flag == "--key") {
      opts->key = value;
    } else if (flag == "--packets") {
      opts->packets = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--skew") {
      opts->skew = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--seed") {
      opts->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--memory-kb") {
      opts->memory_kb = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--k") {
      opts->k = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--epoch-ms") {
      opts->epoch_ms = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--window") {
      opts->window = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--host") {
      opts->host = value;
    } else if (flag == "--port") {
      opts->port = static_cast<uint16_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (flag == "--interval-ms") {
      opts->interval_ms = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

int Generate(const Options& opts) {
  if (opts.out_path.empty()) {
    std::fprintf(stderr, "generate requires --out\n");
    return 2;
  }
  Trace trace;
  if (opts.kind == "campus") {
    trace = MakeCampusTrace(opts.packets, opts.seed);
  } else if (opts.kind == "caida") {
    trace = MakeCaidaTrace(opts.packets, opts.seed);
  } else if (opts.kind == "zipf") {
    trace = MakeSyntheticTrace(opts.packets, opts.skew, opts.seed);
  } else {
    std::fprintf(stderr, "unknown kind: %s\n", opts.kind.c_str());
    return 2;
  }
  if (!trace.Save(opts.out_path)) {
    std::fprintf(stderr, "failed to write %s\n", opts.out_path.c_str());
    return 1;
  }
  std::printf("wrote %s: %llu packets, %llu flows (%s)\n", opts.out_path.c_str(),
              static_cast<unsigned long long>(trace.num_packets()),
              static_cast<unsigned long long>(trace.num_flows), KeyKindName(trace.key_kind));
  return 0;
}

// --key override for the trace/ingest commands; returns false on a bad name.
bool ResolveKeyKind(const Options& opts, KeyKind* kind) {
  if (opts.key.empty()) {
    return true;
  }
  PcapKeyPolicy policy;
  if (!ParsePcapKeyPolicy(opts.key, &policy)) {
    std::fprintf(stderr, "--key must be 5tuple, pair or src (got '%s')\n", opts.key.c_str());
    return false;
  }
  *kind = ToKeyKind(policy);
  return true;
}

int RunWithTrace(const Options& opts) {
  Trace trace;
  if (opts.trace_path.empty() || !Trace::Load(opts.trace_path, &trace)) {
    std::fprintf(stderr, "failed to load trace %s\n", opts.trace_path.c_str());
    return 1;
  }
  KeyKind key_kind = trace.key_kind;
  if (!ResolveKeyKind(opts, &key_kind)) {
    return 2;
  }
  std::unique_ptr<TopKAlgorithm> algo;
  try {
    algo = MakeAlgorithm(opts.algo, opts.memory_kb * 1024, opts.k, key_kind, opts.seed);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n(try `hk_cli algos` for the registered names)\n", e.what());
    return 2;
  }

  if (opts.command == "bench") {
    const auto result = MeasureThroughput(*algo, trace);
    std::printf("%s: %llu packets in %.3fs -> %.2f Mps (%zu KB, k=%zu)\n",
                algo->name().c_str(), static_cast<unsigned long long>(result.packets),
                result.seconds, result.mps, opts.memory_kb, opts.k);
    return 0;
  }

  // Batch insert: algorithms with a pipelined path (HeavyKeeper) amortize
  // hashing and prefetch buckets across the burst.
  algo->InsertBatch(trace.packets);

  if (opts.command == "topk") {
    const QueryResult result = algo->Snapshot({.k = opts.k});
    std::printf("%-6s%-20s%12s\n", "rank", "flow id", "estimate");
    for (size_t i = 0; i < result.flows.size(); ++i) {
      std::printf("%-6zu%-20llx%12llu\n", i + 1,
                  static_cast<unsigned long long>(result.flows[i].id),
                  static_cast<unsigned long long>(result.flows[i].count));
    }
    std::printf("(%zu tracked flows, min tracked %llu, %s)\n", result.stats.tracked_flows,
                static_cast<unsigned long long>(result.stats.min_tracked),
                result.consistency == ConsistencyLevel::kExact ? "exact" : "relaxed");
    return 0;
  }

  // evaluate
  const Oracle oracle(trace);
  const auto report = EvaluateTopK(algo->Snapshot({.k = opts.k}).flows, oracle, opts.k);
  std::printf("%s on %s (%zu KB, k=%zu):\n", algo->name().c_str(), trace.name.c_str(),
              opts.memory_kb, opts.k);
  std::printf("  precision %.4f  recall %.4f  ARE %.6f  AAE %.2f\n", report.precision,
              report.recall, report.are, report.aae);
  return 0;
}

int Ingest(const Options& opts) {
  if (opts.pcap_path.empty()) {
    std::fprintf(stderr, "ingest requires --pcap\n");
    return 2;
  }
  PcapKeyPolicy policy = PcapKeyPolicy::kFiveTuple;
  if (!opts.key.empty() && !ParsePcapKeyPolicy(opts.key, &policy)) {
    std::fprintf(stderr, "--key must be 5tuple, pair or src (got '%s')\n", opts.key.c_str());
    return 2;
  }
  PcapReader reader(policy);
  if (!reader.Open(opts.pcap_path)) {
    std::fprintf(stderr, "failed to open %s: %s\n", opts.pcap_path.c_str(),
                 reader.error().c_str());
    return 1;
  }

  ReplayOptions replay_opts;
  replay_opts.byte_weighted = opts.bytes;
  replay_opts.epoch_ns = opts.epoch_ms * 1'000'000ULL;
  const TraceReplayer replayer(replay_opts);

  if (opts.epoch_ms > 0 || opts.window > 0) {
    // Capture-time windows: a ring of W windows of --epoch-ms each around
    // --algo, rotated on packet timestamps. --epoch-ms alone is W = 1:
    // independent per-window reports. Each completed window prints its
    // head as it closes. No oracle pass here - the windowed mode streams
    // the capture exactly once.
    if (opts.epoch_ms == 0) {
      std::fprintf(stderr, "--window requires --epoch-ms (the window width)\n");
      return 2;
    }
    WindowedTopKOptions wopts;
    wopts.window_epochs = std::max<size_t>(opts.window, 1);
    wopts.epoch_packets = WindowedTopK::kNoPacketRotation;  // capture clock only
    wopts.inner_spec = opts.algo;
    SketchDefaults defaults;
    defaults.memory_bytes = opts.memory_kb * 1024;
    defaults.k = opts.k;
    defaults.key_kind = ToKeyKind(policy);
    defaults.seed = opts.seed;
    std::unique_ptr<WindowedTopK> window;
    try {
      window = std::make_unique<WindowedTopK>(
          wopts, defaults, [&](uint64_t epoch, std::vector<FlowCount> report) {
            std::printf("  window %-4llu %zu flows tracked, top",
                        static_cast<unsigned long long>(epoch), report.size());
            for (size_t i = 0; i < report.size() && i < 3; ++i) {
              std::printf("  %llx:%llu", static_cast<unsigned long long>(report[i].id),
                          static_cast<unsigned long long>(report[i].count));
            }
            std::printf("\n");
          });
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s\n(try `hk_cli algos` for the registered names)\n", e.what());
      return 2;
    }
    std::printf("%s on %s (%s keys, %s, %zu KB, k=%zu)\n", window->name().c_str(),
                opts.pcap_path.c_str(), PcapKeyPolicyName(policy),
                opts.bytes ? "byte-weighted" : "packet counts", opts.memory_kb, opts.k);
    const ReplayStats stats = replayer.Replay(reader, *window);
    if (window->window_epochs() == 1) {
      window->Rotate();  // independent windows: close and report the partial last one
    } else {
      // A deeper ring keeps the last W windows queryable together.
      const auto top = window->Snapshot({.k = opts.k}).flows;
      std::printf("sliding top-%zu over the last %zu windows:\n", opts.k, window->window_epochs());
      for (size_t i = 0; i < top.size() && i < 10; ++i) {
        std::printf("  %-6zu%-20llx%14llu\n", i + 1,
                    static_cast<unsigned long long>(top[i].id),
                    static_cast<unsigned long long>(top[i].count));
      }
    }
    std::printf("%llu packets, %llu wire bytes, %llu completed windows of %llu ms, %.2f Mps\n",
                static_cast<unsigned long long>(stats.packets),
                static_cast<unsigned long long>(stats.wire_bytes),
                static_cast<unsigned long long>(window->completed_epochs()),
                static_cast<unsigned long long>(opts.epoch_ms),
                Mps(stats.packets, stats.seconds));
    return 0;
  }

  std::unique_ptr<TopKAlgorithm> algo;
  try {
    algo = MakeAlgorithm(opts.algo, opts.memory_kb * 1024, opts.k, ToKeyKind(policy), opts.seed);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n(try `hk_cli algos` for the registered names)\n", e.what());
    return 2;
  }
  std::printf("%s on %s (%s keys, %s, %zu KB, k=%zu)\n", algo->name().c_str(),
              opts.pcap_path.c_str(), PcapKeyPolicyName(policy),
              opts.bytes ? "byte-weighted" : "packet counts", opts.memory_kb, opts.k);

  // Pass 1: the capture's exact ground truth under this key policy.
  Oracle oracle;
  PacketRecord record;
  while (reader.Next(&record)) {
    oracle.Add(record.id, opts.bytes ? record.wire_len : 1);
  }
  if (!reader.ok()) {
    std::fprintf(stderr, "warning: capture malformed after %llu packets: %s\n",
                 static_cast<unsigned long long>(reader.stats().packets),
                 reader.error().c_str());
  }
  const IngestStats parse_stats = reader.stats();
  reader.Rewind();

  const ReplayStats stats = replayer.Replay(reader, *algo);
  // Snapshot quiesces (kExact): the replay may have fed a threaded
  // front-end whose workers are still draining.
  const auto top = algo->Snapshot({.k = opts.k}).flows;
  std::printf("%-6s%-20s%14s%14s\n", "rank", "flow id", "estimate", "true");
  for (size_t i = 0; i < top.size() && i < 20; ++i) {
    std::printf("%-6zu%-20llx%14llu%14llu\n", i + 1,
                static_cast<unsigned long long>(top[i].id),
                static_cast<unsigned long long>(top[i].count),
                static_cast<unsigned long long>(oracle.Count(top[i].id)));
  }
  const auto report = EvaluateTopK(top, oracle, opts.k);
  std::printf("precision %.4f  recall %.4f  ARE %.6f  AAE %.2f\n", report.precision,
              report.recall, report.are, report.aae);
  std::printf("%llu packets (%llu wire bytes) in %.3fs -> %.2f Mps, %.1f MB/s\n",
              static_cast<unsigned long long>(stats.packets),
              static_cast<unsigned long long>(stats.wire_bytes), stats.seconds,
              Mps(stats.packets, stats.seconds),
              stats.seconds > 0 ? static_cast<double>(stats.wire_bytes) / 1e6 / stats.seconds
                                : 0.0);
  if (parse_stats.skipped_non_ip + parse_stats.skipped_truncated + parse_stats.skipped_other >
      0) {
    std::printf("skipped: %llu non-IP, %llu truncated, %llu other\n",
                static_cast<unsigned long long>(parse_stats.skipped_non_ip),
                static_cast<unsigned long long>(parse_stats.skipped_truncated),
                static_cast<unsigned long long>(parse_stats.skipped_other));
  }
  return 0;
}

// Thin hk_serve client: one connection, each positional argument sent as a
// protocol line, each response printed through its terminator.
int Query(const Options& opts) {
  if (opts.lines.empty()) {
    std::fprintf(stderr, "query needs at least one protocol line, e.g. \"TOPK 10\"\n");
    return 2;
  }
  std::string err;
  const int fd = ConnectTcp(opts.host, opts.port, &err);
  if (fd < 0) {
    std::fprintf(stderr, "hk_serve unreachable: %s\n", err.c_str());
    return 1;
  }
  int status = 0;
  LineCarry carry;
  for (const std::string& request : opts.lines) {
    const std::string framed = request + "\n";
    if (!WriteAll(fd, framed.data(), framed.size())) {
      std::fprintf(stderr, "connection lost sending '%s'\n", request.c_str());
      ::close(fd);
      return 1;
    }
    std::string line;
    bool terminated = false;
    while (!terminated && ReadLine(fd, &carry, &line)) {
      std::printf("%s\n", line.c_str());
      if (line.rfind("ERR", 0) == 0) {
        status = 1;
      }
      terminated = line.rfind("END", 0) == 0 || line.rfind("OK", 0) == 0 ||
                   line.rfind("ERR", 0) == 0;
    }
    if (!terminated) {
      std::fprintf(stderr, "connection closed mid-response to '%s'\n", request.c_str());
      ::close(fd);
      return 1;
    }
  }
  ::close(fd);
  return status;
}

// One METRICS scrape over an existing connection. Appends exposition lines
// (END stripped) to *lines; false when the daemon answered ERR or hung up.
bool ScrapeMetrics(int fd, LineCarry* carry, const std::string& filter,
                   std::vector<std::string>* lines) {
  const std::string request = filter.empty() ? "METRICS\n" : "METRICS " + filter + "\n";
  if (!WriteAll(fd, request.data(), request.size())) {
    std::fprintf(stderr, "connection lost sending METRICS\n");
    return false;
  }
  std::string line;
  while (ReadLine(fd, carry, &line)) {
    if (line.rfind("END", 0) == 0) {
      return true;
    }
    if (line.rfind("ERR", 0) == 0) {
      std::fprintf(stderr, "%s\n", line.c_str());
      return false;
    }
    lines->push_back(line);
  }
  std::fprintf(stderr, "connection closed mid-exposition\n");
  return false;
}

// `hk_cli metrics`: one scrape, exposition on stdout, END stripped.
int Metrics(const Options& opts) {
  if (opts.lines.size() > 1) {
    std::fprintf(stderr, "metrics takes at most one positional FILTER argument\n");
    return 2;
  }
  std::string err;
  const int fd = ConnectTcp(opts.host, opts.port, &err);
  if (fd < 0) {
    std::fprintf(stderr, "hk_serve unreachable: %s\n", err.c_str());
    return 1;
  }
  LineCarry carry;
  std::vector<std::string> lines;
  const bool ok =
      ScrapeMetrics(fd, &carry, opts.lines.empty() ? "" : opts.lines[0], &lines);
  ::close(fd);
  if (!ok) {
    return 1;
  }
  for (const std::string& line : lines) {
    std::printf("%s\n", line.c_str());
  }
  return 0;
}

// `hk_cli watch`: periodic scrapes printing per-interval counter deltas.
// Only series whose value moved are shown, so a quiet daemon prints only
// the heartbeat line. Runs until the connection drops or the user kills it.
int Watch(const Options& opts) {
  if (opts.lines.size() > 1) {
    std::fprintf(stderr, "watch takes at most one positional FILTER argument\n");
    return 2;
  }
  const std::string filter = opts.lines.empty() ? "" : opts.lines[0];
  std::string err;
  const int fd = ConnectTcp(opts.host, opts.port, &err);
  if (fd < 0) {
    std::fprintf(stderr, "hk_serve unreachable: %s\n", err.c_str());
    return 1;
  }
  LineCarry carry;
  std::map<std::string, double> previous;
  bool first = true;
  for (;;) {
    std::vector<std::string> lines;
    if (!ScrapeMetrics(fd, &carry, filter, &lines)) {
      ::close(fd);
      return 1;
    }
    std::map<std::string, double> current;
    for (const std::string& line : lines) {
      if (line.empty() || line[0] == '#') {  // HELP/TYPE commentary
        continue;
      }
      const size_t space = line.find_last_of(' ');
      if (space == std::string::npos) {
        continue;
      }
      current[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
    }
    if (first) {
      std::printf("watching %s:%u (%zu series, every %llums); deltas follow\n",
                  opts.host.c_str(), static_cast<unsigned>(opts.port), current.size(),
                  static_cast<unsigned long long>(opts.interval_ms));
      first = false;
    } else {
      size_t moved = 0;
      for (const auto& [series, value] : current) {
        const auto it = previous.find(series);
        const double delta = it == previous.end() ? value : value - it->second;
        if (delta != 0) {
          std::printf("  %-60s %+.0f\n", series.c_str(), delta);
          ++moved;
        }
      }
      std::printf("-- %zu/%zu series moved --\n", moved, current.size());
      std::fflush(stdout);
    }
    previous = std::move(current);
    std::this_thread::sleep_for(std::chrono::milliseconds(opts.interval_ms));
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    return Usage();
  }
  if (opts.command == "algos") {
    for (const auto& name : RegisteredSketches()) {
      std::printf("%s\n", name.c_str());
    }
    std::printf(
        "\nAny name takes key=value overrides (\"HK-Minimum:d=4,b=1.05\").\n"
        "\"Sharded:n=8,inner=<spec>\" partitions the key space over 8 shards\n"
        "(threads=1 for worker threads); inner= swallows the rest of the\n"
        "spec, so it must come last.\n");
    return 0;
  }
  if (opts.command == "generate") {
    return Generate(opts);
  }
  if (opts.command == "topk" || opts.command == "evaluate" || opts.command == "bench") {
    return RunWithTrace(opts);
  }
  if (opts.command == "ingest") {
    return Ingest(opts);
  }
  if (opts.command == "query") {
    return Query(opts);
  }
  if (opts.command == "metrics") {
    return Metrics(opts);
  }
  if (opts.command == "watch") {
    return Watch(opts);
  }
  return Usage();
}
