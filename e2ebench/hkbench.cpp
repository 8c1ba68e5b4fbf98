// hkbench: the compiled half of the end-to-end benchmark (run.py drives it).
//
//   hkbench prepare --seed S --dir D --setup LINE... [--check LINE]...
//                   [--kind campus|caida --packets N]
//       The first CREATEd instance of the --setup lines is the main one, and
//       its ATTACH line names the capture. With --kind, that capture is first
//       synthesized from the workload generator; otherwise it must exist.
//       Computes the capture's exact oracle under the ATTACH key policy and
//       replays the capture in-process through ServeCore with the same
//       protocol lines the daemon will receive. Writes D/prepare.json: the
//       packet count, the point-query ids (half true top-100 flows, half
//       one-packet flows, drawn with the seed), the reference response of
//       "TOPK <main> 100", of every --check line and of "POINT <main> <id>"
//       for every id, and EvaluateTopK precision/ARE of that reference TOPK
//       response. Every spec is deterministic for a fixed seed, so the
//       daemon must answer these byte for byte.
//
//   hkbench trace --capture P --key 5tuple|pair --instance NAME=SPEC...
//                 --points FILE --dir D --seconds S --spans-out F
//       The traced per-layer ladder. Replays the capture through the same
//       public calls the daemon makes (PcapReader::Open/Next,
//       TopKAlgorithm::InsertBatch/Flush/Snapshot/EstimateSizeBatch,
//       ServeCore::Attach/Execute, SaveState, EncodeCheckpoint,
//       WriteCheckpointAtomic) with a span around each call, so every
//       number is measured from outside its layer. Prints one JSON object;
//       spans stay in memory and are written to --spans-out at exit.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/hk_topk.h"
#include "ingest/capture_synth.h"
#include "ingest/pcap_reader.h"
#include "metrics/accuracy.h"
#include "serve/checkpoint.h"
#include "serve/serve_core.h"
#include "shard/sharded_topk.h"
#include "sketch/registry.h"
#include "trace/generators.h"
#include "trace/oracle.h"
#include "window/windowed_topk.h"

namespace {

using hk::FlowCount;
using hk::FlowId;

// The daemon's ingest burst (ServeOptions::ingest_batch) and the threaded
// shard worker's drain burst (ShardedTopKOptions::drain_burst).
constexpr size_t kIngestBatch = 512;
constexpr size_t kShardBurst = 256;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "hkbench: %s\n", what.c_str());
  std::exit(2);
}

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
        Die("bad argument '" + key + "'");
      }
      values_[key.substr(2)].push_back(argv[++i]);
    }
  }

  std::string One(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end() || it->second.size() != 1) {
      Die("need exactly one --" + key);
    }
    return it->second[0];
  }

  std::string Get(const std::string& key, const std::string& def) const {
    const auto it = values_.find(key);
    return it == values_.end() ? def : it->second.back();
  }

  std::vector<std::string> All(const std::string& key) const {
    const auto it = values_.find(key);
    return it == values_.end() ? std::vector<std::string>{} : it->second;
  }

  uint64_t Uint(const std::string& key) const { return std::strtoull(One(key).c_str(), nullptr, 10); }

 private:
  std::map<std::string, std::vector<std::string>> values_;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    Die("non-finite measurement");
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string Hex(FlowId id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llx", static_cast<unsigned long long>(id));
  return buf;
}

// Nearest-rank percentile (q in [0, 1]); the same definition run.py uses.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

hk::PcapKeyPolicy PolicyOf(const std::string& key) {
  hk::PcapKeyPolicy policy;
  if (!hk::ParsePcapKeyPolicy(key, &policy)) {
    Die("unknown key policy '" + key + "'");
  }
  return policy;
}

// Parse "FLOW <hex> <count>" lines of a TOPK response.
std::vector<FlowCount> ParseTopK(const std::string& response) {
  std::vector<FlowCount> flows;
  std::istringstream in(response);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("FLOW ", 0) != 0) {
      continue;
    }
    std::istringstream fields(line.substr(5));
    std::string id;
    uint64_t count = 0;
    fields >> id >> count;
    flows.push_back(FlowCount{std::strtoull(id.c_str(), nullptr, 16), count});
  }
  return flows;
}

// ---------------------------------------------------------------- prepare

std::vector<std::string> Words(const std::string& line) {
  std::vector<std::string> words;
  std::istringstream in(line);
  std::string word;
  while (in >> word) {
    words.push_back(word);
  }
  return words;
}

std::vector<FlowId> ReadIds(const std::string& capture, hk::PcapKeyPolicy policy) {
  hk::PcapReader reader(policy);
  if (!reader.Open(capture)) {
    Die("open " + capture + ": " + reader.error());
  }
  std::vector<FlowId> ids;
  hk::PacketRecord record;
  while (reader.Next(&record)) {
    ids.push_back(record.id);
  }
  return ids;
}

int CmdPrepare(const Flags& flags) {
  const uint64_t seed = flags.Uint("seed");
  const std::string dir = flags.One("dir");
  const std::vector<std::string> setup = flags.All("setup");

  // The main instance is the first one CREATEd; the oracle counts its
  // capture under its ATTACH key policy, as the daemon's reader does.
  std::string main_name;
  std::string capture;
  hk::PcapKeyPolicy policy = hk::PcapKeyPolicy::kFiveTuple;
  for (const std::string& line : setup) {
    const std::vector<std::string> words = Words(line);
    if (main_name.empty() && words.size() >= 2 && words[0] == "CREATE") {
      main_name = words[1];
    } else if (capture.empty() && words.size() >= 3 && words[0] == "ATTACH" &&
               words[1] == main_name) {
      capture = words[2];
      for (size_t i = 3; i < words.size(); ++i) {
        if (words[i].rfind("key=", 0) == 0) {
          policy = PolicyOf(words[i].substr(4));
        }
      }
    }
  }
  if (capture.empty()) {
    Die("--setup needs a CREATE line and an ATTACH line for the same instance");
  }

  // With --kind, synthesize the capture the ATTACH line names; otherwise it
  // must already exist.
  const uint64_t t0 = NowNs();
  hk::CaptureSynthStats synth_stats;
  const std::string kind = flags.Get("kind", "");
  if (!kind.empty()) {
    if (kind != "campus" && kind != "caida") {
      Die("--kind must be campus or caida");
    }
    const uint64_t packets = flags.Uint("packets");
    const hk::ZipfTraceConfig config =
        kind == "campus" ? hk::CampusConfig(packets, seed) : hk::CaidaConfig(packets, seed);
    hk::CaptureSynthOptions synth;
    synth.length_seed = seed;
    if (hk::SynthesizeCapture(config, capture, synth, &synth_stats).num_packets() == 0) {
      Die("capture synthesis failed: " + capture);
    }
  }
  hk::Oracle oracle;
  uint64_t trace_packets = 0;
  for (const FlowId id : ReadIds(capture, policy)) {
    oracle.Add(id);
    ++trace_packets;
  }
  const uint64_t t1 = NowNs();

  // Point ids: half from the true top-100, half from one-packet flows.
  constexpr size_t kPerHalf = 64;
  hk::Rng rng(seed ^ 0x706f696e74ULL);
  const std::vector<FlowCount> top = oracle.TopK(100);
  std::vector<FlowId> singles;
  for (const auto& [id, count] : oracle.counts()) {
    if (count == 1) {
      singles.push_back(id);
    }
  }
  std::sort(singles.begin(), singles.end());
  if (top.empty() || singles.empty()) {
    Die("workload has no top flows or no one-packet flows");
  }
  std::vector<FlowId> points;
  for (size_t i = 0; i < kPerHalf; ++i) {
    points.push_back(top[rng.NextBounded(top.size())].id);
    points.push_back(singles[rng.NextBounded(singles.size())]);
  }

  // Reference replay: the daemon's defaults and its protocol lines.
  hk::ServeCore core(hk::ServeOptions{});
  for (const std::string& line : setup) {
    const std::string response = core.Execute(line);
    if (response.rfind("OK", 0) != 0) {
      Die("reference '" + line + "': " + response);
    }
  }
  core.DrainIngest();
  for (const std::string& name : core.InstanceNames()) {
    if (core.PacketsApplied(name) != trace_packets) {
      Die("reference instance " + name + " applied " +
          std::to_string(core.PacketsApplied(name)) + " of " + std::to_string(trace_packets) +
          " packets");
    }
  }
  const std::string topk_line = "TOPK " + main_name + " 100";
  std::vector<std::pair<std::string, std::string>> expected;
  expected.emplace_back(topk_line, core.Execute(topk_line));
  for (const std::string& line : flags.All("check")) {
    expected.emplace_back(line, core.Execute(line));
  }
  for (const FlowId id : points) {
    const std::string line = "POINT " + main_name + " " + Hex(id);
    expected.emplace_back(line, core.Execute(line));
  }
  for (const auto& [line, response] : expected) {
    if (response.rfind("ERR", 0) == 0) {
      Die("reference '" + line + "': " + response);
    }
  }
  const hk::AccuracyReport accuracy =
      hk::EvaluateTopK(ParseTopK(expected.front().second), oracle, 100);
  const uint64_t t2 = NowNs();

  std::ofstream points_file(dir + "/points.txt");
  for (const FlowId id : points) {
    points_file << Hex(id) << "\n";
  }
  std::ofstream out(dir + "/prepare.json");
  out << "{\"capture\": " << JsonString(capture) << ", \"packets\": " << trace_packets
      << ", \"flows\": " << oracle.num_flows() << ", \"wire_bytes\": " << synth_stats.wire_bytes
      << ", \"precision\": " << JsonNumber(accuracy.precision)
      << ", \"are\": " << JsonNumber(accuracy.are) << ", \"recall\": "
      << JsonNumber(accuracy.recall) << ", \"synth_s\": " << JsonNumber((t1 - t0) * 1e-9)
      << ", \"reference_s\": " << JsonNumber((t2 - t1) * 1e-9) << ", \"point_ids\": [";
  for (size_t i = 0; i < points.size(); ++i) {
    out << (i ? ", " : "") << JsonString(Hex(points[i]));
  }
  out << "], \"expected\": [";
  for (size_t i = 0; i < expected.size(); ++i) {
    out << (i ? ", " : "") << "[" << JsonString(expected[i].first) << ", "
        << JsonString(expected[i].second) << "]";
  }
  out << "]}\n";
  out.close();
  if (!out || !points_file) {
    Die("cannot write " + dir + "/prepare.json");
  }
  return 0;
}

// ------------------------------------------------------------------ trace

struct Span {
  const char* name;
  std::string request;  // the instance whose stream the span belongs to
  uint32_t parent;      // 1-based span id; 0 = root
  uint64_t start_ns;
  uint64_t end_ns;
};

// In-memory span recorder; written out once, at exit.
class Tracer {
 public:
  uint32_t Open(const char* name, uint32_t parent, const std::string& request) {
    spans_.push_back(Span{name, request, parent, NowNs(), 0});
    return static_cast<uint32_t>(spans_.size());
  }

  // Returns the span's duration.
  uint64_t Close(uint32_t id) {
    Span& span = spans_[id - 1];
    span.end_ns = NowNs();
    return span.end_ns - span.start_ns;
  }

  // Chrome trace-event JSON plus per-name self time (duration minus the
  // part of its interval the span's children cover).
  bool Write(const std::string& path) const {
    std::vector<uint64_t> child_ns(spans_.size() + 1, 0);
    for (const Span& span : spans_) {
      if (span.parent != 0) {
        child_ns[span.parent] += span.end_ns - span.start_ns;
      }
    }
    std::map<std::string, std::pair<uint64_t, uint64_t>> self;  // name -> (count, self ns)
    std::ofstream out(path);
    const uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "{\"traceEvents\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      const uint64_t dur = span.end_ns - span.start_ns;
      auto& entry = self[span.name];
      entry.first += 1;
      entry.second += dur - std::min(dur, child_ns[i + 1]);
      out << (i ? ",\n" : "\n") << "{\"name\": " << JsonString(span.name)
          << ", \"cat\": " << JsonString(span.request) << ", \"ph\": \"X\", \"pid\": 1"
          << ", \"tid\": " << JsonString(span.request)
          << ", \"ts\": " << JsonNumber((span.start_ns - base) * 1e-3)
          << ", \"dur\": " << JsonNumber(dur * 1e-3) << ", \"args\": {\"id\": " << i + 1
          << ", \"parent\": " << span.parent << "}}";
    }
    out << "],\n\"self_time_ms\": {";
    bool first = true;
    for (const auto& [name, entry] : self) {
      out << (first ? "" : ", ") << JsonString(name) << ": {\"spans\": " << entry.first
          << ", \"self_ms\": " << JsonNumber(entry.second * 1e-6) << "}";
      first = false;
    }
    out << "}}\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
};

struct Instance {
  std::string name;
  std::string spec;
};

struct Replay {
  std::unique_ptr<hk::TopKAlgorithm> algo;
  uint64_t packets = 0;
  uint64_t malformed = 0;
  uint64_t wall_ns = 0;
  uint64_t open_ns = 0;
  uint64_t parse_ns = 0;  // PcapReader::Next
  uint64_t apply_ns = 0;  // TopKAlgorithm::InsertBatch under the instance lock
  uint64_t flush_ns = 0;  // end-of-stream TopKAlgorithm::Flush
};

// The daemon's ingest loop (ServeCore::IngestLoop) replayed in-process:
// open, fill a 512-record burst with Next, apply it under the instance
// lock. kTraced wraps a span around each call; the untraced twin reads the
// clock only at the ends, which is what the overhead ratio compares.
template <bool kTraced>
Replay RunReplay(const std::string& capture, hk::PcapKeyPolicy policy, const Instance& inst,
                 Tracer* tracer) {
  Replay r;
  r.algo = hk::MakeSketch(inst.spec, hk::SketchDefaults{});
  std::mutex mu;
  const uint64_t start = NowNs();
  const uint32_t root = kTraced ? tracer->Open("ingest", 0, inst.name) : 0;
  hk::PcapReader reader(policy);
  uint32_t span = kTraced ? tracer->Open("ingest.open", root, inst.name) : 0;
  if (!reader.Open(capture)) {
    Die("open " + capture + ": " + reader.error());
  }
  if (kTraced) {
    r.open_ns = tracer->Close(span);
  }
  std::vector<FlowId> ids;
  ids.reserve(kIngestBatch);
  hk::PacketRecord record;
  bool more = true;
  while (more) {
    ids.clear();
    span = kTraced ? tracer->Open("ingest.next", root, inst.name) : 0;
    while (ids.size() < kIngestBatch && (more = reader.Next(&record))) {
      ids.push_back(record.id);
    }
    if (kTraced) {
      r.parse_ns += tracer->Close(span);
    }
    if (ids.empty()) {
      break;
    }
    span = kTraced ? tracer->Open("insert_batch", root, inst.name) : 0;
    {
      std::lock_guard<std::mutex> lock(mu);
      r.algo->InsertBatch(ids);
    }
    if (kTraced) {
      r.apply_ns += tracer->Close(span);
    }
    r.packets += ids.size();
  }
  span = kTraced ? tracer->Open("flush", root, inst.name) : 0;
  r.algo->Flush();
  if (kTraced) {
    r.flush_ns = tracer->Close(span);
    tracer->Close(root);
  }
  r.wall_ns = NowNs() - start;
  if (!reader.ok()) {
    Die("capture stream failed: " + reader.error());
  }
  const hk::IngestStats& stats = reader.stats();
  r.malformed = stats.skipped_non_ip + stats.skipped_truncated + stats.skipped_other;
  return r;
}

const hk::HeavyKeeper* SketchOf(hk::TopKAlgorithm* algo) {
  if (auto* pipeline = dynamic_cast<hk::HeavyKeeperTopK<>*>(algo)) {
    return &pipeline->sketch();
  }
  if (auto* sharded = dynamic_cast<hk::ShardedTopK*>(algo)) {
    return SketchOf(&sharded->shard(0));
  }
  return nullptr;
}

std::vector<FlowId> ReadPoints(const std::string& path) {
  std::ifstream in(path);
  std::vector<FlowId> ids;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      ids.push_back(std::strtoull(line.c_str(), nullptr, 16));
    }
  }
  if (ids.empty()) {
    Die("no point ids in " + path);
  }
  return ids;
}

// Time `fn` `reps` times; returns the per-call durations in microseconds.
template <typename Fn>
std::vector<double> TimeCalls(size_t reps, Fn&& fn) {
  std::vector<double> us;
  us.reserve(reps);
  for (size_t i = 0; i < reps; ++i) {
    const uint64_t t = NowNs();
    fn();
    us.push_back((NowNs() - t) * 1e-3);
  }
  return us;
}

int CmdTrace(const Flags& flags) {
  const std::string capture = flags.One("capture");
  const hk::PcapKeyPolicy policy = PolicyOf(flags.One("key"));
  const std::string dir = flags.One("dir");
  const double seconds = std::strtod(flags.One("seconds").c_str(), nullptr);
  std::vector<Instance> instances;
  for (const std::string& arg : flags.All("instance")) {
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      Die("--instance wants NAME=SPEC");
    }
    instances.push_back(Instance{arg.substr(0, eq), arg.substr(eq + 1)});
  }
  if (instances.empty()) {
    Die("need at least one --instance");
  }
  const Instance& main_inst = instances.front();
  const std::vector<FlowId> points = ReadPoints(flags.One("points"));
  Tracer tracer;
  std::map<std::string, double> m;

  // 1. Ingest replay of every instance, traced and untraced in turn, until
  // half the budget is spent (at least two rounds). Medians per layer.
  std::map<std::string, std::vector<double>> open_ms, next_ns, apply_ns, flush_ms, coverage;
  std::vector<double> traced_wall, untraced_wall;
  std::map<std::string, std::unique_ptr<hk::TopKAlgorithm>> replayed;
  uint64_t malformed = 0;
  const uint64_t budget_start = NowNs();
  for (size_t round = 0;
       round < 2 || (NowNs() - budget_start) * 1e-9 < seconds * 0.5; ++round) {
    for (const Instance& inst : instances) {
      // Alternate which variant runs first so drift hits both equally.
      Replay plain;
      Replay traced;
      if (round % 2 == 0) {
        plain = RunReplay<false>(capture, policy, inst, nullptr);
        traced = RunReplay<true>(capture, policy, inst, &tracer);
      } else {
        traced = RunReplay<true>(capture, policy, inst, &tracer);
        plain = RunReplay<false>(capture, policy, inst, nullptr);
      }
      const double n = static_cast<double>(traced.packets);
      open_ms[inst.name].push_back(traced.open_ns * 1e-6);
      next_ns[inst.name].push_back(traced.parse_ns / n);
      apply_ns[inst.name].push_back(traced.apply_ns / n);
      flush_ms[inst.name].push_back(traced.flush_ns * 1e-6);
      coverage[inst.name].push_back(
          static_cast<double>(traced.open_ns + traced.parse_ns + traced.apply_ns +
                              traced.flush_ns) /
          static_cast<double>(traced.wall_ns));
      if (&inst == &main_inst) {
        traced_wall.push_back(static_cast<double>(traced.wall_ns));
        untraced_wall.push_back(static_cast<double>(plain.wall_ns));
      }
      malformed += traced.malformed;
      replayed[inst.name] = std::move(traced.algo);
    }
  }

  hk::TopKAlgorithm* main_algo = replayed[main_inst.name].get();
  auto* main_sharded = dynamic_cast<hk::ShardedTopK*>(main_algo);
  hk::WindowedTopK* window_algo = nullptr;
  std::string window_name;
  for (const Instance& inst : instances) {
    if (auto* w = dynamic_cast<hk::WindowedTopK*>(replayed[inst.name].get())) {
      window_algo = w;
      window_name = inst.name;
    }
  }

  m["ingest.open_ms"] = Median(open_ms[main_inst.name]);
  m["ingest.next_ns_per_pkt"] = Median(next_ns[main_inst.name]);
  double min_coverage = 1.0;
  for (const auto& [name, values] : coverage) {
    min_coverage = std::min(min_coverage, Median(values));
  }
  m["bench.span_coverage"] = min_coverage;
  m["bench.trace_overhead_ratio"] = Median(traced_wall) / Median(untraced_wall);

  // 2. Sketch layers on twins fed the parsed id stream.
  const std::vector<FlowId> ids = ReadIds(capture, policy);
  const double n = static_cast<double>(ids.size());
  const hk::HeavyKeeper* sketch = SketchOf(main_algo);
  if (sketch != nullptr) {
    std::vector<hk::HeavyKeeper::Prepared> prepared(kIngestBatch);
    std::vector<double> per_pkt;
    for (int rep = 0; rep < 3; ++rep) {
      const uint32_t span = tracer.Open("simd.prepare_batch", 0, main_inst.name);
      for (size_t base = 0; base < ids.size(); base += kIngestBatch) {
        const size_t count = std::min(kIngestBatch, ids.size() - base);
        sketch->PrepareBatch(ids.data() + base, count, prepared.data());
      }
      per_pkt.push_back(tracer.Close(span) / n);
    }
    m["simd.prepare_ns_per_pkt"] = Median(per_pkt);
  }
  if (main_sharded != nullptr) {
    // Twin inners, each fed its own shard's substream in worker-sized
    // bursts, exactly what the shard workers apply.
    m["shard.producer_ns_per_pkt"] = Median(apply_ns[main_inst.name]);
    m["shard.flush_ms"] = Median(flush_ms[main_inst.name]);
    std::vector<double> per_pkt;
    for (int rep = 0; rep < 2; ++rep) {
      auto twin = hk::MakeSketch(main_inst.spec, hk::SketchDefaults{});
      auto* twin_sharded = dynamic_cast<hk::ShardedTopK*>(twin.get());
      std::vector<std::vector<FlowId>> runs(twin_sharded->num_shards());
      for (const FlowId id : ids) {
        runs[twin_sharded->ShardOf(id)].push_back(id);
      }
      uint64_t total = 0;
      for (size_t s = 0; s < runs.size(); ++s) {
        hk::TopKAlgorithm& inner = twin_sharded->shard(s);
        const uint32_t span = tracer.Open("core.insert_batch", 0, main_inst.name);
        for (size_t base = 0; base < runs[s].size(); base += kShardBurst) {
          const size_t count = std::min(kShardBurst, runs[s].size() - base);
          inner.InsertBatch(std::span<const FlowId>(runs[s].data() + base, count));
        }
        total += tracer.Close(span);
      }
      per_pkt.push_back(total / n);
    }
    m["core.insert_batch_ns_per_pkt"] = Median(per_pkt);
    m["shard.snapshot_us"] = Median(TimeCalls(50, [&] {
      const uint32_t span = tracer.Open("shard.snapshot", 0, main_inst.name);
      main_sharded->Snapshot(hk::QueryOptions{100, hk::ConsistencyLevel::kExact});
      tracer.Close(span);
    }));
  } else {
    m["core.insert_batch_ns_per_pkt"] = Median(apply_ns[main_inst.name]);
    m["shard.producer_ns_per_pkt"] = 0;
    m["shard.flush_ms"] = 0;
    m["shard.snapshot_us"] = 0;
  }

  // Batched point queries against the core sketch(es) holding the state.
  {
    std::vector<uint64_t> out(points.size());
    const size_t reps = std::max<size_t>(1, 200000 / points.size());
    const uint32_t span = tracer.Open("core.estimate_size_batch", 0, main_inst.name);
    const uint64_t t = NowNs();
    for (size_t rep = 0; rep < reps; ++rep) {
      if (main_sharded != nullptr) {
        for (size_t i = 0; i < points.size(); ++i) {
          const FlowId id = points[i];
          main_sharded->shard(main_sharded->ShardOf(id))
              .EstimateSizeBatch(std::span<const FlowId>(&id, 1),
                                 std::span<uint64_t>(&out[i], 1));
        }
      } else {
        main_algo->EstimateSizeBatch(std::span<const FlowId>(points), std::span<uint64_t>(out));
      }
    }
    const uint64_t elapsed = NowNs() - t;
    tracer.Close(span);
    m["core.query_batch_ns_per_id"] = elapsed / static_cast<double>(reps * points.size());
  }

  if (window_algo != nullptr) {
    m["window.insert_batch_ns_per_pkt"] = Median(apply_ns[window_name]);
    m["window.snapshot_us"] = Median(TimeCalls(50, [&] {
      const uint32_t span = tracer.Open("window.snapshot", 0, window_name);
      window_algo->Snapshot(hk::QueryOptions{100, hk::ConsistencyLevel::kExact});
      tracer.Close(span);
    }));
    m["window.rotations"] = static_cast<double>(window_algo->completed_epochs());
  } else {
    m["window.insert_batch_ns_per_pkt"] = 0;
    m["window.snapshot_us"] = 0;
    m["window.rotations"] = 0;
  }

  // 3. Serve layer: an in-process ServeCore fed the same protocol lines.
  hk::ServeOptions serve_options;
  serve_options.checkpoint_path = dir + "/trace.ckpt";
  std::string topk_response;
  {
    hk::ServeCore core(serve_options);
    for (const Instance& inst : instances) {
      const std::string response = core.Execute("CREATE " + inst.name + " " + inst.spec);
      if (response.rfind("OK", 0) != 0) {
        Die("CREATE " + inst.name + ": " + response);
      }
    }
    const uint32_t attach_span = tracer.Open("serve.attach", 0, "serve");
    for (const Instance& inst : instances) {
      hk::SourceBinding binding;
      binding.source = capture;
      binding.policy = policy;
      std::string err;
      if (!core.Attach(inst.name, binding, &err)) {
        Die("Attach " + inst.name + ": " + err);
      }
    }
    m["serve.attach_ms"] = tracer.Close(attach_span) * 1e-6;

    // TOPK while the ingest threads run, paced so ingest keeps moving.
    const std::string topk_line = "TOPK " + main_inst.name + " 100";
    std::vector<double> under_ingest;
    const auto drained = [&] {
      for (const Instance& inst : instances) {
        if (core.PacketsApplied(inst.name) < ids.size()) {
          return false;
        }
      }
      return true;
    };
    while (!drained()) {
      const uint32_t span = tracer.Open("serve.execute.topk", 0, "under_ingest");
      core.Execute(topk_line);
      under_ingest.push_back(tracer.Close(span) * 1e-3);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    core.DrainIngest();
    m["serve.execute_under_ingest_p99_us.topk"] = Percentile(under_ingest, 0.99);

    // Idle verbs.
    m["serve.execute_us.topk"] = Median(TimeCalls(1000, [&] {
      const uint32_t span = tracer.Open("serve.execute.topk", 0, "idle");
      topk_response = core.Execute(topk_line);
      tracer.Close(span);
    }));
    size_t next_point = 0;
    m["serve.execute_us.point"] = Median(TimeCalls(2000, [&] {
      const std::string line =
          "POINT " + main_inst.name + " " + Hex(points[next_point++ % points.size()]);
      const uint32_t span = tracer.Open("serve.execute.point", 0, "idle");
      core.Execute(line);
      tracer.Close(span);
    }));
    if (window_algo != nullptr) {
      const std::string window_line = "TOPK " + window_name + " 100 window";
      m["serve.execute_us.window"] = Median(TimeCalls(300, [&] {
        const uint32_t span = tracer.Open("serve.execute.window", 0, "idle");
        core.Execute(window_line);
        tracer.Close(span);
      }));
    } else {
      m["serve.execute_us.window"] = 0;
    }
    const std::string ckpt = core.Execute("CHECKPOINT");
    if (ckpt.rfind("OK", 0) != 0) {
      Die("CHECKPOINT: " + ckpt);
    }
  }

  // 4. Checkpoint phases on the replayed instances (same state the daemon
  // holds after draining): SaveState, EncodeCheckpoint (Crc32-bound), and
  // WriteCheckpointAtomic minus its encode (write + fsync + rename).
  {
    std::vector<double> save_ms, encode_ms, write_ms;
    size_t bytes = 0;
    for (int rep = 0; rep < 5; ++rep) {
      hk::CheckpointManifest manifest;
      const uint32_t save_span = tracer.Open("checkpoint.save_state", 0, "checkpoint");
      for (const Instance& inst : instances) {
        hk::CheckpointInstance entry;
        entry.name = inst.name;
        entry.spec = inst.spec;
        entry.source = capture;
        entry.source_key_policy = static_cast<uint8_t>(policy);
        hk::TopKAlgorithm* algo = replayed[inst.name].get();
        algo->Flush();
        if (!algo->SaveState(&entry.state)) {
          Die("SaveState refused by " + algo->name());
        }
        entry.packets_applied = ids.size();
        manifest.instances.push_back(std::move(entry));
      }
      save_ms.push_back(tracer.Close(save_span) * 1e-6);
      const uint32_t encode_span = tracer.Open("checkpoint.encode", 0, "checkpoint");
      bytes = hk::EncodeCheckpoint(manifest).size();
      const double encode = tracer.Close(encode_span) * 1e-6;
      encode_ms.push_back(encode);
      const uint32_t write_span = tracer.Open("checkpoint.write_atomic", 0, "checkpoint");
      std::string err;
      if (!hk::WriteCheckpointAtomic(dir + "/ladder.ckpt", manifest, &err)) {
        Die("WriteCheckpointAtomic: " + err);
      }
      write_ms.push_back(std::max(0.0, tracer.Close(write_span) * 1e-6 - encode));
    }
    m["serve.checkpoint.save_state_ms"] = Median(save_ms);
    m["serve.checkpoint.encode_ms"] = Median(encode_ms);
    m["serve.checkpoint.write_ms"] = Median(write_ms);
    m["serve.checkpoint.bytes"] = static_cast<double>(bytes);
  }

  const std::string spans_out = flags.Get("spans-out", "");
  if (!spans_out.empty() && !tracer.Write(spans_out)) {
    Die("cannot write " + spans_out);
  }

  std::printf("{\"packets\": %zu, \"malformed\": %llu, \"simd_kernel\": %s, \"topk_response\": %s, "
              "\"metrics\": {",
              ids.size(), static_cast<unsigned long long>(malformed),
              JsonString(main_algo->ActiveSimdKernel()).c_str(),
              JsonString(topk_response).c_str());
  bool first = true;
  for (const auto& [name, value] : m) {
    std::printf("%s%s: %s", first ? "" : ", ", JsonString(name).c_str(),
                JsonNumber(value).c_str());
    first = false;
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Die("usage: hkbench prepare|trace --flag value ...");
  }
  const std::string cmd = argv[1];
  const Flags flags(argc, argv, 2);
  try {
    if (cmd == "prepare") {
      return CmdPrepare(flags);
    }
    if (cmd == "trace") {
      return CmdTrace(flags);
    }
  } catch (const std::exception& e) {
    Die(cmd + ": " + e.what());
  }
  Die("unknown subcommand '" + cmd + "'");
}
