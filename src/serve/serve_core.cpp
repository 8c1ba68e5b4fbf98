#include "serve/serve_core.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <stdexcept>
#include <utility>

#include "ingest/burst_loop.h"
#include "ingest/byte_source.h"
#include "serve/net.h"
#include "window/windowed_topk.h"

namespace hk {
namespace {

// Splits on the characters istream's >> skips in the C locale.
std::vector<std::string> Tokenize(const std::string& line) {
  constexpr const char* kSpace = " \t\n\v\f\r";
  std::vector<std::string> tokens;
  size_t start = line.find_first_not_of(kSpace);
  while (start != std::string::npos) {
    const size_t end = line.find_first_of(kSpace, start);
    tokens.emplace_back(line, start, end - start);  // to the end when end is npos
    start = line.find_first_not_of(kSpace, end);
  }
  return tokens;
}

bool ParseUint(const std::string& text, uint64_t* out, int base = 10) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, base);
  if (errno != 0 || end == nullptr || *end != '\0') {
    return false;
  }
  *out = value;
  return true;
}

// Appends the decimal digits of `value`, without a temporary string.
void AppendUint(std::string& out, uint64_t value) {
  char buf[20];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

// "FLOW " + 16 hex digits + ' ' + 20 decimal digits + '\n'.
constexpr size_t kMaxFlowLineBytes = 43;

// Open the reader for a binding: "-" and "tcp://..." always stream,
// "stream:<path>" forces the bounded-buffer incremental mode, a bare path
// slurps (which also makes the recovery offset skip an in-memory walk).
bool OpenSource(PcapReader& reader, const SourceBinding& binding, std::string* err) {
  const std::string& src = binding.source;
  if (src == "-") {
    if (!reader.OpenStream(MakeFileByteSource("-"))) {
      *err = reader.error();
      return false;
    }
    return true;
  }
  std::string host;
  uint16_t port = 0;
  if (ParseTcpEndpoint(src, &host, &port)) {
    const int fd = ConnectTcp(host, port, err);
    if (fd < 0) {
      return false;
    }
    if (!reader.OpenStream(MakeFdByteSource(fd, /*own_fd=*/true))) {
      *err = reader.error();
      return false;
    }
    return true;
  }
  constexpr const char kStream[] = "stream:";
  if (src.rfind(kStream, 0) == 0) {
    if (!reader.OpenStream(MakeFileByteSource(src.substr(sizeof(kStream) - 1)))) {
      *err = reader.error();
      return false;
    }
    return true;
  }
  if (!reader.Open(src)) {
    *err = reader.error();
    return false;
  }
  return true;
}

// A binding whose source can be replayed from the start after a restart
// (recovery skips the applied prefix - zero loss). Pipes and sockets
// cannot rewind; their loss bound is the checkpoint interval.
bool ReplayableSource(const std::string& source) {
  return source != "-" && source.rfind("tcp://", 0) != 0;
}

// The ingest thread's wall time, cut at stage boundaries: Charge() adds
// the time since the previous boundary to one stage's *_us_total counter,
// so the stages tile the thread's time. Each stage carries its
// sub-microsecond remainder instead of truncating it at every burst.
class StageClock {
 public:
  struct Stage {
    telemetry::Counter* total_us;
    uint64_t carry_ns = 0;
  };

  void Charge(Stage* stage) {
    const auto now = std::chrono::steady_clock::now();
    const std::chrono::nanoseconds elapsed = now - last_;
    last_ = now;
    stage->carry_ns += static_cast<uint64_t>(elapsed.count());
    stage->total_us->Add(stage->carry_ns / 1000);
    stage->carry_ns %= 1000;
  }

 private:
  std::chrono::steady_clock::time_point last_ = std::chrono::steady_clock::now();
};

// MakeSketch with every way a spec can fail turned into *err: a malformed
// or out-of-range spec, and a size whose byte count overflows or whose
// memory cannot be had. The daemon answers ERR to each and keeps running.
std::unique_ptr<TopKAlgorithm> BuildSketch(const std::string& spec, const SketchDefaults& defaults,
                                           std::string* err) {
  try {
    return MakeSketch(spec, defaults);
  } catch (const std::invalid_argument& e) {
    *err = e.what();
  } catch (const std::length_error& e) {
    *err = std::string("sketch too large: ") + e.what();
  } catch (const std::bad_alloc&) {
    *err = "sketch too large: out of memory";
  }
  return nullptr;
}

}  // namespace

bool ParseAttachArgs(const std::vector<std::string>& args, size_t first, SourceBinding* out,
                     std::string* err) {
  for (size_t i = first; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "bytes") {
      out->byte_weighted = true;
      continue;
    }
    if (arg.rfind("key=", 0) == 0) {
      if (!ParsePcapKeyPolicy(arg.substr(4), &out->policy)) {
        *err = "key= must be 5tuple, pair or src (got '" + arg.substr(4) + "')";
        return false;
      }
      continue;
    }
    *err = "unknown ATTACH argument '" + arg + "' (expected key=... or bytes)";
    return false;
  }
  return true;
}

ServeCore::ServeCore(ServeOptions options) : options_(std::move(options)) {
  telemetry::Registry& registry = telemetry::Registry::Get();
  tm_commands_ = registry.GetCounter("hk_serve_commands_total", "Protocol lines executed");
  tm_errors_ = registry.GetCounter("hk_serve_errors_total", "Protocol lines answered with ERR");
  tm_exact_queries_ = registry.GetCounter("hk_serve_exact_queries_total",
                                          "TOPK/POINT queries served at exact consistency");
  tm_relaxed_queries_ = registry.GetCounter(
      "hk_serve_relaxed_queries_total",
      "TOPK queries served from the live structures without the ingest lock");
  tm_checkpoints_ =
      registry.GetCounter("hk_serve_checkpoints_total", "Checkpoint manifests committed");
  tm_checkpoint_failures_ = registry.GetCounter("hk_serve_checkpoint_failures_total",
                                                "Checkpoint attempts that failed");
  tm_instances_recovered_ = registry.GetCounter(
      "hk_serve_instances_recovered_total", "Instances rebuilt from a checkpoint at startup");
  // Eager per-verb registration: the full catalog shows up in METRICS
  // before any request has been served.
  for (const char* verb : {"CREATE", "DROP", "ATTACH", "LIST", "TOPK", "POINT", "STATS",
                           "METRICS", "CHECKPOINT", "PING"}) {
    const std::string labels = std::string("verb=\"") + verb + "\"";
    verb_metrics_[verb] = VerbMetrics{
        registry.GetCounter("hk_serve_requests_total", "Protocol requests by verb", labels),
        registry.GetHistogram("hk_serve_request_us",
                              "Request handling latency by verb (microseconds)", labels)};
  }
}

std::string ServeCore::Err(const std::string& what) {
  tm_errors_->Add();
  return "ERR " + what + "\n";
}

ServeCore::~ServeCore() {
  std::lock_guard<std::mutex> lock(map_mu_);
  for (auto& [name, inst] : instances_) {
    inst->stop_ingest.store(true, std::memory_order_release);
    if (inst->ingest.joinable()) {
      inst->ingest.join();
    }
  }
}

ServeCore::Instance* ServeCore::FindLocked(const std::string& name) {
  const auto it = instances_.find(name);
  return it == instances_.end() ? nullptr : it->second.get();
}

ServeCore::Instance* ServeCore::Resolve(const std::string& name, std::string* err) {
  if (!name.empty()) {
    Instance* inst = FindLocked(name);
    if (inst == nullptr) {
      *err = "no instance named '" + name + "'";
    }
    return inst;
  }
  if (instances_.size() == 1) {
    return instances_.begin()->second.get();
  }
  *err = instances_.empty() ? "no instances (CREATE one first)"
                            : "multiple instances: name one explicitly";
  return nullptr;
}

bool ServeCore::Create(const std::string& name, const std::string& spec, std::string* err) {
  if (name.empty() || name.find('/') != std::string::npos) {
    *err = "instance names must be non-empty and slash-free";
    return false;
  }
  std::unique_ptr<TopKAlgorithm> algo = BuildSketch(spec, options_.defaults, err);
  if (algo == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lock(map_mu_);
  if (FindLocked(name) != nullptr) {
    *err = "instance '" + name + "' already exists";
    return false;
  }
  auto inst = std::make_unique<Instance>();
  inst->name = name;
  inst->spec = spec;
  inst->defaults = options_.defaults;
  inst->algo = std::move(algo);
  instances_.emplace(name, std::move(inst));
  return true;
}

bool ServeCore::Drop(const std::string& name, std::string* err) {
  std::unique_ptr<Instance> victim;
  {
    // A checkpoint in flight saves instances outside map_mu_; holding
    // checkpoint_mu_ keeps this one alive until that checkpoint is done.
    std::lock_guard<std::mutex> ckpt_lock(checkpoint_mu_);
    std::lock_guard<std::mutex> lock(map_mu_);
    const auto it = instances_.find(name);
    if (it == instances_.end()) {
      *err = "no instance named '" + name + "'";
      return false;
    }
    victim = std::move(it->second);
    instances_.erase(it);
  }
  // Join outside map_mu_ so a blocked ingest read cannot stall the map.
  victim->stop_ingest.store(true, std::memory_order_release);
  if (victim->ingest.joinable()) {
    victim->ingest.join();
  }
  return true;
}

bool ServeCore::Attach(const std::string& name, const SourceBinding& binding,
                       std::string* err) {
  const auto attachable = [&]() -> Instance* {
    Instance* inst = FindLocked(name);
    if (inst == nullptr) {
      *err = "no instance named '" + name + "'";
    } else if (inst->attached) {
      *err = "instance '" + name + "' already has a source";
      return nullptr;
    }
    return inst;
  };
  {
    // Refuse an unknown name or a second source before reading anything.
    std::lock_guard<std::mutex> lock(map_mu_);
    if (attachable() == nullptr) {
      return false;
    }
  }
  // Open a replayable source here, with the map unlocked: a slurp takes as
  // long as the file is big, a FIFO's open waits for its writer, and every
  // verb on every instance needs map_mu_. This read is the only one; the
  // ingest thread applies from this reader.
  std::unique_ptr<PcapReader> reader;
  if (ReplayableSource(binding.source)) {
    reader = std::make_unique<PcapReader>(binding.policy);
    if (!OpenSource(*reader, binding, err)) {
      return false;
    }
  }
  std::lock_guard<std::mutex> lock(map_mu_);
  // The instance may have been dropped, or given a source, during the read.
  Instance* inst = attachable();
  if (inst == nullptr) {
    return false;
  }
  {
    // Under mu as well as map_mu_: WriteCheckpoint reads the binding under
    // mu alone, in the same cut as the state and the applied offset.
    std::lock_guard<std::mutex> inst_lock(inst->mu);
    inst->binding = binding;
    inst->attached = true;
  }
  // Register the instance's ingest series here (not in the thread) so the
  // metric names are visible to METRICS the moment ATTACH returns.
  {
    telemetry::Registry& registry = telemetry::Registry::Get();
    const std::string labels = "instance=\"" + inst->name + "\"";
    inst->tm_packets = registry.GetCounter(
        "hk_ingest_packets_total", "Capture records applied to an instance's sketch", labels);
    inst->tm_bytes = registry.GetCounter(
        "hk_ingest_bytes_total", "Wire bytes represented by the applied records", labels);
    inst->tm_malformed = registry.GetCounter(
        "hk_ingest_malformed_frames_total",
        "Frames the capture parser skipped (non-IP, truncated, zero-length)", labels);
    inst->tm_source_wait_us = registry.GetCounter(
        "hk_ingest_source_wait_us_total",
        "Microseconds the ingest thread waited for its next parsed burst", labels);
    inst->tm_parse_us = registry.GetCounter(
        "hk_ingest_parse_us_total",
        "Microseconds spent reading and parsing the source (NextBatch), on either thread", labels);
    inst->tm_lock_wait_us = registry.GetCounter(
        "hk_ingest_lock_wait_us_total",
        "Microseconds the ingest thread waited for its instance lock", labels);
    inst->tm_apply_us = registry.GetCounter(
        "hk_ingest_apply_us_total",
        "Microseconds the ingest thread spent applying bursts to its sketch", labels);
    inst->tm_burst_packets = registry.GetHistogram(
        "hk_ingest_burst_packets", "Records applied per ingest burst (one InsertBatch call)",
        labels);
  }
  // A failed re-attach at recovery may have left an error behind. No reader
  // can be looking at it: they hold map_mu_, and so does this.
  inst->ingest_error.clear();
  inst->ingest_done.store(false, std::memory_order_release);
  inst->ingest = std::thread(&ServeCore::IngestLoop, this, inst, std::move(reader));
  return true;
}

void ServeCore::IngestLoop(Instance* inst, std::unique_ptr<PcapReader> reader) {
  // The three stages run in turn on this thread and every boundary is
  // charged once, so source wait + lock wait + apply is its wall time.
  StageClock clock;
  StageClock::Stage source{inst->tm_source_wait_us};
  StageClock::Stage lock_wait{inst->tm_lock_wait_us};
  StageClock::Stage apply{inst->tm_apply_us};
  const auto finish = [&](std::string error) {
    clock.Charge(&source);
    inst->ingest_error = std::move(error);
    inst->ingest_done.store(true, std::memory_order_release);
  };
  const SourceBinding& binding = inst->binding;
  if (reader == nullptr) {
    reader = std::make_unique<PcapReader>(binding.policy);
    std::string err;
    if (!OpenSource(*reader, binding, &err)) {
      finish(err);
      return;
    }
  }
  const bool weighted = binding.byte_weighted;
  BurstLoopOptions loop;
  loop.batch = std::max<size_t>(options_.ingest_batch, 1);
  std::vector<FlowId> ids(loop.batch);
  std::vector<uint64_t> weights(weighted ? loop.batch : 0);
  // Recovery: the checkpointed prefix is already in the sketch.
  loop.skip = binding.skip_packets;
  loop.stop = &inst->stop_ingest;
  loop.parse_us = inst->tm_parse_us;
  RunBurstLoop(*reader, *inst->algo, loop, [&](const ParsedBurst& burst) {
    // Source wait: waiting for this burst (parsing it, when the loop parses
    // inline), the number that tells an operator the source, not the
    // sketch, is the bottleneck.
    clock.Charge(&source);
    const size_t n = burst.records.size();
    uint64_t burst_bytes = 0;
    for (size_t i = 0; i < n; ++i) {
      ids[i] = burst.records[i].id;
      if (weighted) {
        weights[i] = burst.records[i].wire_len;
      }
      burst_bytes += burst.records[i].wire_len;
    }
    clock.Charge(&apply);
    {
      // The applied-offset pair (sketch state, packets_applied) moves
      // under the instance lock, which is what lets a checkpoint taken
      // between bursts record a consistent cut of the stream.
      std::lock_guard<std::mutex> lock(inst->mu);
      clock.Charge(&lock_wait);
      const std::span<const FlowId> ids_in(ids.data(), n);
      if (weighted) {
        inst->algo->InsertBatch(ids_in, std::span<const uint64_t>(weights.data(), n));
      } else {
        inst->algo->InsertBatch(ids_in);
      }
      inst->packets_applied += n;
      inst->wire_bytes_applied += burst_bytes;
    }
    inst->tm_burst_packets->Observe(n);
    inst->tm_packets->Add(n);
    inst->tm_bytes->Add(burst_bytes);
    inst->tm_malformed->Add(burst.malformed);
    clock.Charge(&apply);
  });
  finish(reader->error());
}

void ServeCore::DrainIngest() {
  std::vector<Instance*> attached;
  {
    std::lock_guard<std::mutex> lock(map_mu_);
    for (auto& [name, inst] : instances_) {
      if (inst->attached) {
        attached.push_back(inst.get());
      }
    }
  }
  for (Instance* inst : attached) {
    while (!inst->ingest_done.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

bool ServeCore::WriteCheckpoint(std::string* err) {
  if (options_.checkpoint_path.empty()) {
    *err = "checkpointing disabled (no --checkpoint path)";
    return false;
  }
  // checkpoint_mu_ keeps Drop from freeing an instance while it is being
  // saved, so map_mu_ is held only to list the instances: no verb waits on
  // a SaveState except those on the instance being saved.
  std::lock_guard<std::mutex> ckpt_lock(checkpoint_mu_);
  std::vector<Instance*> instances;
  {
    std::lock_guard<std::mutex> lock(map_mu_);
    instances.reserve(instances_.size());
    for (auto& [name, inst] : instances_) {
      instances.push_back(inst.get());
    }
  }
  CheckpointManifest manifest;
  manifest.instances.reserve(instances.size());
  // Each instance's state buffer is reused from its last checkpoint: a
  // fresh one would fault in every page of a large state again. The
  // buffers go back on every way out, a failed save or write included.
  const auto give_back = [&] {
    for (size_t i = 0; i < manifest.instances.size(); ++i) {
      instances[i]->checkpoint_state = std::move(manifest.instances[i].state);
    }
  };
  for (Instance* inst : instances) {
    CheckpointInstance entry;
    entry.name = inst->name;
    entry.spec = inst->spec;
    entry.memory_bytes = inst->defaults.memory_bytes;
    entry.k = inst->defaults.k;
    entry.key_kind = static_cast<uint8_t>(inst->defaults.key_kind);
    entry.seed = inst->defaults.seed;
    entry.state = std::move(inst->checkpoint_state);
    entry.state.clear();
    bool saved = false;
    {
      // One cut: the state, the applied offset and the source binding all
      // change only under mu.
      std::lock_guard<std::mutex> inst_lock(inst->mu);
      inst->algo->Flush();
      entry.state.reserve(StateReserveBytes(inst->algo->MemoryBytes()));
      saved = inst->algo->SaveState(&entry.state);
      if (!saved) {
        *err = "instance '" + inst->name + "' (" + inst->algo->name() +
               ") does not support checkpointing";
      }
      entry.packets_applied = inst->packets_applied;
      if (inst->attached) {
        entry.source = inst->binding.source;
        entry.source_key_policy = static_cast<uint8_t>(inst->binding.policy);
        entry.byte_weighted = inst->binding.byte_weighted ? 1 : 0;
      }
    }
    manifest.instances.push_back(std::move(entry));
    if (!saved) {
      give_back();
      tm_checkpoint_failures_->Add();
      return false;
    }
  }
  const bool written = WriteCheckpointAtomic(options_.checkpoint_path, manifest, err);
  give_back();
  if (!written) {
    tm_checkpoint_failures_->Add();
    return false;
  }
  tm_checkpoints_->Add();
  return true;
}

bool ServeCore::Recover(size_t* recovered, std::string* err) {
  if (recovered != nullptr) {
    *recovered = 0;
  }
  if (options_.checkpoint_path.empty()) {
    return true;
  }
  // A crash mid-write leaves a stale temp next to the (intact) previous
  // checkpoint; clear it so nothing ever reads it.
  RemoveStaleCheckpointTemp(options_.checkpoint_path);
  // Each LoadState reads its state where the file was read into.
  LoadedCheckpoint checkpoint;
  std::string load_err;
  if (!LoadCheckpoint(options_.checkpoint_path, &checkpoint, &load_err)) {
    if (load_err.rfind("open ", 0) == 0) {
      return true;  // no checkpoint yet: fresh start
    }
    *err = load_err;
    return false;
  }
  for (size_t i = 0; i < checkpoint.manifest.instances.size(); ++i) {
    const CheckpointInstance& entry = checkpoint.manifest.instances[i];
    const std::span<const uint8_t> state = checkpoint.states[i];
    SketchDefaults defaults;
    defaults.memory_bytes = static_cast<size_t>(entry.memory_bytes);
    defaults.k = static_cast<size_t>(entry.k);
    defaults.key_kind = static_cast<KeyKind>(entry.key_kind);
    defaults.seed = entry.seed;
    std::string build_err;
    std::unique_ptr<TopKAlgorithm> algo = BuildSketch(entry.spec, defaults, &build_err);
    if (algo == nullptr) {
      *err = "instance '" + entry.name + "': " + build_err;
      return false;
    }
    if (!algo->LoadState(state.data(), state.size())) {
      *err = "instance '" + entry.name + "': checkpoint state rejected by " + algo->name();
      return false;
    }
    auto inst = std::make_unique<Instance>();
    inst->name = entry.name;
    inst->spec = entry.spec;
    inst->defaults = defaults;
    inst->algo = std::move(algo);
    inst->packets_applied = entry.packets_applied;
    Instance* raw = inst.get();
    {
      std::lock_guard<std::mutex> lock(map_mu_);
      if (FindLocked(entry.name) != nullptr) {
        *err = "instance '" + entry.name + "' already exists (recover before CREATE)";
        return false;
      }
      instances_.emplace(entry.name, std::move(inst));
    }
    if (!entry.source.empty()) {
      SourceBinding binding;
      binding.source = entry.source;
      binding.policy = static_cast<PcapKeyPolicy>(entry.source_key_policy);
      binding.byte_weighted = entry.byte_weighted != 0;
      binding.skip_packets = ReplayableSource(entry.source) ? entry.packets_applied : 0;
      std::string attach_err;
      if (!Attach(entry.name, binding, &attach_err)) {
        // The sketch state recovered; a vanished source should not brick
        // the daemon. Surface it through the instance's ingest_error, which
        // STATS and LIST read once ingest_done is set.
        raw->ingest_error = attach_err;
        raw->ingest_done.store(true, std::memory_order_release);
      }
    }
    tm_instances_recovered_->Add();
    if (recovered != nullptr) {
      ++*recovered;
    }
  }
  return true;
}

std::vector<std::string> ServeCore::InstanceNames() const {
  std::lock_guard<std::mutex> lock(map_mu_);
  std::vector<std::string> names;
  names.reserve(instances_.size());
  for (const auto& [name, inst] : instances_) {
    names.push_back(name);
  }
  return names;
}

uint64_t ServeCore::PacketsApplied(const std::string& name) const {
  std::lock_guard<std::mutex> lock(map_mu_);
  const auto it = instances_.find(name);
  if (it == instances_.end()) {
    return 0;
  }
  std::lock_guard<std::mutex> inst_lock(it->second->mu);
  return it->second->packets_applied;
}

std::string ServeCore::CmdCreate(const std::vector<std::string>& args) {
  if (args.size() != 2) {
    return Err("usage: CREATE <name> <spec>");
  }
  std::string err;
  if (!Create(args[0], args[1], &err)) {
    return Err(err);
  }
  return "OK created " + args[0] + "\n";
}

std::string ServeCore::CmdDrop(const std::vector<std::string>& args) {
  if (args.size() != 1) {
    return Err("usage: DROP <name>");
  }
  std::string err;
  if (!Drop(args[0], &err)) {
    return Err(err);
  }
  return "OK dropped " + args[0] + "\n";
}

std::string ServeCore::CmdAttach(const std::vector<std::string>& args) {
  if (args.size() < 2) {
    return Err("usage: ATTACH <name> <source> [key=5tuple|pair|src] [bytes]");
  }
  SourceBinding binding;
  binding.source = args[1];
  std::string err;
  if (!ParseAttachArgs(args, 2, &binding, &err) || !Attach(args[0], binding, &err)) {
    return Err(err);
  }
  return "OK attached " + args[0] + "\n";
}

std::string ServeCore::CmdList() {
  std::lock_guard<std::mutex> lock(map_mu_);
  std::string out;
  for (const auto& [name, inst] : instances_) {
    uint64_t packets = 0;
    {
      std::lock_guard<std::mutex> inst_lock(inst->mu);
      packets = inst->packets_applied;
    }
    out += "INSTANCE " + name + " " + inst->spec + " packets=" + std::to_string(packets) +
           " source=" + (inst->attached ? inst->binding.source : "none");
    if (inst->ingest_done.load(std::memory_order_acquire) && !inst->ingest_error.empty()) {
      out += " ingest_error=1";
    }
    out += "\n";
  }
  out += "END\n";
  return out;
}

std::string ServeCore::CmdTopK(const std::vector<std::string>& args) {
  // Grammar: TOPK [<name>] <k> [relaxed|exact|window]. A leading numeric
  // token means the name was omitted (single-tenant convenience). "window"
  // asks for the sliding recent-traffic answer and is only valid against a
  // Window: instance - the caller is asserting window semantics, so a
  // silent since-boot fallback would be a wrong answer, not a convenience.
  std::string name;
  size_t pos = 0;
  uint64_t k = 0;
  if (pos < args.size() && !ParseUint(args[pos], &k)) {
    name = args[pos++];
  }
  if (pos >= args.size() || !ParseUint(args[pos], &k) || k == 0) {
    return Err("usage: TOPK [<name>] <k> [relaxed|exact|window]");
  }
  ++pos;
  bool relaxed = false;
  bool windowed = false;
  if (pos < args.size()) {
    if (args[pos] == "relaxed") {
      relaxed = true;
    } else if (args[pos] == "window") {
      windowed = true;
    } else if (args[pos] != "exact") {
      return Err("consistency must be 'relaxed', 'exact' or 'window'");
    }
    ++pos;
  }
  if (pos != args.size()) {
    return Err("usage: TOPK [<name>] <k> [relaxed|exact|window]");
  }
  QueryResult result;
  std::string window_suffix;
  {
    std::lock_guard<std::mutex> lock(map_mu_);
    std::string err;
    Instance* inst = Resolve(name, &err);
    if (inst == nullptr) {
      return Err(err);
    }
    const QueryOptions query{static_cast<size_t>(k), relaxed ? ConsistencyLevel::kRelaxed
                                                             : ConsistencyLevel::kExact};
    if (windowed) {
      auto* window = dynamic_cast<WindowedTopK*>(inst->algo.get());
      if (window == nullptr) {
        return Err("instance '" + inst->name + "' is not windowed (spec " +
                                  inst->spec + "); CREATE it with Window:...");
      }
      std::lock_guard<std::mutex> inst_lock(inst->mu);
      result = window->Snapshot(query);
      window_suffix = " window=" + std::to_string(window->window_epochs()) +
                      " epoch_packets=" + std::to_string(window->epoch_packets()) +
                      " completed_epochs=" + std::to_string(window->completed_epochs());
    } else if (relaxed && inst->algo->WorkerThreads() > 0) {
      // The whole point of kRelaxed: a threaded instance answers from any
      // thread without the ingest lock, so the query never waits for a
      // burst in flight or for the rings to drain.
      result = inst->algo->Snapshot(query);
    } else {
      std::lock_guard<std::mutex> inst_lock(inst->mu);
      result = inst->algo->Snapshot(query);
    }
  }
  (result.consistency == ConsistencyLevel::kRelaxed ? tm_relaxed_queries_ : tm_exact_queries_)
      ->Add();
  // The FLOW lines go straight into one buffer sized for the longest ids
  // and counts, then cut to what they took.
  std::string out(result.flows.size() * kMaxFlowLineBytes, '\0');
  char* at = out.data();
  for (const FlowCount& flow : result.flows) {
    std::memcpy(at, "FLOW ", 5);
    at = std::to_chars(at + 5, at + 21, flow.id, 16).ptr;
    *at++ = ' ';
    at = std::to_chars(at, at + 20, flow.count).ptr;
    *at++ = '\n';
  }
  out.resize(static_cast<size_t>(at - out.data()));
  out += result.consistency == ConsistencyLevel::kRelaxed ? "END consistency=relaxed"
                                                          : "END consistency=exact";
  out += " tracked=";
  AppendUint(out, result.stats.tracked_flows);
  out += " min=";
  AppendUint(out, result.stats.min_tracked);
  out += window_suffix;
  out += '\n';
  return out;
}

std::string ServeCore::CmdPoint(const std::vector<std::string>& args) {
  std::string name;
  size_t pos = 0;
  uint64_t id = 0;
  if (args.size() == 2) {
    name = args[pos++];
  }
  if (pos + 1 != args.size() || !ParseUint(args[pos], &id, 16)) {
    return Err("usage: POINT [<name>] <flow-id-hex>");
  }
  uint64_t estimate = 0;
  {
    std::lock_guard<std::mutex> lock(map_mu_);
    std::string err;
    Instance* inst = Resolve(name, &err);
    if (inst == nullptr) {
      return Err(err);
    }
    std::lock_guard<std::mutex> inst_lock(inst->mu);
    estimate = inst->algo->EstimateSize(id);
  }
  tm_exact_queries_->Add();
  std::string out = "OK ";
  AppendUint(out, estimate);
  out += '\n';
  return out;
}

std::string ServeCore::CmdStats(const std::vector<std::string>& args) {
  if (args.empty()) {
    // The STAT key set and order are wire format (tests and dashboards
    // parse them); the values now come from the registry, where the ingest
    // keys sum the per-instance hk_ingest_* series.
    telemetry::Registry& registry = telemetry::Registry::Get();
    const auto line = [](const char* key, uint64_t value) {
      return std::string("STAT ") + key + " " + std::to_string(value) + "\n";
    };
    std::string out;
    out += line("commands", tm_commands_->Value());
    out += line("errors", tm_errors_->Value());
    out += line("exact_queries", tm_exact_queries_->Value());
    out += line("relaxed_queries", tm_relaxed_queries_->Value());
    out += line("packets_ingested", registry.SumCounter("hk_ingest_packets_total"));
    out += line("wire_bytes_ingested", registry.SumCounter("hk_ingest_bytes_total"));
    out += line("checkpoints_written", tm_checkpoints_->Value());
    out += line("checkpoint_failures", tm_checkpoint_failures_->Value());
    out += line("instances_recovered", tm_instances_recovered_->Value());
    {
      std::lock_guard<std::mutex> lock(map_mu_);
      out += "STAT instances " + std::to_string(instances_.size()) + "\n";
    }
    out += "END\n";
    return out;
  }
  if (args.size() != 1) {
    return Err("usage: STATS [<name>]");
  }
  std::lock_guard<std::mutex> lock(map_mu_);
  std::string err;
  Instance* inst = Resolve(args[0], &err);
  if (inst == nullptr) {
    return Err(err);
  }
  uint64_t packets = 0;
  uint64_t wire_bytes = 0;
  size_t memory = 0;
  std::string algo_name;
  std::string simd_kernel;
  {
    std::lock_guard<std::mutex> inst_lock(inst->mu);
    packets = inst->packets_applied;
    wire_bytes = inst->wire_bytes_applied;
    memory = inst->algo->MemoryBytes();
    algo_name = inst->algo->name();
    simd_kernel = inst->algo->ActiveSimdKernel();
  }
  std::string out;
  out += "STAT spec " + inst->spec + "\n";
  out += "STAT algo " + algo_name + "\n";
  if (!simd_kernel.empty()) {
    out += "STAT simd " + simd_kernel + "\n";
  }
  out += "STAT packets_applied " + std::to_string(packets) + "\n";
  out += "STAT wire_bytes_applied " + std::to_string(wire_bytes) + "\n";
  out += "STAT memory_bytes " + std::to_string(memory) + "\n";
  out += "STAT source " + (inst->attached ? inst->binding.source : "none") + "\n";
  // The ingest thread writes ingest_error just before it sets ingest_done.
  const bool done = inst->ingest_done.load(std::memory_order_acquire);
  out += std::string("STAT ingest_done ") + (done ? "1" : "0") + "\n";
  if (done && !inst->ingest_error.empty()) {
    out += "STAT ingest_error " + inst->ingest_error + "\n";
  }
  out += "END\n";
  return out;
}

std::string ServeCore::CmdMetrics(const std::vector<std::string>& args) {
  if (args.size() > 1) {
    return Err("usage: METRICS [<filter>]");
  }
  // Metric lines always start with "hk_" or "#", so appending the protocol
  // END sentinel keeps multi-line framing unambiguous for thin clients.
  return telemetry::Registry::Get().RenderPrometheus(args.empty() ? "" : args[0]) + "END\n";
}

std::string ServeCore::CmdCheckpoint() {
  std::string err;
  if (!WriteCheckpoint(&err)) {
    return Err(err);
  }
  size_t count = 0;
  {
    std::lock_guard<std::mutex> lock(map_mu_);
    count = instances_.size();
  }
  return "OK checkpoint " + options_.checkpoint_path + " instances=" + std::to_string(count) +
         "\n";
}

std::string ServeCore::Execute(const std::string& line) {
  tm_commands_->Add();
  std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty()) {
    return Err("empty command");
  }
  const std::string verb = tokens[0];
  tokens.erase(tokens.begin());
  const auto it = verb_metrics_.find(verb);
  if (it == verb_metrics_.end()) {
    return Err("unknown command '" + verb + "'");
  }
  it->second.requests->Add();
  const telemetry::ScopedTimer timer(it->second.latency_us);
  return Dispatch(verb, tokens);
}

std::string ServeCore::Dispatch(const std::string& verb, const std::vector<std::string>& args) {
  if (verb == "CREATE") {
    return CmdCreate(args);
  }
  if (verb == "DROP") {
    return CmdDrop(args);
  }
  if (verb == "ATTACH") {
    return CmdAttach(args);
  }
  if (verb == "LIST") {
    return CmdList();
  }
  if (verb == "TOPK") {
    return CmdTopK(args);
  }
  if (verb == "POINT") {
    return CmdPoint(args);
  }
  if (verb == "STATS") {
    return CmdStats(args);
  }
  if (verb == "METRICS") {
    return CmdMetrics(args);
  }
  if (verb == "CHECKPOINT") {
    return CmdCheckpoint();
  }
  // PING is the only verb left in verb_metrics_; anything else never
  // reaches Dispatch (Execute rejects unknown verbs by map lookup).
  return "OK pong\n";
}

}  // namespace hk
