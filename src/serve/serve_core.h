// ServeCore: the hk_serve daemon's brain, transport-free.
//
// Hosts a name-keyed map of sketch instances (multi-tenancy: one daemon,
// many sketches, each its own registry spec and byte budget), feeds each
// from an optionally attached capture source on a dedicated ingest thread,
// answers the line protocol, and checkpoints/recovers the whole map
// atomically. The TCP listener (serve/line_server.h) and the binary
// (examples/hk_serve.cpp) are thin shells over Execute().
//
// Protocol (one request line in, a response of one or more lines out;
// multi-line responses end with "END"):
//
//   CREATE <name> <spec>          OK created <name>
//   DROP <name>                   OK dropped <name>
//   ATTACH <name> <source> [key=5tuple|pair|src] [bytes]
//                                 OK attached <name>  (starts the ingest thread)
//   LIST                          INSTANCE <name> <spec> packets=<n> source=<s> ... / END
//   TOPK [<name>] <k> [relaxed|exact|window]
//                                 FLOW <id-hex> <estimate> lines / END
//                                 ("window": sliding top-k over the last W
//                                 epochs; ERR unless the instance spec is
//                                 Window:...; END gains window=<W>
//                                 epoch_packets=<E> completed_epochs=<N>)
//   POINT [<name>] <id-hex>       OK <estimate>
//   STATS [<name>]                STAT <key> <value> lines / END
//   METRICS [<filter>]            Prometheus text exposition / END
//                                 (<filter> keeps series whose name starts
//                                 with it, or that carry a matching
//                                 instance="..." label; metric lines always
//                                 start with "hk_" or "#", so the END
//                                 sentinel stays unambiguous)
//   CHECKPOINT                    OK checkpoint <path> instances=<n>
//   PING                          OK pong
//   Anything else                 ERR <diagnostic>
//
// <name> may be omitted from TOPK/POINT/STATS when exactly one instance
// exists (the single-tenant convenience). <source> is a capture path (a
// file or a FIFO), "-" for stdin, or "tcp://host:port" for a socket
// streaming pcap bytes; "stream:<path>" is a synonym for <path>, kept for
// the checkpoints and scripts of earlier builds. Every source streams
// through a bounded window, so the daemon holds no copy of any capture.
// ATTACH opens a path and reads its capture header, without map_mu_ (no
// other verb waits for the read), and hands the open reader to the
// instance's ingest thread, which starts applying at once. "-" and tcp://
// sources are opened by the thread itself: their header read waits on the
// peer, and ATTACH does not.
//
// Concurrency: each attached instance ingests on its own thread, through
// RunBurstLoop (ingest/burst_loop.h). When the sketch applies on that
// thread (WorkerThreads() == 0) the loop also starts a parse thread that
// fills bursts a few ahead; the ingest thread applies them in capture
// order. A threaded Sharded instance already overlaps parse with its
// workers, so its ingest thread parses inline. DROP and ~ServeCore set the
// instance's stop flag and join the ingest thread, which joins its parse
// thread first; a parse thread blocked in a live read is joined when that
// read returns. Bursts parsed but not yet applied are not counted in
// packets_applied, so recovery reads them again.
//
// Every instance carries its own mutex serializing its ingest thread
// against queries and checkpoints. A TOPK ... relaxed on an
// instance with worker threads (threaded Sharded) bypasses the lock and
// takes Snapshot(kRelaxed), which reads each shard between two of its
// worker's bursts - the query answers while the ingest thread keeps
// inserting. For every other algorithm "relaxed" degrades to a (brief)
// lock + exact snapshot, and the response says which consistency was
// delivered.
//
// Crash recovery: WriteCheckpoint() lists the instances under map_mu_ and
// releases it, then locks each instance in turn and Flush()es it,
// SaveState()s it and reads its applied-packet offset and source binding
// under that one lock (a consistent cut), then commits the manifest with
// the atomic temp+fsync+rename protocol (serve/checkpoint.h). Only verbs
// on the instance being saved wait for its SaveState. Recover() rebuilds
// every instance from the manifest and re-attaches file sources with the
// offset skipped - a killed and restarted daemon loses nothing from a
// file-backed stream and at most one checkpoint interval from a pipe.
#ifndef HK_SERVE_SERVE_CORE_H_
#define HK_SERVE_SERVE_CORE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ingest/pcap_reader.h"
#include "serve/checkpoint.h"
#include "sketch/registry.h"
#include "sketch/topk_algorithm.h"
#include "telemetry/telemetry.h"

namespace hk {

struct ServeOptions {
  std::string checkpoint_path;  // "" = checkpointing disabled
  SketchDefaults defaults;      // context for CREATE specs
  size_t ingest_batch = 512;    // records per ingest InsertBatch burst
};

// A parsed ATTACH source binding.
struct SourceBinding {
  std::string source;  // path, "-", or "tcp://host:port"
  PcapKeyPolicy policy = PcapKeyPolicy::kFiveTuple;
  bool byte_weighted = false;
  uint64_t skip_packets = 0;  // recovery: records already applied
};

class ServeCore {
 public:
  explicit ServeCore(ServeOptions options);
  ~ServeCore();

  ServeCore(const ServeCore&) = delete;
  ServeCore& operator=(const ServeCore&) = delete;

  // Execute one protocol line; the returned text is the complete response
  // (every line newline-terminated). Thread-safe.
  std::string Execute(const std::string& line);

  // Programmatic surface (the protocol verbs call these).
  bool Create(const std::string& name, const std::string& spec, std::string* err);
  bool Drop(const std::string& name, std::string* err);
  bool Attach(const std::string& name, const SourceBinding& binding, std::string* err);
  bool WriteCheckpoint(std::string* err);

  // Load options_.checkpoint_path and rebuild every instance (state +
  // source binding + offset skip). Missing file is not an error (fresh
  // start, returns true with *recovered = 0); a corrupt file is.
  bool Recover(size_t* recovered, std::string* err);

  // Wait until every attached ingest thread reaches end-of-stream (file
  // sources; a live pipe never ends). Tests and the smoke script use this
  // to sequence "after ingest" assertions.
  void DrainIngest();

  const ServeOptions& options() const { return options_; }
  std::vector<std::string> InstanceNames() const;
  uint64_t PacketsApplied(const std::string& name) const;

 private:
  struct Instance {
    std::string name;
    std::string spec;
    SketchDefaults defaults;
    std::unique_ptr<TopKAlgorithm> algo;

    // Everything below mu: the algorithm plus the applied-offset pair.
    mutable std::mutex mu;
    uint64_t packets_applied = 0;
    uint64_t wire_bytes_applied = 0;

    // Source binding: set once by Attach under map_mu_ and mu, so LIST and
    // STATS read it under map_mu_ and WriteCheckpoint under mu.
    SourceBinding binding;
    bool attached = false;
    std::thread ingest;
    std::atomic<bool> stop_ingest{false};
    std::atomic<bool> ingest_done{false};
    // Written before the release store that sets ingest_done (by the ingest
    // thread, or by Recover when the source cannot be re-attached), and
    // cleared by Attach under map_mu_. Read it only under map_mu_ and after
    // an acquire load of ingest_done returned true.
    std::string ingest_error;

    // The last checkpoint's SaveState buffer, kept for the next one so its
    // pages are already faulted in. Guarded by checkpoint_mu_.
    std::vector<uint8_t> checkpoint_state;

    // instance="<name>" series, registered when the source attaches. The
    // source-wait, lock-wait and apply counters tile the ingest thread's
    // wall time; parse_us is the reading and parsing inside it or, when the
    // loop parses ahead, on the parse thread.
    telemetry::Counter* tm_packets = nullptr;
    telemetry::Counter* tm_bytes = nullptr;
    telemetry::Counter* tm_malformed = nullptr;
    telemetry::Counter* tm_source_wait_us = nullptr;
    telemetry::Counter* tm_parse_us = nullptr;  // NextBatch time, on either thread
    telemetry::Counter* tm_lock_wait_us = nullptr;
    telemetry::Counter* tm_apply_us = nullptr;
    telemetry::Histogram* tm_burst_packets = nullptr;
  };

  // map_mu_ guards the map shape (create/drop/lookup); per-instance mu
  // guards each algorithm. Lock order: checkpoint_mu_, then map_mu_, then
  // instance mu.
  Instance* FindLocked(const std::string& name);
  // Resolve a possibly-omitted instance name (single-tenant convenience).
  Instance* Resolve(const std::string& name, std::string* err);

  // The ingest thread: applies RunBurstLoop's bursts under the instance
  // lock. `reader` is the source Attach opened, or null for "-" and
  // tcp://, which the thread opens itself.
  void IngestLoop(Instance* inst, std::unique_ptr<PcapReader> reader);

  std::string CmdCreate(const std::vector<std::string>& args);
  std::string CmdDrop(const std::vector<std::string>& args);
  std::string CmdAttach(const std::vector<std::string>& args);
  std::string CmdList();
  std::string CmdTopK(const std::vector<std::string>& args);
  std::string CmdPoint(const std::vector<std::string>& args);
  std::string CmdStats(const std::vector<std::string>& args);
  std::string CmdMetrics(const std::vector<std::string>& args);
  std::string CmdCheckpoint();
  std::string Dispatch(const std::string& verb, const std::vector<std::string>& args);
  std::string Err(const std::string& what);

  ServeOptions options_;
  mutable std::mutex map_mu_;
  std::map<std::string, std::unique_ptr<Instance>> instances_;
  // Serializes whole-manifest writes (protocol CHECKPOINT vs the timer).
  // A checkpoint saves instances without map_mu_, so Drop takes this too:
  // an instance is never freed while a checkpoint holds its pointer.
  std::mutex checkpoint_mu_;

  // Daemon-wide series; the per-verb pair is registered eagerly for every
  // known verb so METRICS lists the full catalog before any traffic.
  struct VerbMetrics {
    telemetry::Counter* requests = nullptr;
    telemetry::Histogram* latency_us = nullptr;
  };
  std::map<std::string, VerbMetrics> verb_metrics_;
  telemetry::Counter* tm_commands_;
  telemetry::Counter* tm_errors_;
  telemetry::Counter* tm_exact_queries_;
  telemetry::Counter* tm_relaxed_queries_;
  telemetry::Counter* tm_checkpoints_;
  telemetry::Counter* tm_checkpoint_failures_;
  telemetry::Counter* tm_instances_recovered_;
};

// Parse "key=5tuple|pair|src" / "bytes" attach arguments into a binding.
// Returns false (with *err set) on an unknown token.
bool ParseAttachArgs(const std::vector<std::string>& args, size_t first, SourceBinding* out,
                     std::string* err);

}  // namespace hk

#endif  // HK_SERVE_SERVE_CORE_H_
