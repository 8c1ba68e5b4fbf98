// TraceReplayer: drive a capture through any TopKAlgorithm.
//
// The replayer is the glue between the ingest layer and the measurement
// layer: it reads PacketRecords from a PcapReader in capture (timestamp)
// order, a burst at a time, and applies them through the batch-first
// TopKAlgorithm v2 API - InsertBatch bursts of flow ids, or weighted bursts
// of (id, wire_len) when byte_weighted is set (byte-count measurement, the
// mode the paper's flow-size definition footnotes). The bursts come from
// RunBurstLoop (ingest/burst_loop.h), the loop hk_serve's ingest thread
// runs too: for a sketch that applies on the calling thread a parse thread
// fills the next bursts while this one is applied; a threaded front-end
// parses inline. Every burst is applied on the calling thread, in order,
// so the result is the same either way. Any registry-built algorithm
// works, including the threaded ShardedTopK front-end: Flush() runs at
// end-of-stream inside the timed region so stats cover applied packets.
//
// Windowed mode: the WindowedTopK overload with epoch_ns > 0 rotates the
// ring whenever the capture timestamp crosses an epoch_ns boundary -
// capture-time windows rather than packet-count windows, so a bursty
// capture reports what a wall-clock deployment would have reported. The
// same burst loop runs: each burst is cut at the boundaries, the run
// before a boundary is applied with InsertBatch, and the ring rotates
// before the rest. By the batch == scalar contract that is bit-identical
// to applying packet by packet. An idle gap spanning N windows triggers
// exactly N rotations (one empty report per skipped window), capped at
// kMaxGapRotations so a pathological timestamp jump cannot spin. A
// one-slot ring (w=1) is the per-window report: each epoch callback
// delivers exactly what its inner alone would report for that window.
// The cuts and rotations run on the applying thread, from each burst's
// records.
#ifndef HK_INGEST_TRACE_REPLAYER_H_
#define HK_INGEST_TRACE_REPLAYER_H_

#include <cstddef>
#include <cstdint>

#include "ingest/pcap_reader.h"
#include "sketch/topk_algorithm.h"
#include "window/windowed_topk.h"

namespace hk {

struct ReplayOptions {
  size_t batch = 512;          // records per InsertBatch burst
  bool byte_weighted = false;  // weight every packet by its wire length
  uint64_t epoch_ns = 0;       // WindowedTopK overload: window width (0 = one window)
  size_t snapshot_k = 0;       // 0 = quiesce only; >0 = end-of-stream Snapshot(k)
};

struct ReplayStats {
  uint64_t packets = 0;      // records applied
  uint64_t wire_bytes = 0;   // sum of applied wire lengths
  uint64_t first_ts_ns = 0;  // capture timestamps of the applied stream
  uint64_t last_ts_ns = 0;
  uint64_t epochs = 0;       // capture-time rotations triggered (windowed mode)
  // Wall time of the parse+insert loop: the parse thread's start and join
  // and the end-of-stream quiesce included.
  double seconds = 0.0;
  // End-of-stream report when snapshot_k > 0 (always kExact: the stream is
  // over, so Snapshot's quiesce doubles as the end-of-run Flush). Empty
  // otherwise; a ring's epoch callback reports per window instead.
  QueryResult report;
};

class TraceReplayer {
 public:
  // Most rotations a single inter-packet gap may cascade. Beyond this the
  // skipped idle windows coalesce (stats.epochs stops counting them); any
  // ring of depth <= kMaxGapRotations is fully cleared by the rotations
  // that do run, so only per-epoch *callback* consumers can observe the
  // cap - and only on a capture whose clock jumped by >4096 windows.
  static constexpr uint64_t kMaxGapRotations = 4096;

  explicit TraceReplayer(const ReplayOptions& options = {}) : options_(options) {}

  // Stream every remaining packet in `reader` through `algo` in InsertBatch
  // bursts. The reader's stats/error surface parse-side outcomes (read
  // them after Replay returns; the parse thread has been joined by then);
  // the returned stats cover the applied stream.
  ReplayStats Replay(PcapReader& reader, TopKAlgorithm& algo) const;

  // Windowed replay: the same bursts, and with epoch_ns > 0 one Rotate()
  // per window boundary a packet's capture timestamp crosses (N boundaries
  // -> N rotations, empty windows included, capped at kMaxGapRotations).
  // Build the ring with WindowedTopK::kNoPacketRotation so capture time is
  // the only clock; its Snapshot() then answers "top-k over the last W
  // capture windows".
  ReplayStats Replay(PcapReader& reader, WindowedTopK& window) const;

  const ReplayOptions& options() const { return options_; }

 private:
  // Apply RunBurstLoop's bursts. `ring` is the target itself when it is a
  // window (rotated on capture time when epoch_ns > 0), null otherwise.
  ReplayStats Run(PcapReader& reader, TopKAlgorithm& algo, WindowedTopK* ring) const;

  ReplayOptions options_;
};

}  // namespace hk

#endif  // HK_INGEST_TRACE_REPLAYER_H_
