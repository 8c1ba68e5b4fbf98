#include "ingest/trace_replayer.h"

#include <algorithm>
#include <span>
#include <vector>

#include "common/timer.h"

namespace hk {

ReplayStats TraceReplayer::Replay(PcapReader& reader, TopKAlgorithm& algo) const {
  return Run(reader, algo, nullptr);
}

ReplayStats TraceReplayer::Replay(PcapReader& reader, WindowedTopK& window) const {
  return Run(reader, window, &window);
}

ReplayStats TraceReplayer::Run(PcapReader& reader, TopKAlgorithm& algo, WindowedTopK* ring) const {
  const size_t batch = std::max<size_t>(options_.batch, 1);
  const bool windowed = ring != nullptr && options_.epoch_ns > 0;
  std::vector<PacketRecord> records(batch);
  std::vector<FlowId> ids(batch);
  std::vector<uint64_t> weights(options_.byte_weighted ? batch : 0);
  // Apply records [begin, end) of the current burst as one InsertBatch.
  const auto apply = [&](size_t begin, size_t end) {
    if (begin == end) {
      return;
    }
    const std::span<const FlowId> run(ids.data() + begin, end - begin);
    if (options_.byte_weighted) {
      algo.InsertBatch(run, std::span<const uint64_t>(weights.data() + begin, end - begin));
    } else {
      algo.InsertBatch(run);
    }
  };

  ReplayStats stats;
  uint64_t window_start = 0;
  WallTimer timer;
  for (;;) {
    const size_t n = reader.NextBatch(records);
    if (n == 0) {
      break;
    }
    if (stats.packets == 0) {
      stats.first_ts_ns = records[0].timestamp_ns;
      window_start = stats.first_ts_ns;
    }
    size_t begin = 0;  // first record of the burst not yet applied
    for (size_t i = 0; i < n; ++i) {
      const PacketRecord& record = records[i];
      if (windowed && record.timestamp_ns >= window_start + options_.epoch_ns) {
        // The run before the boundary belongs to the closing window. Then
        // advance by whole windows and rotate once per window crossed, so
        // an idle gap yields that many empty-window reports - elapsed
        // capture time, not one stretched window. completed_epochs() stays
        // equal to the number of window boundaries the capture clock passed.
        apply(begin, i);
        begin = i;
        const uint64_t jumped = (record.timestamp_ns - window_start) / options_.epoch_ns;
        window_start += jumped * options_.epoch_ns;
        // Beyond the cap the idle windows coalesce: a pathological
        // timestamp jump (corrupt capture, clock step) must not spin here
        // for years of virtual idle time. Any ring of depth <=
        // kMaxGapRotations is already fully cleared by the rotations that
        // did run.
        const uint64_t rotations = std::min(jumped, kMaxGapRotations);
        for (uint64_t r = 0; r < rotations; ++r) {
          ring->Rotate();
        }
        stats.epochs += rotations;
      }
      ids[i] = record.id;
      if (options_.byte_weighted) {
        weights[i] = record.wire_len;
      }
      stats.wire_bytes += record.wire_len;
    }
    apply(begin, n);
    stats.packets += n;
    stats.last_ts_ns = records[n - 1].timestamp_ns;
  }
  // Threaded front-ends only enqueued above; pay for the applied packets
  // inside the timed region. Snapshot quiesces before reading, so when a
  // report was requested it doubles as the end-of-stream Flush.
  if (options_.snapshot_k > 0) {
    stats.report = algo.Snapshot({.k = options_.snapshot_k});
  } else {
    algo.Flush();
  }
  stats.seconds = timer.ElapsedSeconds();
  return stats;
}

}  // namespace hk
