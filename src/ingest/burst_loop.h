// RunBurstLoop: the one capture-to-sketch burst loop. TraceReplayer and the
// hk_serve ingest thread both apply a capture through it.
//
// The loop reads a PcapReader with NextBatch, `batch` records at a time,
// and hands each burst to `apply` on the calling thread, in capture order.
// Where the parse runs depends on the target sketch, decided in one place
// (ParsesAhead):
//
//   * ahead - the target applies on the calling thread (WorkerThreads() ==
//     0). A parse thread fills bursts up to kAheadBursts ahead of the one
//     being applied and hands them over through an SpscRing, so parsing
//     burst i+1 overlaps applying burst i. Replay then runs at about the
//     slower of parse and apply instead of their serial sum.
//   * inline - the target has worker threads (threaded Sharded). Its
//     workers already overlap with the caller's scatter, and a parse
//     thread on top made a fourth busy thread on a 4-vCPU host, which cost
//     about 5% of ingest rate. The calling thread parses each burst itself.
//
// Both run the same fill code and the same apply code, so the bursts are
// the same either way: every burst holds `batch` records except the last -
// or, from a live source (a pipe or socket), except a burst that ends where
// the source had nothing more ready (PcapReader::NextBatch hands over what
// has arrived) - and the `skip` prefix (a recovery offset) is parsed and
// dropped first, its last burst short so that the first applied burst
// starts right after it.
//
// Waits block. The slot hand-off is an SpscRing, whose Pop parks the
// applying thread on an empty ring and whose Push parks the parser on a
// full one (common/spsc_ring.h: a 100 us spin, then a futex wait). An
// idle live source costs no CPU: the parser sleeps in read() and the
// applier in the ring's wait. On its way out the applier closes the ring,
// so a parser waiting for room exits and is joined.
//
// The loop ends on an empty burst (end of stream or a malformed-container
// stop) or once *stop is set (checked between bursts, on both threads).
// The parse thread is joined before RunBurstLoop returns or unwinds, so
// reader.error() and reader.stats() are the caller's again afterwards.
// While the loop runs no reader state is shared: each burst carries the
// malformed-frame count that parsing it added.
#ifndef HK_INGEST_BURST_LOOP_H_
#define HK_INGEST_BURST_LOOP_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>

#include "ingest/pcap_reader.h"
#include "sketch/topk_algorithm.h"
#include "telemetry/telemetry.h"

namespace hk {

// Parsed bursts a parse thread may hold ready beyond the one being applied
// (the SpscRing's capacity). Two more buffers cover the burst being applied
// and the one being filled: 9 x 512 records, about 180 KB per loop.
inline constexpr size_t kAheadBursts = 7;

struct ParsedBurst {
  std::span<const PacketRecord> records;  // valid only during the apply call
  uint64_t malformed = 0;                 // frames the parser skipped while filling this burst
};

struct BurstLoopOptions {
  size_t batch = 512;                       // records per burst (0 counts as 1)
  uint64_t skip = 0;                        // records parsed and dropped first
  const std::atomic<bool>* stop = nullptr;  // ends the loop between bursts once set
  telemetry::Counter* parse_us = nullptr;   // microseconds in NextBatch, on either thread
};

// True when RunBurstLoop parses ahead on its own thread for `target`.
bool ParsesAhead(const TopKAlgorithm& target);

// Parse every remaining record of `reader` in bursts and call `apply` for
// each, on the calling thread, in capture order. `target` is the sketch
// the caller applies to; it is only asked ParsesAhead.
void RunBurstLoop(PcapReader& reader, const TopKAlgorithm& target, const BurstLoopOptions& options,
                  const std::function<void(const ParsedBurst&)>& apply);

}  // namespace hk

#endif  // HK_INGEST_BURST_LOOP_H_
