#include "ingest/burst_loop.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

#include "common/spsc_ring.h"

namespace hk {
namespace {

uint64_t MalformedFrames(const IngestStats& stats) {
  return stats.skipped_non_ip + stats.skipped_truncated + stats.skipped_other;
}

struct BurstSlot {
  explicit BurstSlot(size_t batch) : records(batch) {}

  std::vector<PacketRecord> records;
  size_t count = 0;  // 0 = the stream is over
  uint64_t malformed = 0;
};

// The fill side, run by whichever thread parses: the skip prefix once,
// then one burst per Fill.
class Filler {
 public:
  Filler(PcapReader& reader, const BurstLoopOptions& options)
      : reader_(reader), skip_left_(options.skip), parse_us_(options.parse_us) {}

  void Fill(BurstSlot& slot) {
    const std::span<PacketRecord> all(slot.records);
    while (skip_left_ > 0) {
      const size_t want = static_cast<size_t>(std::min<uint64_t>(skip_left_, all.size()));
      const size_t got = Parse(all.first(want));
      if (got == 0) {
        slot.count = 0;
        return;
      }
      skip_left_ -= got;
    }
    const uint64_t before = MalformedFrames(reader_.stats());
    slot.count = Parse(all);
    slot.malformed = MalformedFrames(reader_.stats()) - before;
  }

 private:
  size_t Parse(std::span<PacketRecord> out) {
    if (parse_us_ == nullptr) {
      return reader_.NextBatch(out);
    }
    const auto start = std::chrono::steady_clock::now();
    const size_t n = reader_.NextBatch(out);
    const std::chrono::nanoseconds elapsed = std::chrono::steady_clock::now() - start;
    // Carry the sub-microsecond remainder rather than truncate per burst.
    carry_ns_ += static_cast<uint64_t>(elapsed.count());
    parse_us_->Add(carry_ns_ / 1000);
    carry_ns_ %= 1000;
    return n;
  }

  PcapReader& reader_;
  uint64_t skip_left_;
  telemetry::Counter* parse_us_;
  uint64_t carry_ns_ = 0;
};

}  // namespace

bool ParsesAhead(const TopKAlgorithm& target) { return target.WorkerThreads() == 0; }

void RunBurstLoop(PcapReader& reader, const TopKAlgorithm& target, const BurstLoopOptions& options,
                  const std::function<void(const ParsedBurst&)>& apply) {
  const size_t batch = std::max<size_t>(options.batch, 1);
  const auto stopped = [&] {
    return options.stop != nullptr && options.stop->load(std::memory_order_acquire);
  };
  Filler filler(reader, options);
  // Apply one filled slot. False once the stream is over: an empty burst.
  // A short one is not the end: a live source returns what has arrived.
  const auto deliver = [&](const BurstSlot& slot) {
    if (slot.count == 0 || stopped()) {
      return false;
    }
    apply({std::span<const PacketRecord>(slot.records.data(), slot.count), slot.malformed});
    return true;
  };

  if (ParsesAhead(target)) {
    // Filled slot indices in capture order, from the parse thread to this
    // one. The ring holds capacity() filled slots; one more is being
    // applied and one more filled, so the parser never refills a slot
    // still in use.
    SpscRing<uint32_t> filled(kAheadBursts);
    std::vector<BurstSlot> slots(filled.capacity() + 2, BurstSlot(batch));
    std::exception_ptr parse_error;  // rethrown here once the parser is joined
    std::thread parser;
    try {
      parser = std::thread([&] {
        for (uint32_t next = 0;; next = (next + 1) % slots.size()) {
          BurstSlot& slot = slots[next];
          slot.count = 0;
          if (!stopped()) {
            try {
              filler.Fill(slot);
            } catch (...) {
              parse_error = std::current_exception();
              slot.count = 0;
            }
          }
          const bool more = slot.count > 0;
          if (filled.Push(std::span<const uint32_t>(&next, 1)) == 0 || !more) {
            return;
          }
        }
      });
    } catch (const std::system_error&) {
      // No thread to spare: parse inline below, as for a threaded target.
    }
    if (parser.joinable()) {
      // On the way out: a parser waiting for room gives up.
      const auto join = [&] {
        filled.Close();
        parser.join();
      };
      // The parser always ends with an empty slot unless the ring was
      // closed, so Pop cannot wait forever on a live parser.
      uint32_t index = 0;
      try {
        while (filled.Pop(std::span<uint32_t>(&index, 1)) > 0 && deliver(slots[index])) {
        }
      } catch (...) {
        join();
        throw;
      }
      join();
      if (parse_error) {
        std::rethrow_exception(parse_error);
      }
      return;
    }
  }
  BurstSlot slot(batch);
  do {
    if (stopped()) {
      return;
    }
    filler.Fill(slot);
  } while (deliver(slot));
}

}  // namespace hk
