// Epoch-based monitoring.
//
// Real deployments (Section VI-A footnote 2) measure in short windows - "each
// period is often small, for example, 10M packets" - then report and reset.
// EpochMonitor wraps any TopKAlgorithm factory, rotates the instance every
// `epoch_packets` insertions, and retains the previous epoch's report so a
// collector can always read a complete window while the next one fills.
//
// Rotation boundary contract (pinned by tests/core_epoch_monitor_test.cpp;
// WindowedTopK in window/windowed_topk.h mirrors it exactly):
//   * An insert lands in the old epoch *before* the rotation check, so a
//     completed window holds exactly epoch_packets packets and the Nth
//     packet of a window is the one whose insert triggers the rotation.
//   * The factory is called with epoch index 0 at construction and with
//     the *new* epoch's index (1, 2, ...) after each rotation.
//   * The callback receives the *completed* epoch's index (0-based) and
//     its kExact report; R rotations deliver indices 0..R-1 and leave
//     completed_epochs() == R. Empty epochs (timer-forced Rotate() with no
//     inserts) deliver empty reports - they are windows too.
#ifndef HK_CORE_EPOCH_MONITOR_H_
#define HK_CORE_EPOCH_MONITOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sketch/topk_algorithm.h"

namespace hk {

class EpochMonitor {
 public:
  using Factory = std::function<std::unique_ptr<TopKAlgorithm>(uint64_t epoch)>;
  // Called with each completed epoch's report before the rotation.
  using EpochCallback = std::function<void(uint64_t epoch, std::vector<FlowCount> report)>;

  EpochMonitor(Factory factory, uint64_t epoch_packets, size_t k,
               EpochCallback on_epoch = nullptr)
      : factory_(std::move(factory)),
        epoch_packets_(epoch_packets),
        k_(k),
        on_epoch_(std::move(on_epoch)),
        current_(factory_(0)) {}

  void Insert(FlowId id) {
    current_->Insert(id);
    if (++in_epoch_ >= epoch_packets_) {
      Rotate();
    }
  }

  // Weighted insert (byte-weighted ingest replay): one packet carrying
  // `weight` units. Rotation still counts packets, matching the paper's
  // "each period is 10M packets" framing.
  void InsertWeighted(FlowId id, uint64_t weight) {
    current_->InsertWeighted(id, weight);
    if (++in_epoch_ >= epoch_packets_) {
      Rotate();
    }
  }

  // Report of the last *completed* epoch (empty until one completes).
  const std::vector<FlowCount>& LastReport() const { return last_report_; }

  // Live view of the epoch currently filling. kRelaxed: against a
  // threaded algorithm this is the non-draining mid-stream read; the
  // rotation report below stays exact.
  std::vector<FlowCount> CurrentTopK() const {
    return current_->Snapshot({.k = k_, .consistency = ConsistencyLevel::kRelaxed}).flows;
  }

  uint64_t completed_epochs() const { return epoch_; }
  uint64_t packets_in_current_epoch() const { return in_epoch_; }
  const TopKAlgorithm& current() const { return *current_; }

  // Force an early rotation (e.g., on a timer rather than a packet count).
  // The completed window's report is a kExact snapshot: the epoch is over,
  // so the quiesce is the natural end-of-window barrier.
  void Rotate() {
    last_report_ = current_->Snapshot({.k = k_}).flows;
    if (on_epoch_) {
      on_epoch_(epoch_, last_report_);
    }
    ++epoch_;
    in_epoch_ = 0;
    current_ = factory_(epoch_);
  }

 private:
  Factory factory_;
  uint64_t epoch_packets_;
  size_t k_;
  EpochCallback on_epoch_;
  std::unique_ptr<TopKAlgorithm> current_;
  uint64_t epoch_ = 0;
  uint64_t in_epoch_ = 0;
  std::vector<FlowCount> last_report_;
};

}  // namespace hk

#endif  // HK_CORE_EPOCH_MONITOR_H_
