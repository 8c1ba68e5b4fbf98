// A test double shared by the shard and serve suites: forwards to an inner
// algorithm but sleeps before every batch, so a threaded Sharded worker's
// bursts last long enough for a reader to overtake the drain. A nonzero
// `read_pause` also sleeps in every TopK, so a reader holds a shard's lock
// that long.
#ifndef HK_TESTS_SLOW_BATCH_ALGORITHM_H_
#define HK_TESTS_SLOW_BATCH_ALGORITHM_H_

#include <chrono>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sketch/topk_algorithm.h"

namespace hk {

class SlowBatchAlgorithm : public TopKAlgorithm {
 public:
  explicit SlowBatchAlgorithm(std::unique_ptr<TopKAlgorithm> inner,
                              std::chrono::milliseconds pause = std::chrono::milliseconds(2),
                              std::chrono::milliseconds read_pause = std::chrono::milliseconds(0))
      : inner_(std::move(inner)), pause_(pause), read_pause_(read_pause) {}

  using TopKAlgorithm::InsertBatch;
  void Insert(FlowId id) override { inner_->Insert(id); }
  void InsertBatch(std::span<const FlowId> ids) override {
    std::this_thread::sleep_for(pause_);
    inner_->InsertBatch(ids);
  }
  std::vector<FlowCount> TopK(size_t k) const override {
    std::this_thread::sleep_for(read_pause_);
    return inner_->TopK(k);
  }
  uint64_t EstimateSize(FlowId id) const override { return inner_->EstimateSize(id); }
  std::string name() const override { return "slow-batch-test-double"; }
  size_t MemoryBytes() const override { return inner_->MemoryBytes(); }

 private:
  std::unique_ptr<TopKAlgorithm> inner_;
  std::chrono::milliseconds pause_;
  std::chrono::milliseconds read_pause_;
};

}  // namespace hk

#endif  // HK_TESTS_SLOW_BATCH_ALGORITHM_H_
