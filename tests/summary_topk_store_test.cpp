// Candidate-store tests: the pipelines' lazy-threshold store against the
// eager min-heap of Section III-C (its differential reference), through
// the API both share, and the heap against Stream-Summary.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "summary/lazy_topk.h"
#include "summary/min_heap.h"
#include "summary/stream_summary.h"

namespace hk {
namespace {

template <typename Store>
class TopKStoreTypedTest : public ::testing::Test {};

using StoreTypes = ::testing::Types<IndexedMinHeap, LazyTopKStore>;
TYPED_TEST_SUITE(TopKStoreTypedTest, StoreTypes);

TYPED_TEST(TopKStoreTypedTest, BasicLifecycle) {
  TypeParam store(3);
  EXPECT_EQ(store.capacity(), 3u);
  EXPECT_FALSE(store.Full());
  store.Insert(1, 4);
  store.Insert(2, 6);
  store.Insert(3, 2);
  EXPECT_TRUE(store.Full());
  EXPECT_EQ(store.MinCount(), 2u);
  EXPECT_EQ(store.Value(2), 6u);

  store.ReplaceMin(4, 3);
  EXPECT_FALSE(store.Contains(3));
  EXPECT_TRUE(store.Contains(4));
  EXPECT_EQ(store.MinCount(), 3u);

  store.RaiseCount(4, 10);
  EXPECT_EQ(store.Value(4), 10u);
  EXPECT_EQ(store.MinCount(), 4u);

  const auto top = store.TopK(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].id, 4u);
  EXPECT_EQ(top[1].id, 2u);
}

TYPED_TEST(TopKStoreTypedTest, RaiseIsMaxSemantics) {
  TypeParam store(2);
  store.Insert(1, 9);
  store.RaiseCount(1, 5);
  EXPECT_EQ(store.Value(1), 9u);
}

TYPED_TEST(TopKStoreTypedTest, EmptyStoreMinIsZero) {
  TypeParam store(4);
  EXPECT_EQ(store.MinCount(), 0u);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.TopK(5).empty());
}

// The paper's two Section III-C structures - the min-heap it explains the
// algorithm with and the Stream-Summary its authors use (which backs SS,
// Frequent and CSS here) - agree op for op under HeavyKeeper's admission
// rule: same membership, same nmin, same ranked counts.
TEST(TopKStoreDifferentialTest, BackendsAgreeOnRandomWorkload) {
  constexpr size_t kCapacity = 16;
  IndexedMinHeap heap(kCapacity);
  StreamSummary summary(kCapacity);
  Rng rng(2024);

  for (int i = 0; i < 20000; ++i) {
    const FlowId id = rng.NextBounded(100) + 1;
    const uint64_t v = rng.NextBounded(500) + 1;
    ASSERT_EQ(heap.Contains(id), summary.Contains(id)) << "op " << i;
    if (heap.Contains(id)) {
      heap.RaiseCount(id, v);
      summary.RaiseCount(id, v);
    } else if (!heap.Full()) {
      heap.Insert(id, v);
      summary.Insert(id, v);
    } else if (v == heap.MinCount() + 1) {
      // nmin+1 replacements only (the HeavyKeeper admission rule). When
      // several entries tie at the min the two structures may legitimately
      // evict different ids and membership would diverge, so only replace
      // when the victim is unique.
      const auto entries = heap.TopK(kCapacity);
      size_t at_min = 0;
      for (const auto& fc : entries) {
        if (fc.count == heap.MinCount()) {
          ++at_min;
        }
      }
      if (at_min == 1) {
        heap.ReplaceMin(id, v);
        summary.PopMin();
        summary.Insert(id, v);
      }
    }
    ASSERT_EQ(heap.MinCount(), summary.MinCount()) << "op " << i;
    ASSERT_EQ(heap.size(), summary.size()) << "op " << i;
  }

  const auto ht = heap.TopK(kCapacity);
  const auto st = summary.TopK(kCapacity);
  ASSERT_EQ(ht.size(), st.size());
  for (size_t i = 0; i < ht.size(); ++i) {
    EXPECT_EQ(ht[i].count, st[i].count) << "rank " << i;
  }
}

// The lazy store defers heap maintenance behind a staleness flag; every
// observable value must still match the eager heap op for op, including the
// nmin threshold right after interleaved raises of the minimum flow.
TEST(TopKStoreDifferentialTest, LazyMatchesEagerHeapExactly) {
  constexpr size_t kCapacity = 16;
  IndexedMinHeap eager(kCapacity);
  LazyTopKStore lazy(kCapacity);
  Rng rng(4097);

  for (int i = 0; i < 50000; ++i) {
    const FlowId id = rng.NextBounded(120) + 1;
    const uint64_t v = rng.NextBounded(400) + 1;
    ASSERT_EQ(eager.Contains(id), lazy.Contains(id)) << "op " << i;
    if (eager.Contains(id)) {
      eager.RaiseCount(id, v);
      lazy.RaiseCount(id, v);
    } else if (!eager.Full()) {
      eager.Insert(id, v);
      lazy.Insert(id, v);
    } else if (v == eager.MinCount() + 1) {
      // Replace only when the victim is unique: with several entries tied
      // at the min, eager sift order and lazy deferral may expel different
      // (equally valid) ids and membership would legitimately diverge.
      const auto entries = eager.TopK(kCapacity);
      size_t at_min = 0;
      for (const auto& fc : entries) {
        at_min += fc.count == eager.MinCount() ? 1 : 0;
      }
      if (at_min == 1) {
        const FlowId victim = entries.back().id;
        eager.ReplaceMin(id, v);
        lazy.ReplaceMin(id, v);
        ASSERT_FALSE(lazy.Contains(victim)) << "op " << i;  // same expulsion
      }
    }
    ASSERT_EQ(eager.MinCount(), lazy.MinCount()) << "op " << i;
    ASSERT_EQ(eager.Value(id), lazy.Value(id)) << "op " << i;
    ASSERT_EQ(eager.size(), lazy.size()) << "op " << i;
  }
  // Membership is compared unconditionally - both stores expel the *fresh*
  // minimum and with identical inputs must pick identical victims whenever
  // the minimum is unique; count ties can diverge on id, so compare the
  // sorted counts.
  const auto et = eager.TopK(kCapacity);
  const auto lt = lazy.TopK(kCapacity);
  ASSERT_EQ(et.size(), lt.size());
  for (size_t i = 0; i < et.size(); ++i) {
    EXPECT_EQ(et[i].count, lt[i].count) << "rank " << i;
  }
}

// The Find/Raise slot fast path must be observably identical to RaiseCount.
TEST(TopKStoreTest, LazyFindRaiseSlotMatchesRaiseCount) {
  LazyTopKStore a(4);
  LazyTopKStore b(4);
  for (FlowId id = 1; id <= 4; ++id) {
    a.Insert(id, id);
    b.Insert(id, id);
  }
  Rng rng(77);
  for (int i = 0; i < 1000; ++i) {
    const FlowId id = rng.NextBounded(4) + 1;
    const uint64_t v = rng.NextBounded(50);
    uint64_t* slot = a.Find(id);
    ASSERT_NE(slot, nullptr);
    a.Raise(id, slot, v);
    b.RaiseCount(id, v);
    ASSERT_EQ(a.MinCount(), b.MinCount()) << "op " << i;
    ASSERT_EQ(a.Value(id), b.Value(id)) << "op " << i;
  }
  EXPECT_EQ(a.TopK(4), b.TopK(4));
}

// FlowSlotMap carries flow id 0 in its side slot; the store must track it
// like any other flow.
TEST(TopKStoreTest, LazyHandlesFlowIdZero) {
  LazyTopKStore store(2);
  store.Insert(0, 5);
  store.Insert(9, 7);
  EXPECT_TRUE(store.Contains(0));
  EXPECT_EQ(store.Value(0), 5u);
  EXPECT_EQ(store.MinCount(), 5u);
  store.RaiseCount(0, 9);
  EXPECT_EQ(store.MinCount(), 7u);
  store.ReplaceMin(3, 8);
  EXPECT_FALSE(store.Contains(9));
  EXPECT_TRUE(store.Contains(0));
}

TEST(TopKStoreTest, BytesPerEntryAccounting) {
  // Heap and lazy store: key + 32-bit count. Stream-Summary adds list/index
  // overhead.
  EXPECT_EQ(IndexedMinHeap::BytesPerEntry(13), 17u);
  EXPECT_EQ(LazyTopKStore::BytesPerEntry(13), 17u);
  EXPECT_EQ(StreamSummary::BytesPerEntry(13), 33u);
  EXPECT_LT(IndexedMinHeap::BytesPerEntry(4), StreamSummary::BytesPerEntry(4));
}

}  // namespace
}  // namespace hk
