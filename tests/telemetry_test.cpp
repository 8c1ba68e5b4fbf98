// Telemetry library tests (src/telemetry/).
//
// The registry is process-global and shared with every other suite in
// hk_tests, so tests use fresh metric names (unique prefixes) and assert
// on deltas, never on absolute values of shared series. Every test name
// contains "Telemetry" so the TSan CI job's filter picks the suite up -
// the multi-thread hammer is the test that matters under TSan: it proves
// the single-writer cell protocol is exact AND race-free.
#include "telemetry/telemetry.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace hk::telemetry {
namespace {

// N threads hammering one counter plus a private counter each; the total
// must come out exact. Under TSan this also proves the per-thread cell
// discipline (relaxed single-writer add, registry-mutex retirement on
// thread exit) has no race: half the threads exit before Value() is read,
// so the retired-cells fold is exercised too.
TEST(TelemetryCounter, ExactUnderConcurrentHammer) {
  Registry& registry = Registry::Get();
  Counter* shared = registry.GetCounter("hk_test_hammer_total", "test");
  const uint64_t before = shared->Value();

  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100'000;
  std::vector<Counter*> privates;
  privates.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    privates.push_back(registry.GetCounter("hk_test_hammer_private_total", "test",
                                           "thread=\"" + std::to_string(t) + "\""));
  }

  // First wave: threads that exit before the read (retired-cell path).
  std::vector<std::thread> wave;
  for (int t = 0; t < kThreads / 2; ++t) {
    wave.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        shared->Add();
        privates[t]->Add(2);
      }
    });
  }
  for (auto& th : wave) {
    th.join();
  }
  // Second wave: threads still alive at read time (live-cell path).
  wave.clear();
  for (int t = kThreads / 2; t < kThreads; ++t) {
    wave.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        shared->Add();
        privates[t]->Add(2);
      }
    });
  }
  for (auto& th : wave) {
    th.join();
  }

  EXPECT_EQ(shared->Value() - before, kThreads * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(privates[t]->Value(), kPerThread * 2) << "thread series " << t;
  }
  // SumCounter folds all label series of the name.
  EXPECT_EQ(registry.SumCounter("hk_test_hammer_private_total"),
            kThreads * kPerThread * 2);
}

TEST(TelemetryHistogram, BucketBoundaries) {
  // Bucket 0 holds exactly the value 0; bucket b holds [2^(b-1), 2^b - 1].
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex((1u << 20) - 1), 20u);
  EXPECT_EQ(Histogram::BucketIndex(1u << 20), 21u);
  // Everything at or past 2^30 lands in the overflow bucket.
  EXPECT_EQ(Histogram::BucketIndex(uint64_t{1} << 30), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndex(UINT64_MAX), Histogram::kBuckets - 1);
  // The le= label: inclusive upper bound of each non-overflow bucket.
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(5), 31u);

  Histogram* hist =
      Registry::Get().GetHistogram("hk_test_boundary_us", "test histogram");
  hist->Observe(0);
  hist->Observe(1);
  hist->Observe(31);
  hist->Observe(UINT64_MAX);
  EXPECT_EQ(hist->BucketCount(0), 1u);
  EXPECT_EQ(hist->BucketCount(1), 1u);
  EXPECT_EQ(hist->BucketCount(5), 1u);
  EXPECT_EQ(hist->BucketCount(Histogram::kBuckets - 1), 1u);
  EXPECT_EQ(hist->Count(), 4u);
  EXPECT_EQ(hist->Sum(), 0 + 1 + 31 + UINT64_MAX);  // wraps; still deterministic
}

TEST(TelemetryGauge, SetAddMaxTo) {
  Gauge* gauge = Registry::Get().GetGauge("hk_test_gauge", "test gauge");
  gauge->Set(10);
  EXPECT_EQ(gauge->Value(), 10);
  gauge->Add(-3);
  EXPECT_EQ(gauge->Value(), 7);
  gauge->MaxTo(5);  // lower: no-op
  EXPECT_EQ(gauge->Value(), 7);
  gauge->MaxTo(42);
  EXPECT_EQ(gauge->Value(), 42);
}

// Golden exposition: a unique prefix + filter isolates this test's series
// from everything else the process registered.
TEST(TelemetryRegistry, PrometheusExpositionGolden) {
  Registry& registry = Registry::Get();
  Counter* plain = registry.GetCounter("hk_test_expo_total", "Things counted");
  Counter* labeled =
      registry.GetCounter("hk_test_expo_total", "Things counted", "instance=\"edge0\"");
  Gauge* gauge = registry.GetGauge("hk_test_expo_depth", "A depth");
  Histogram* hist = registry.GetHistogram("hk_test_expo_us", "A latency");
  plain->Add(3);
  labeled->Add(4);
  gauge->Set(-2);
  hist->Observe(0);
  hist->Observe(3);

  const std::string text = registry.RenderPrometheus("hk_test_expo");
  std::string expected =
      "# HELP hk_test_expo_depth A depth\n"
      "# TYPE hk_test_expo_depth gauge\n"
      "hk_test_expo_depth -2\n"
      "# HELP hk_test_expo_total Things counted\n"
      "# TYPE hk_test_expo_total counter\n"
      "hk_test_expo_total 3\n"
      "hk_test_expo_total{instance=\"edge0\"} 4\n"
      "# HELP hk_test_expo_us A latency\n"
      "# TYPE hk_test_expo_us histogram\n";
  // Every non-overflow bucket is emitted (cumulative): observations 0 and
  // 3 give cumulative 1 at le="0"/le="1" and 2 from le="3" on.
  for (size_t b = 0; b + 1 < Histogram::kBuckets; ++b) {
    expected += "hk_test_expo_us_bucket{le=\"" +
                std::to_string(Histogram::BucketUpperBound(b)) + "\"} " +
                std::to_string(b < 2 ? 1 : 2) + "\n";
  }
  expected +=
      "hk_test_expo_us_bucket{le=\"+Inf\"} 2\n"
      "hk_test_expo_us_sum 3\n"
      "hk_test_expo_us_count 2\n";
  EXPECT_EQ(text, expected);

  // The instance="<filter>" alternative pulls labeled series of any name.
  const std::string by_instance = registry.RenderPrometheus("edge0");
  EXPECT_NE(by_instance.find("hk_test_expo_total{instance=\"edge0\"} 4"),
            std::string::npos);
  EXPECT_EQ(by_instance.find("hk_test_expo_total 3"), std::string::npos);
}

TEST(TelemetryRegistry, SameSeriesSameHandle) {
  Registry& registry = Registry::Get();
  Counter* a = registry.GetCounter("hk_test_identity_total", "test");
  Counter* b = registry.GetCounter("hk_test_identity_total", "ignored second help");
  EXPECT_EQ(a, b);
  Counter* labeled = registry.GetCounter("hk_test_identity_total", "test", "x=\"1\"");
  EXPECT_NE(a, labeled);
}

// The runtime kill switch: Add/Observe/Set become no-ops, reads stay valid.
TEST(TelemetryRegistry, DisabledIsNoOp) {
  Registry& registry = Registry::Get();
  Counter* counter = registry.GetCounter("hk_test_disabled_total", "test");
  Gauge* gauge = registry.GetGauge("hk_test_disabled_gauge", "test");
  Histogram* hist = registry.GetHistogram("hk_test_disabled_us", "test");
  counter->Add(5);
  Registry::SetEnabled(false);
  counter->Add(100);
  gauge->Set(9);
  gauge->MaxTo(99);
  hist->Observe(7);
  {
    const ScopedTimer timer(hist);  // disarmed: no clock reads, no observe
  }
  Registry::SetEnabled(true);
  EXPECT_EQ(counter->Value(), 5u);
  EXPECT_EQ(gauge->Value(), 0);
  EXPECT_EQ(hist->Count(), 0u);
}

TEST(TelemetryScopedTimer, FeedsHistogramAndCounter) {
  Registry& registry = Registry::Get();
  Histogram* hist = registry.GetHistogram("hk_test_timer_us", "test");
  Counter* total = registry.GetCounter("hk_test_timer_us_total", "test");
  {
    const ScopedTimer timer(hist, total);
  }
  {
    const ScopedTimer counter_only(nullptr, total);  // the source-wait idiom
  }
  EXPECT_EQ(hist->Count(), 1u);  // counter-only timer must not touch the histogram
}

}  // namespace
}  // namespace hk::telemetry
