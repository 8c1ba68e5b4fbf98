#include "telemetry/telemetry.h"

#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace hk::telemetry {

namespace internal {

std::atomic<bool> g_enabled{true};

ThreadCells* RegisterThreadCells() { return Registry::Get().RegisterThreadCells(); }

CellsHolder::~CellsHolder() {
  if (cells != nullptr) {
    Registry::Get().RetireThreadCells(cells);
  }
}

}  // namespace internal

namespace {

enum class MetricType { kCounter, kGauge, kHistogram };

std::string SeriesSuffix(const std::string& labels) {
  return labels.empty() ? "" : "{" + labels + "}";
}

}  // namespace

struct Registry::Metric {
  std::string name;
  std::string labels;
  std::string help;
  MetricType type = MetricType::kCounter;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
};

struct Registry::Impl {
  mutable std::mutex mu;
  // Keyed name + '\x01' + labels: iteration order is exposition order
  // (series of one name adjacent, label sets sorted within the name).
  std::map<std::string, Metric> metrics;
  std::vector<internal::ThreadCells*> live_cells;
  uint64_t retired[internal::kMaxCounterCells] = {};
  uint32_t next_id = 0;
  Gauge* enabled_gauge = nullptr;
};

Registry& Registry::Get() {
  static Registry* registry = new Registry();  // leaked: handles never dangle
  return *registry;
}

Registry::Registry() : impl_(new Impl()) {
  if (const char* env = std::getenv("HK_TELEMETRY")) {
    if (std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0 ||
        std::strcmp(env, "false") == 0) {
      internal::g_enabled.store(false, std::memory_order_relaxed);
    }
  }
  impl_->enabled_gauge = GetGauge("hk_telemetry_enabled",
                                  "1 while telemetry collection is enabled, 0 when the "
                                  "HK_TELEMETRY=off runtime switch froze every metric");
  impl_->enabled_gauge->Set(internal::g_enabled.load(std::memory_order_relaxed) ? 1 : 0);
}

void Registry::SetEnabled(bool on) {
  Registry& registry = Get();
  // Order matters when disabling: the gauge write must land while writes
  // still pass the enabled check.
  if (!on) {
    registry.impl_->enabled_gauge->Set(0);
  }
  internal::g_enabled.store(on, std::memory_order_relaxed);
  if (on) {
    registry.impl_->enabled_gauge->Set(1);
  }
}

Registry::Metric* Registry::FindOrCreateLocked(const std::string& name,
                                               const std::string& help,
                                               const std::string& labels) {
  const std::string key = name + '\x01' + labels;
  auto [it, inserted] = impl_->metrics.try_emplace(key);
  Metric& metric = it->second;
  if (inserted) {
    metric.name = name;
    metric.labels = labels;
    metric.help = help;
  }
  return &metric;
}

Counter* Registry::GetCounter(const std::string& name, const std::string& help,
                              const std::string& labels) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  Metric* metric = FindOrCreateLocked(name, help, labels);
  if (metric->counter == nullptr) {
    metric->type = MetricType::kCounter;
    const uint32_t id = impl_->next_id < internal::kMaxCounterCells
                            ? impl_->next_id++
                            : internal::kOverflowId;
    metric->counter.reset(new Counter(id));
  }
  return metric->counter.get();
}

Gauge* Registry::GetGauge(const std::string& name, const std::string& help,
                          const std::string& labels) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  Metric* metric = FindOrCreateLocked(name, help, labels);
  if (metric->gauge == nullptr) {
    metric->type = MetricType::kGauge;
    metric->gauge.reset(new Gauge());
  }
  return metric->gauge.get();
}

Histogram* Registry::GetHistogram(const std::string& name, const std::string& help,
                                  const std::string& labels) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  Metric* metric = FindOrCreateLocked(name, help, labels);
  if (metric->histogram == nullptr) {
    metric->type = MetricType::kHistogram;
    metric->histogram.reset(new Histogram());
  }
  return metric->histogram.get();
}

internal::ThreadCells* Registry::RegisterThreadCells() {
  auto* cells = new internal::ThreadCells();
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->live_cells.push_back(cells);
  return cells;
}

void Registry::RetireThreadCells(internal::ThreadCells* cells) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (uint32_t id = 0; id < internal::kMaxCounterCells; ++id) {
    impl_->retired[id] += cells->cells[id].load(std::memory_order_relaxed);
  }
  for (auto it = impl_->live_cells.begin(); it != impl_->live_cells.end(); ++it) {
    if (*it == cells) {
      impl_->live_cells.erase(it);
      break;
    }
  }
  delete cells;
}

uint64_t Registry::CounterValueLocked(const Counter& counter) const {
  uint64_t total = counter.direct_.load(std::memory_order_relaxed);
  if (counter.id_ == internal::kOverflowId) {
    return total;
  }
  total += impl_->retired[counter.id_];
  for (const internal::ThreadCells* cells : impl_->live_cells) {
    total += cells->cells[counter.id_].load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t Counter::Value() const {
  Registry& registry = Registry::Get();
  std::lock_guard<std::mutex> lock(registry.impl_->mu);
  return registry.CounterValueLocked(*this);
}

uint64_t Registry::SumCounter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  uint64_t total = 0;
  // Series of one name are adjacent: seek to the first possible key.
  for (auto it = impl_->metrics.lower_bound(name); it != impl_->metrics.end(); ++it) {
    if (it->second.name != name) {
      break;
    }
    if (it->second.counter != nullptr) {
      total += CounterValueLocked(*it->second.counter);
    }
  }
  return total;
}

std::string Registry::RenderPrometheus(const std::string& filter) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const std::string instance_label = "instance=\"" + filter + "\"";
  std::string out;
  const std::string* open_name = nullptr;
  for (const auto& [key, metric] : impl_->metrics) {
    if (!filter.empty() && metric.name.rfind(filter, 0) != 0 &&
        metric.labels.find(instance_label) == std::string::npos) {
      continue;
    }
    if (open_name == nullptr || *open_name != metric.name) {
      out += "# HELP " + metric.name + " " + metric.help + "\n";
      out += "# TYPE " + metric.name + " ";
      switch (metric.type) {
        case MetricType::kCounter:
          out += "counter\n";
          break;
        case MetricType::kGauge:
          out += "gauge\n";
          break;
        case MetricType::kHistogram:
          out += "histogram\n";
          break;
      }
      open_name = &metric.name;
    }
    switch (metric.type) {
      case MetricType::kCounter:
        out += metric.name + SeriesSuffix(metric.labels) + " " +
               std::to_string(CounterValueLocked(*metric.counter)) + "\n";
        break;
      case MetricType::kGauge:
        out += metric.name + SeriesSuffix(metric.labels) + " " +
               std::to_string(metric.gauge->Value()) + "\n";
        break;
      case MetricType::kHistogram: {
        const Histogram& hist = *metric.histogram;
        const std::string comma = metric.labels.empty() ? "" : metric.labels + ",";
        uint64_t cumulative = 0;
        for (size_t b = 0; b + 1 < Histogram::kBuckets; ++b) {
          cumulative += hist.BucketCount(b);
          out += metric.name + "_bucket{" + comma + "le=\"" +
                 std::to_string(Histogram::BucketUpperBound(b)) + "\"} " +
                 std::to_string(cumulative) + "\n";
        }
        cumulative += hist.BucketCount(Histogram::kBuckets - 1);
        out += metric.name + "_bucket{" + comma + "le=\"+Inf\"} " +
               std::to_string(cumulative) + "\n";
        out += metric.name + "_sum" + SeriesSuffix(metric.labels) + " " +
               std::to_string(hist.Sum()) + "\n";
        out += metric.name + "_count" + SeriesSuffix(metric.labels) + " " +
               std::to_string(cumulative) + "\n";
        break;
      }
    }
  }
  return out;
}

}  // namespace hk::telemetry
