#include "obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace wazi::obs {

Histogram::Histogram(std::vector<int64_t> bounds)
    : bounds_(bounds.empty() ? DefaultLatencyBoundsNs() : std::move(bounds)),
      buckets_(new std::atomic<int64_t>[bounds_.size() + 1]) {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    // relaxed: single-threaded construction; publication happens via the
    // registry's mutex when the histogram is handed out.
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

std::vector<int64_t> Histogram::DefaultLatencyBoundsNs() {
  std::vector<int64_t> bounds;
  bounds.reserve(26);
  for (int64_t b = 256; b <= (int64_t{1} << 33); b *= 2) {
    bounds.push_back(b);  // 256 ns, 512 ns, ... ~8.6 s
  }
  return bounds;
}

std::vector<int64_t> Histogram::FineLatencyBoundsNs() {
  std::vector<int64_t> bounds;
  bounds.reserve(1441);
  for (int64_t v = 1; v < (int64_t{1} << 36);
       v += std::max<int64_t>(1, v / 64)) {
    bounds.push_back(v);
  }
  return bounds;
}

void Histogram::Record(int64_t value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const size_t slot = static_cast<size_t>(it - bounds_.begin());
  // relaxed: independent statistical counters — readers tolerate a
  // momentarily torn count/sum/bucket view (see HistogramSnapshot).
  buckets_[slot].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.buckets.resize(bounds_.size() + 1);
  // Bucket counts first, then count/sum: a racing Record bumps its bucket
  // before the totals, so the invariant sum(buckets) <= count can only be
  // violated transiently the other way; clamp totals up to the buckets so
  // observers (the TSan poller test) always see sum(buckets) <= count.
  int64_t bucket_total = 0;
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    bucket_total += snap.buckets[i];
  }
  snap.count = std::max(bucket_total, count());
  snap.sum = sum();
  return snap;
}

double HistogramSnapshot::Percentile(double pct) const {
  if (count <= 0) return 0.0;
  pct = std::min(100.0, std::max(0.0, pct));
  // Target rank pct/100 * (n - 1), continuous in pct. With buckets
  // instead of retained samples, the rank is then placed linearly within
  // its bucket's [lower, upper] span.
  const double rank = pct / 100.0 * static_cast<double>(count - 1);
  // count may transiently exceed sum(buckets) under concurrent Record
  // (Snapshot loads are not one atomic cut), so the walk clamps into the
  // last non-empty bucket rather than falling off the end.
  size_t last = buckets.size();
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] > 0) last = i;
  }
  if (last == buckets.size()) return 0.0;  // racy empty snapshot
  int64_t cum = 0;
  for (size_t i = 0; i <= last; ++i) {
    const int64_t c = buckets[i];
    if (c == 0) continue;
    // Bucket i holds ranks [cum, cum + c - 1].
    if (rank <= static_cast<double>(cum + c - 1) || i == last) {
      const double lower =
          i == 0 ? 0.0 : static_cast<double>(bounds[i - 1]);
      if (i == bounds.size()) return lower;  // overflow: no upper bound
      const double upper = static_cast<double>(bounds[i]);
      // Fraction through this bucket's ranks; c == 1 pins the midpoint.
      const double frac =
          c == 1 ? 0.5
                 : (rank - static_cast<double>(cum)) /
                       static_cast<double>(c - 1);
      return lower + std::min(1.0, std::max(0.0, frac)) * (upper - lower);
    }
    cum += c;
  }
  return 0.0;  // unreachable: i == last returns above
}

HistogramSnapshot SumSnapshots(const std::vector<HistogramSnapshot>& parts) {
  if (parts.empty()) return HistogramSnapshot{};
  HistogramSnapshot total = parts.front();
  for (size_t p = 1; p < parts.size(); ++p) {
    assert(parts[p].bounds == total.bounds && "one bucket layout");
    for (size_t i = 0; i < total.buckets.size(); ++i) {
      total.buckets[i] += parts[p].buckets[i];
    }
    total.count += parts[p].count;
    total.sum += parts[p].sum;
  }
  return total;
}

int64_t MetricsSnapshot::CounterValue(const std::string& name,
                                      int64_t fallback) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return fallback;
}

int64_t MetricsSnapshot::GaugeValue(const std::string& name,
                                    int64_t fallback) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return fallback;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  wazi::MutexLock lock(&mu_);
  if (gauges_.count(name) != 0 || histograms_.count(name) != 0) {
    orphan_counters_.push_back(std::make_unique<Counter>());
    return orphan_counters_.back().get();
  }
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  wazi::MutexLock lock(&mu_);
  if (counters_.count(name) != 0 || histograms_.count(name) != 0) {
    orphan_gauges_.push_back(std::make_unique<Gauge>());
    return orphan_gauges_.back().get();
  }
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<int64_t> bounds) {
  wazi::MutexLock lock(&mu_);
  if (counters_.count(name) != 0 || gauges_.count(name) != 0) {
    orphan_histograms_.push_back(
        std::make_unique<Histogram>(std::move(bounds)));
    return orphan_histograms_.back().get();
  }
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(std::move(bounds));
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  wazi::MutexLock lock(&mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.emplace_back(name, h->Snapshot());
  }
  return snap;
}

}  // namespace wazi::obs
