// Unified metrics registry for the serving stack.
//
// The serve layer grew five disconnected stats surfaces (QueryStats
// out-params, AdmissionStats, ResultCacheStats, MigrationStats, raw
// std::atomic<int64_t>* stall counters). This registry unifies them behind
// one naming scheme without slowing the hot paths down:
//
//   * Registration returns a STABLE HANDLE (Counter* / Gauge* /
//     Histogram*). Components register once at construction and hot paths
//     touch exactly one cache-line-padded atomic per event — never a map,
//     never a registry lock.
//   * Counters are monotone (Add >= 0 by contract); gauges move both ways;
//     histograms record int64 samples into atomic log-spaced buckets and
//     extract percentiles by linear interpolation (continuous in pct):
//     the target rank is interpolated WITHIN its bucket's bounds, since
//     individual samples are not retained.
//   * Snapshot() copies every metric under the registry mutex into plain
//     structs for the exporters (obs/exporters.h); relaxed loads are fine
//     because every metric is independently monotone/atomic — a snapshot
//     is a consistent-enough cut for dashboards, not a linearizable one.
//
// Thread-safety: GetCounter/GetGauge/GetHistogram and Snapshot from any
// thread (mutex-serialized); handle operations (Add/Set/Record/value) are
// lock-free from any thread.

#ifndef WAZI_OBS_METRICS_H_
#define WAZI_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

namespace wazi::obs {

// Monotone counter: one padded atomic, so adjacent registry entries never
// false-share a cache line with a hot counter.
struct alignas(64) Counter {
  std::atomic<int64_t> v{0};

  // relaxed: a pure statistic — no data is published through the counter,
  // so only atomicity matters, not ordering.
  void Add(int64_t delta = 1) { v.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return v.load(std::memory_order_relaxed); }
};

// Point-in-time value (queue depths, limbo sizes, epochs). Same storage
// shape as Counter; the split type keeps exporters honest about which
// metrics are monotone.
struct alignas(64) Gauge {
  std::atomic<int64_t> v{0};

  // relaxed: same as Counter — the value is the whole payload.
  void Set(int64_t value) { v.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { v.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return v.load(std::memory_order_relaxed); }
};

// Plain-struct copy of a histogram for exporters and tests.
struct HistogramSnapshot {
  // bounds[i] is the inclusive upper bound of bucket i; buckets.size() ==
  // bounds.size() + 1 (the last bucket is the +inf overflow).
  std::vector<int64_t> bounds;
  std::vector<int64_t> buckets;
  int64_t count = 0;
  int64_t sum = 0;

  // pct in [0, 100]: the target rank is pct/100 * (count - 1), linearly
  // interpolated within the containing bucket's [lower, upper] span since
  // individual samples are not retained. 0 with no samples; the overflow
  // bucket reports its lower bound (it has no upper).
  double Percentile(double pct) const;
  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

// Bounded histogram: fixed bucket layout chosen at registration, atomic
// per-bucket counts. Record() is wait-free (binary search over immutable
// bounds + one fetch_add each on the bucket, count and sum).
class Histogram {
 public:
  // `bounds` must be strictly increasing inclusive upper bounds; an
  // overflow bucket is appended implicitly. Empty bounds fall back to the
  // default latency layout (see DefaultLatencyBoundsNs).
  explicit Histogram(std::vector<int64_t> bounds);

  void Record(int64_t value);
  // relaxed: statistics only (see Record's rationale in metrics.cc).
  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  double Percentile(double pct) const { return Snapshot().Percentile(pct); }
  HistogramSnapshot Snapshot() const;

  // Log-spaced nanosecond bounds covering 256 ns .. ~8.8 s (doubling per
  // bucket): wide enough for query latencies from a cache hit to a
  // stalled migration, 26 buckets miss no order of magnitude.
  static std::vector<int64_t> DefaultLatencyBoundsNs();
  // Log-linear nanosecond bounds for load drivers that report latency
  // percentiles: each bound is the previous plus max(1, v/64), 1 ns ..
  // 2^36 ns (~69 s) in 1,441 buckets, so a percentile lands within ~1.6%
  // of the sample it stands for. Fixed memory however many ops a run
  // records.
  static std::vector<int64_t> FineLatencyBoundsNs();

 private:
  std::vector<int64_t> bounds_;  // immutable after construction
  std::unique_ptr<std::atomic<int64_t>[]> buckets_;
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
};

// Sum of histogram snapshots that share one bucket layout (e.g. one per
// load-driver thread, summed after the join): buckets, count and sum add
// up. Empty input gives an empty snapshot.
HistogramSnapshot SumSnapshots(const std::vector<HistogramSnapshot>& parts);

// Everything Snapshot() carries, name-sorted (std::map iteration order) so
// exporter output is deterministic.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  // Convenience for tests/bench: value of a named counter/gauge, or
  // `fallback` when absent.
  int64_t CounterValue(const std::string& name, int64_t fallback = 0) const;
  int64_t GaugeValue(const std::string& name, int64_t fallback = 0) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Get-or-create by name; the same name always returns the same handle,
  // valid for the registry's lifetime (metrics are never unregistered).
  // Names follow Prometheus conventions: [a-z0-9_], `_total` suffix on
  // counters. Registering a name as two different kinds is a programming
  // error; the first kind wins and the mismatched call returns a handle
  // of a PRIVATE metric of the requested kind (never published) so the
  // caller cannot crash — tests assert the catalog has no such clashes.
  Counter* GetCounter(const std::string& name) EXCLUDES(mu_);
  Gauge* GetGauge(const std::string& name) EXCLUDES(mu_);
  // `bounds` applies only on first registration (empty = default latency
  // layout); later calls with any bounds return the existing handle.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<int64_t> bounds = {}) EXCLUDES(mu_);

  MetricsSnapshot Snapshot() const EXCLUDES(mu_);

 private:
  mutable wazi::Mutex mu_;
  // unique_ptr values: node-stable AND heap-stable, so handles survive any
  // rebalancing; std::map for deterministic (sorted) export order. The
  // maps are guarded; the handles they hand out are lock-free atomics.
  std::map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      GUARDED_BY(mu_);
  // Kind-mismatch fallbacks (see GetCounter contract); never exported.
  std::vector<std::unique_ptr<Counter>> orphan_counters_ GUARDED_BY(mu_);
  std::vector<std::unique_ptr<Gauge>> orphan_gauges_ GUARDED_BY(mu_);
  std::vector<std::unique_ptr<Histogram>> orphan_histograms_ GUARDED_BY(mu_);
};

}  // namespace wazi::obs

#endif  // WAZI_OBS_METRICS_H_
