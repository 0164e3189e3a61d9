// MetricsRegistry: handle stability, counter/gauge/histogram semantics,
// percentile interpolation, the load drivers' fine layout and snapshot
// sum, and registry consistency under many concurrent writers + a snapshot
// poller (the TSan target: no torn reads, counters never go backwards,
// histogram invariants hold in every snapshot).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace wazi::obs {
namespace {

TEST(MetricsRegistryTest, GetOrCreateReturnsStableHandles) {
  MetricsRegistry reg;
  Counter* c1 = reg.GetCounter("requests_total");
  Counter* c2 = reg.GetCounter("requests_total");
  EXPECT_EQ(c1, c2);
  Gauge* g1 = reg.GetGauge("queue_depth");
  EXPECT_EQ(g1, reg.GetGauge("queue_depth"));
  Histogram* h1 = reg.GetHistogram("latency_ns");
  EXPECT_EQ(h1, reg.GetHistogram("latency_ns"));
  // Distinct names are distinct metrics.
  EXPECT_NE(c1, reg.GetCounter("other_total"));
}

TEST(MetricsRegistryTest, CountersAndGaugesAccumulate) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("n_total");
  c->Add();
  c->Add(41);
  EXPECT_EQ(c->value(), 42);
  Gauge* g = reg.GetGauge("depth");
  g->Set(7);
  g->Add(-3);
  EXPECT_EQ(g->value(), 4);
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("n_total"), 42);
  EXPECT_EQ(snap.GaugeValue("depth"), 4);
  EXPECT_EQ(snap.CounterValue("absent", -1), -1);
}

TEST(MetricsRegistryTest, KindMismatchReturnsPrivateFallbackHandle) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("name");
  // Registering the same name as a different kind is a programming error;
  // the call must still return a USABLE handle, and the real metric must
  // be unaffected.
  Gauge* g = reg.GetGauge("name");
  ASSERT_NE(g, nullptr);
  g->Set(99);
  c->Add(1);
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("name"), 1);
  // The orphan gauge is never exported under the clashing name.
  EXPECT_EQ(snap.GaugeValue("name", -1), -1);
}

TEST(MetricsRegistryTest, SnapshotIsNameSorted) {
  MetricsRegistry reg;
  reg.GetCounter("zebra_total");
  reg.GetCounter("alpha_total");
  reg.GetCounter("mid_total");
  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].first, "alpha_total");
  EXPECT_EQ(snap.counters[1].first, "mid_total");
  EXPECT_EQ(snap.counters[2].first, "zebra_total");
}

TEST(HistogramTest, EmptyHistogramIsZero) {
  Histogram h({});
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.Snapshot().mean(), 0.0);
}

TEST(HistogramTest, CountSumAndBucketPlacement) {
  Histogram h({10, 100, 1000});
  h.Record(5);     // bucket 0: (inf, 10]
  h.Record(10);    // bucket 0 (bounds are inclusive upper)
  h.Record(11);    // bucket 1
  h.Record(5000);  // overflow bucket
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 4);
  EXPECT_EQ(snap.sum, 5 + 10 + 11 + 5000);
  ASSERT_EQ(snap.buckets.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(snap.buckets[0], 2);
  EXPECT_EQ(snap.buckets[1], 1);
  EXPECT_EQ(snap.buckets[2], 0);
  EXPECT_EQ(snap.buckets[3], 1);
}

TEST(HistogramTest, PercentileInterpolatesWithinBucket) {
  // 10 samples all in the single [0, 10] bucket: the rank pct/100 * (n-1)
  // interpolates across the bucket span, so the median of a full bucket
  // sits at its middle.
  Histogram h({10});
  for (int i = 0; i < 10; ++i) h.Record(i);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 10.0);
  EXPECT_NEAR(h.Percentile(50), 5.0, 1e-9);
}

TEST(HistogramTest, PercentileIsMonotoneAndBoundedByBuckets) {
  Histogram h(Histogram::DefaultLatencyBoundsNs());
  // A latency-shaped spread: mostly fast, a slow tail.
  for (int i = 0; i < 900; ++i) h.Record(500 + i);
  for (int i = 0; i < 100; ++i) h.Record(1000000 + i * 1000);
  double prev = -1.0;
  for (double pct : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    const double v = h.Percentile(pct);
    EXPECT_GE(v, prev) << "pct " << pct;
    prev = v;
  }
  // p50 must land in the fast cluster's bucket range, p99.9 near the tail.
  EXPECT_LT(h.Percentile(50), 4096.0);
  EXPECT_GT(h.Percentile(99), 100000.0);
}

TEST(HistogramTest, MedianOfExactBucketBoundsIsTheSampleMedian) {
  // When every sample IS a bucket bound, the bucketed interpolation sees
  // the same order statistics as the samples themselves: rank(50) = 1.5
  // lies between 200 and 300, and the histogram interpolates within
  // bucket [200, 300] to that midpoint.
  Histogram h({100, 200, 300, 400});
  for (int64_t v : {100, 200, 300, 400}) h.Record(v);
  EXPECT_NEAR(h.Percentile(50), 250.0, 1.0);
}

TEST(HistogramTest, FineLatencyBoundsAreLogLinear) {
  const std::vector<int64_t> b = Histogram::FineLatencyBoundsNs();
  ASSERT_EQ(b.size(), 1441u);
  EXPECT_EQ(b.front(), 1);
  EXPECT_LT(b.back(), int64_t{1} << 36);
  for (size_t i = 1; i < b.size(); ++i) {
    ASSERT_EQ(b[i] - b[i - 1], std::max<int64_t>(1, b[i - 1] / 64));
  }
}

TEST(HistogramTest, SumOfSnapshotsEqualsOneHistogramFedBothStreams) {
  // Two per-thread histograms, summed after the fact, must report exactly
  // what one histogram recording both streams would.
  Histogram a(Histogram::FineLatencyBoundsNs());
  Histogram b(Histogram::FineLatencyBoundsNs());
  Histogram both(Histogram::FineLatencyBoundsNs());
  for (int64_t i = 0; i < 5000; ++i) {
    const int64_t fast = 300 + (i * 7919) % 2000;
    const int64_t slow = 40000 + (i * 104729) % 900000;
    a.Record(fast);
    b.Record(slow);
    both.Record(fast);
    both.Record(slow);
  }
  const HistogramSnapshot sum = SumSnapshots({a.Snapshot(), b.Snapshot()});
  const HistogramSnapshot want = both.Snapshot();
  EXPECT_EQ(sum.bounds, want.bounds);
  EXPECT_EQ(sum.buckets, want.buckets);
  EXPECT_EQ(sum.count, want.count);
  EXPECT_EQ(sum.sum, want.sum);
  for (double pct : {0.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(sum.Percentile(pct), want.Percentile(pct)) << pct;
  }
  EXPECT_EQ(SumSnapshots({}).count, 0);
  EXPECT_DOUBLE_EQ(SumSnapshots({}).Percentile(50), 0.0);
}

TEST(HistogramTest, OverflowBucketReportsItsLowerBound) {
  Histogram h({10});
  h.Record(100000);
  // The overflow bucket has no upper bound; the percentile degrades to
  // its lower bound rather than inventing a value.
  EXPECT_DOUBLE_EQ(h.Percentile(99), 10.0);
}

// The TSan target: concurrent writers on all three metric kinds plus a
// poller asserting per-snapshot invariants. Run with the sharded test
// suites in the tsan-serve CI job.
TEST(MetricsRegistryConcurrencyTest, WritersAndSnapshotPoller) {
  MetricsRegistry reg;
  Counter* ctr = reg.GetCounter("ops_total");
  Gauge* gauge = reg.GetGauge("inflight");
  Histogram* hist = reg.GetHistogram("lat_ns", {64, 256, 1024, 4096});
  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 20000;
  std::atomic<bool> stop{false};

  std::thread poller([&] {
    int64_t last_count = 0;
    int64_t last_ops = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const MetricsSnapshot snap = reg.Snapshot();
      // Counters are monotone across snapshots.
      const int64_t ops = snap.CounterValue("ops_total");
      ASSERT_GE(ops, last_ops);
      last_ops = ops;
      // Histogram: count never regresses, never exceeds the writers'
      // total, and the snapshot's count covers its buckets.
      const auto& h = snap.histograms;
      ASSERT_EQ(h.size(), 1u);
      const HistogramSnapshot& hs = h[0].second;
      ASSERT_GE(hs.count, last_count);
      last_count = hs.count;
      ASSERT_LE(hs.count,
                static_cast<int64_t>(kWriters) * kOpsPerWriter);
      int64_t bucket_total = 0;
      for (int64_t b : hs.buckets) {
        ASSERT_GE(b, 0);
        bucket_total += b;
      }
      ASSERT_GE(hs.count, bucket_total);
      ASSERT_EQ(hs.buckets.size(), hs.bounds.size() + 1);
      // Percentiles stay finite and ordered even on racing snapshots.
      const double p50 = hs.Percentile(50);
      const double p99 = hs.Percentile(99);
      ASSERT_LE(p50, p99 + 1e-9);
      ASSERT_GE(p50, 0.0);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        ctr->Add(1);
        gauge->Add(i % 2 == 0 ? 1 : -1);
        hist->Record((w * 37 + i * 13) % 8192);
        if (i % 1024 == 0) {
          // Late registration under load: get-or-create must hand back
          // the same handles without disturbing the poller.
          ASSERT_EQ(reg.GetCounter("ops_total"), ctr);
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  poller.join();

  const MetricsSnapshot final_snap = reg.Snapshot();
  EXPECT_EQ(final_snap.CounterValue("ops_total"),
            static_cast<int64_t>(kWriters) * kOpsPerWriter);
  EXPECT_EQ(final_snap.GaugeValue("inflight"), 0);
  const HistogramSnapshot hs = final_snap.histograms[0].second;
  EXPECT_EQ(hs.count, static_cast<int64_t>(kWriters) * kOpsPerWriter);
  int64_t total = 0;
  for (int64_t b : hs.buckets) total += b;
  EXPECT_EQ(total, hs.count);
}

}  // namespace
}  // namespace wazi::obs
