// Serve-stack observability integration: the registry and journal wired
// through ServeLoop must tell the SAME story as the legacy *_stats()
// views, and a forced repartition — full re-cut or per-cell — must leave
// a complete, ordered plan -> capture -> catch_up -> cutover -> retire
// trail in the journal.

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <string>
#include <vector>

#include "core/wazi.h"
#include "obs/exporters.h"
#include "obs/metrics.h"
#include "obs/trace_journal.h"
#include "serve/serve_loop.h"
#include "tests/test_util.h"

namespace wazi::serve {
namespace {

IndexFactory WaziFactory() {
  return [] { return std::unique_ptr<SpatialIndex>(new Wazi()); };
}

BuildOptions FastOpts() {
  BuildOptions opts;
  opts.leaf_capacity = 64;
  return opts;
}

std::vector<obs::TraceEvent> EventsOfKind(const obs::TraceJournal& journal,
                                          obs::TraceEventKind kind) {
  std::vector<obs::TraceEvent> out;
  for (const obs::TraceEvent& e : journal.Tail(journal.capacity())) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

// The two plan shapes every migration takes through the one pipeline: a
// shard-count change re-cuts every cell (nothing carried), and a skewed
// same-count stripe tiling re-cuts only the overloaded stripe's
// neighbourhood (the rest carried).
enum class PlanShape { kCountChange, kPerCell };

class ObsMigrationTest : public ::testing::TestWithParam<PlanShape> {};

TEST_P(ObsMigrationTest, ForcedRepartitionEmitsFullMigrationSequence) {
  const bool per_cell = GetParam() == PlanShape::kPerCell;
  TestScenario s = per_cell
                       ? MakeScenario(Region::kCaliNev, 5000, 120, 2e-3, 306)
                       : MakeScenario(Region::kNewYork, 3000, 60, 2e-3, 401);
  s.data = DedupeCoords(s.data);

  ServeOptions opts;
  opts.num_shards = per_cell ? 5 : 2;  // 5: 1x5 rank-space stripes
  opts.num_threads = 1;
  opts.auto_rebuild = false;
  ServeLoop loop(WaziFactory(), s.data, s.workload, FastOpts(), opts);

  size_t total_points = s.data.points.size();
  if (per_cell) {
    // Overload stripe 0 inside its own cell: only cuts near it move.
    const Rect cell0 =
        loop.sharded_index().AcquireTopology()->router.ClampedCellRect(0);
    Rng rng(7777);
    for (int i = 0; i < 1000; ++i) {
      Point p;
      p.x = cell0.min_x + rng.NextDouble() * (cell0.max_x - cell0.min_x);
      p.y = cell0.min_y + rng.NextDouble() * (cell0.max_y - cell0.min_y);
      p.id = 70000000 + i;
      loop.SubmitInsert(p);
    }
    loop.Flush();
    total_points += 1000;
    ASSERT_TRUE(loop.TriggerRepartition());
  } else {
    ASSERT_TRUE(loop.TriggerRepartition(4));
  }

  // Collect the migration events in journal order and check the phase
  // machine ran end to end, in order, on one target epoch.
  using K = obs::TraceEventKind;
  std::vector<obs::TraceEvent> mig;
  for (const obs::TraceEvent& e : loop.journal().Tail(4096)) {
    switch (e.kind) {
      case K::kMigrationPlan:
      case K::kMigrationCapture:
      case K::kMigrationCatchUp:
      case K::kMigrationCutover:
      case K::kMigrationRetire:
        mig.push_back(e);
        break;
      default:
        break;
    }
  }
  ASSERT_EQ(mig.size(), 5u);
  EXPECT_EQ(mig[0].kind, K::kMigrationPlan);
  EXPECT_EQ(mig[1].kind, K::kMigrationCapture);
  EXPECT_EQ(mig[2].kind, K::kMigrationCatchUp);
  EXPECT_EQ(mig[3].kind, K::kMigrationCutover);
  EXPECT_EQ(mig[4].kind, K::kMigrationRetire);
  // All phases tag the TARGET epoch (the generation being built).
  for (const obs::TraceEvent& e : mig) {
    EXPECT_EQ(e.epoch, 2u) << obs::KindName(e.kind);
  }
  // Timestamps respect the phase order.
  for (size_t i = 1; i < mig.size(); ++i) {
    EXPECT_GE(mig[i].t_ns, mig[i - 1].t_ns);
  }
  const int64_t moved_points = mig[1].a;  // capture: points captured
  if (per_cell) {
    // Some cells rebuilt, the rest carried; only changed cells captured.
    EXPECT_GT(mig[0].a, 0);            // plan: shards to rebuild
    EXPECT_GT(mig[0].b, 0);            // plan: carried
    EXPECT_EQ(mig[0].a + mig[0].b, 5);
    EXPECT_EQ(mig[0].c, 1);            // plan: incremental (carried > 0)
    EXPECT_LT(moved_points, static_cast<int64_t>(total_points));
  } else {
    // A count change rebuilds every shard, carries none.
    EXPECT_EQ(mig[0].a, 4);  // plan: shards to rebuild
    EXPECT_EQ(mig[0].b, 0);  // plan: carried
    EXPECT_EQ(mig[0].c, 0);  // plan: not incremental
    EXPECT_EQ(moved_points, static_cast<int64_t>(total_points));
  }
  EXPECT_EQ(mig[4].a, mig[0].a);  // retire: rebuilt
  EXPECT_EQ(mig[4].b, mig[0].b);  // retire: carried
  EXPECT_EQ(mig[4].c, moved_points);

  // The registry agrees with the stats view and the journal.
  const obs::MetricsSnapshot snap = loop.metrics().Snapshot();
  EXPECT_EQ(snap.CounterValue("serve_migrations_total"), 1);
  EXPECT_EQ(snap.CounterValue("serve_migrations_incremental_total"),
            mig[0].c);
  EXPECT_EQ(snap.CounterValue("serve_moved_points_total"), moved_points);
  EXPECT_EQ(snap.GaugeValue("serve_last_moved_shards"), mig[0].a);
  EXPECT_EQ(snap.GaugeValue("serve_last_carried_shards"), mig[0].b);
  const MigrationStats stats = loop.migration_stats();
  EXPECT_EQ(stats.migrations, 1);
  EXPECT_EQ(stats.migrations, loop.repartitions());
  EXPECT_EQ(stats.incremental, mig[0].c);
  EXPECT_EQ(stats.total_moved_points,
            snap.CounterValue("serve_moved_points_total"));
}

INSTANTIATE_TEST_SUITE_P(
    PlanShapes, ObsMigrationTest,
    ::testing::Values(PlanShape::kCountChange, PlanShape::kPerCell),
    [](const ::testing::TestParamInfo<PlanShape>& info) {
      return info.param == PlanShape::kPerCell ? std::string("PerCell")
                                               : std::string("CountChange");
    });

TEST(ObsServeTest, StatsViewsMirrorRegistryCounters) {
  TestScenario s = MakeScenario(Region::kJapan, 2000, 40, 2e-3, 402);
  s.data = DedupeCoords(s.data);

  ServeOptions opts;
  opts.num_shards = 2;
  opts.num_threads = 2;
  opts.auto_rebuild = false;
  opts.cache.capacity_bytes = 1 << 20;
  ServeLoop loop(WaziFactory(), s.data, s.workload, FastOpts(), opts);

  for (size_t i = 0; i < s.workload.queries.size(); ++i) {
    loop.Range(s.workload.queries[i]);
    loop.Range(s.workload.queries[i]);  // second pass hits the cache
  }
  loop.PointLookup(s.data.points[0]);
  loop.Knn(s.data.points[1], 3);

  const obs::MetricsSnapshot snap = loop.metrics().Snapshot();
  const ResultCacheStats cache = loop.cache_stats();
  EXPECT_EQ(snap.CounterValue("serve_cache_hits_total"), cache.hits);
  EXPECT_EQ(snap.CounterValue("serve_cache_misses_total"), cache.misses);
  EXPECT_GT(cache.hits, 0);
  EXPECT_GE(snap.CounterValue("serve_point_queries_total"), 1);
  EXPECT_GE(snap.CounterValue("serve_knn_queries_total"), 1);
  EXPECT_GE(snap.CounterValue("serve_range_queries_total"),
            static_cast<int64_t>(s.workload.queries.size()));
  // Snapshot publishes happened at least once per shard during build.
  EXPECT_GE(snap.CounterValue("serve_snapshot_publishes_total"), 2);
  // And the whole snapshot exports cleanly.
  const std::string prom = obs::ToPrometheusText(snap);
  EXPECT_NE(prom.find("wazi_serve_cache_hits_total"), std::string::npos);
  const std::string json = obs::ToJson(snap);
  EXPECT_NE(json.find("\"serve_cache_hits_total\""), std::string::npos);
}

TEST(ObsServeTest, StallCopyCountersMatchStatsAndJournal) {
  TestScenario s = MakeScenario(Region::kNewYork, 3000, 60, 2e-3, 403);
  s.data = DedupeCoords(s.data);

  ServeOptions opts;
  opts.num_shards = 2;
  opts.num_threads = 1;
  opts.auto_rebuild = false;
  opts.writer_coalesce_ms = 0;
  opts.writer_batch_limit = 32;
  opts.writer_stall_ms = 50;
  ServeLoop loop(WaziFactory(), s.data, s.workload, FastOpts(), opts);

  // Park a snapshot of every shard so the next publishes must fall back
  // to copy-on-stall (the PR-5 defect regression, observed through the
  // registry this time).
  ShardedVersionedIndex::SnapshotSet pinned;
  loop.sharded_index().AcquireAll(&pinned);

  Rng rng(7654);
  for (int i = 0; i < 400; ++i) {
    Point p;
    p.x = rng.NextDouble();
    p.y = rng.NextDouble();
    p.id = 90000000 + i;
    loop.SubmitInsert(p);
  }
  loop.Flush();

  const obs::MetricsSnapshot snap = loop.metrics().Snapshot();
  const int64_t stalls = snap.CounterValue("serve_stall_copies_total");
  EXPECT_GE(stalls, 1);
  EXPECT_EQ(stalls, loop.migration_stats().stall_copies);
  // Each copy-on-stall parked at least one zombie and left a journal
  // record behind.
  EXPECT_GE(snap.GaugeValue("serve_zombie_instances"), 1);
  const auto stall_events =
      EventsOfKind(loop.journal(), obs::TraceEventKind::kStallCopy);
  EXPECT_EQ(static_cast<int64_t>(stall_events.size()), stalls);
  for (const obs::TraceEvent& e : stall_events) {
    EXPECT_GE(e.shard, 0);
    EXPECT_LT(e.shard, 2);
    EXPECT_GE(e.a, 1);  // zombies parked at the time of the copy
  }
}

TEST(ObsServeTest, QueryTracingSamplesSpansIntoJournalAndHistogram) {
  TestScenario s = MakeScenario(Region::kJapan, 2000, 40, 2e-3, 404);
  s.data = DedupeCoords(s.data);

  ServeOptions opts;
  opts.num_shards = 2;
  opts.num_threads = 2;
  opts.auto_rebuild = false;
  opts.obs.trace_sample_every = 1;  // trace every query
  ServeLoop loop(WaziFactory(), s.data, s.workload, FastOpts(), opts);

  for (const Rect& q : s.workload.queries) loop.Range(q);

  const obs::MetricsSnapshot snap = loop.metrics().Snapshot();
  int64_t latency_count = 0;
  for (const auto& [name, h] : snap.histograms) {
    if (name == "serve_query_latency_ns") latency_count = h.count;
  }
  EXPECT_GE(latency_count,
            static_cast<int64_t>(s.workload.queries.size()));

  const auto traces =
      EventsOfKind(loop.journal(), obs::TraceEventKind::kQueryTrace);
  ASSERT_GE(traces.size(), s.workload.queries.size());
  for (const obs::TraceEvent& e : traces) {
    EXPECT_GE(e.b, 0);          // execute span
    EXPECT_TRUE(e.c == 0 || e.c == 1);
    if (e.c == 0) {
      EXPECT_EQ(e.a, 0);  // direct path has no queue wait
    }
  }
}

TEST(ObsServeTest, SamplingDisabledLeavesNoQueryTraces) {
  TestScenario s = MakeScenario(Region::kJapan, 1500, 30, 2e-3, 405);
  s.data = DedupeCoords(s.data);

  ServeOptions opts;
  opts.num_shards = 1;
  opts.num_threads = 1;
  opts.auto_rebuild = false;
  // Default ObsOptions: trace_sample_every == 0 means never sample.
  ServeLoop loop(WaziFactory(), s.data, s.workload, FastOpts(), opts);

  for (const Rect& q : s.workload.queries) loop.Range(q);

  EXPECT_TRUE(
      EventsOfKind(loop.journal(), obs::TraceEventKind::kQueryTrace)
          .empty());
  for (const auto& [name, h] : loop.metrics().Snapshot().histograms) {
    if (name == "serve_query_latency_ns") {
      EXPECT_EQ(h.count, 0);
    }
  }
}

TEST(ObsServeTest, AdmissionDispatchesAreJournaledWithBatchSizes) {
  TestScenario s = MakeScenario(Region::kNewYork, 2000, 60, 2e-3, 406);
  s.data = DedupeCoords(s.data);

  ServeOptions opts;
  opts.num_shards = 2;
  opts.num_threads = 2;
  opts.auto_rebuild = false;
  opts.admission.window_us = 200;
  ServeLoop loop(WaziFactory(), s.data, s.workload, FastOpts(), opts);

  std::vector<std::future<QueryResult>> futures;
  futures.reserve(s.workload.queries.size());
  for (const Rect& q : s.workload.queries) {
    futures.push_back(loop.SubmitQuery(QueryRequest::Range(q)));
  }
  for (auto& f : futures) f.get();

  const AdmissionStats stats = loop.admission_stats();
  const obs::MetricsSnapshot snap = loop.metrics().Snapshot();
  EXPECT_EQ(snap.CounterValue("serve_admission_admitted_total"),
            stats.admitted);
  EXPECT_EQ(snap.CounterValue("serve_admission_dispatched_total"),
            stats.dispatched);
  EXPECT_EQ(snap.CounterValue("serve_admission_batches_total"),
            stats.batches);
  EXPECT_EQ(snap.GaugeValue("serve_admission_max_batch"), stats.max_batch);

  const auto dispatches =
      EventsOfKind(loop.journal(), obs::TraceEventKind::kAdmissionDispatch);
  EXPECT_GE(static_cast<int64_t>(dispatches.size()), 1);
  int64_t journaled_total = 0;
  for (const obs::TraceEvent& e : dispatches) {
    EXPECT_GE(e.a, 1);            // batch size
    EXPECT_LE(e.a, e.b);          // never exceeds the max batch seen
    journaled_total += e.a;
  }
  // With a journal far larger than the dispatch count, the journaled
  // batch sizes add up to the dispatched total exactly.
  EXPECT_EQ(journaled_total, stats.dispatched);
}

}  // namespace
}  // namespace wazi::serve
