// Dynamic shard re-partitioning: live router swap + cross-generation data
// migration.
//
//   * RepartitionMonitor decision logic in isolation (imbalance reduction,
//     patience, cooldown).
//   * Forced migrations preserve the exact point membership — including
//     updates submitted before, during and after the cutover — and
//     actually rebalance a skewed topology.
//   * Epoch pinning: a SnapshotSet acquired before the swap keeps serving
//     the old generation's frozen state; fresh queries see the new epoch.
//   * The acceptance bar: sharded results equal unsharded results across a
//     forced repartition under concurrent writers (run under TSan in CI).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/wazi.h"
#include "serve/repartition.h"
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

TEST(RepartitionMonitorTest, ImbalanceIsMaxOverMeanOfNormalizedLoads) {
  RepartitionOptions opts;
  opts.min_queries = 0;
  // Balanced on every component: ratio 1.
  EXPECT_DOUBLE_EQ(
      CombinedImbalance({{100, 50, 4}, {100, 50, 4}}, opts), 1.0);
  // One shard holds everything: ratio = shard count.
  EXPECT_DOUBLE_EQ(
      CombinedImbalance({{400, 0, 0}, {0, 0, 0}, {0, 0, 0}, {0, 0, 0}},
                        opts),
      4.0);
  // Fewer than two shards can never be imbalanced.
  EXPECT_DOUBLE_EQ(CombinedImbalance({{1000, 9000, 50}}, opts), 1.0);
  EXPECT_DOUBLE_EQ(CombinedImbalance({}, opts), 1.0);
  // Items balanced but all query traffic stabs one shard: the combined
  // ratio sits between balanced (1.0) and fully skewed (N), weighted.
  const double mixed =
      CombinedImbalance({{100, 300, 0}, {100, 0, 0}, {100, 0, 0}}, opts);
  EXPECT_GT(mixed, 1.0);
  EXPECT_LT(mixed, 3.0);
  // Below min_queries the stab component is ignored as noise.
  opts.min_queries = 1000;
  EXPECT_DOUBLE_EQ(
      CombinedImbalance({{100, 300, 0}, {100, 0, 0}, {100, 0, 0}}, opts),
      1.0);
}

TEST(RepartitionMonitorTest, PatienceAndCooldownGateTheTrigger) {
  RepartitionOptions opts;
  opts.max_imbalance = 1.5;
  opts.patience = 3;
  opts.min_queries = 0;
  opts.min_interval_ms = 1000;
  RepartitionMonitor monitor(opts);
  const std::vector<ShardLoad> skewed = {{900, 0, 0}, {100, 0, 0}};
  const std::vector<ShardLoad> balanced = {{500, 0, 0}, {500, 0, 0}};
  auto t = std::chrono::steady_clock::now();

  // Needs `patience` consecutive over-threshold samples.
  EXPECT_FALSE(monitor.Observe(skewed, t));
  EXPECT_FALSE(monitor.Observe(skewed, t));
  EXPECT_TRUE(monitor.Observe(skewed, t));
  EXPECT_GT(monitor.imbalance(), 1.5);

  // A balanced sample resets the streak.
  EXPECT_FALSE(monitor.Observe(skewed, t));
  EXPECT_FALSE(monitor.Observe(balanced, t));
  EXPECT_FALSE(monitor.Observe(skewed, t));
  EXPECT_FALSE(monitor.Observe(skewed, t));
  EXPECT_TRUE(monitor.Observe(skewed, t));

  // Cooldown: right after a repartition the trigger is suppressed even at
  // full patience, until min_interval elapses.
  monitor.ResetAfterRepartition(t);
  EXPECT_FALSE(monitor.Observe(skewed, t));
  EXPECT_FALSE(monitor.Observe(skewed, t));
  EXPECT_FALSE(monitor.Observe(skewed, t));
  EXPECT_FALSE(monitor.Observe(skewed, t + std::chrono::milliseconds(500)));
  EXPECT_TRUE(monitor.Observe(skewed, t + std::chrono::milliseconds(1500)));
}

TEST(RepartitionMonitorTest, AutoGrowNeedsEveryWriterHotForResizePatience) {
  RepartitionOptions opts;
  opts.auto_shard_count = true;
  opts.grow_queue_depth = 10;
  opts.resize_patience = 3;
  opts.min_interval_ms = 0;
  opts.max_imbalance = 100.0;  // isolate the resize trigger
  opts.max_shards = 8;
  RepartitionMonitor monitor(opts);
  const std::vector<ShardLoad> all_hot = {{100, 0, 20}, {100, 0, 30}};
  const std::vector<ShardLoad> one_hot = {{100, 0, 20}, {100, 0, 0}};
  auto t = std::chrono::steady_clock::now();

  // One cold writer is not a grow signal — per-shard imbalance is the
  // re-cut trigger's job, not a resize.
  for (int i = 0; i < 6; ++i) EXPECT_FALSE(monitor.Observe(one_hot, t));
  EXPECT_EQ(monitor.recommended_shards(), 0);

  // All writers hot must PERSIST for resize_patience rounds...
  EXPECT_FALSE(monitor.Observe(all_hot, t));
  EXPECT_FALSE(monitor.Observe(all_hot, t));
  // ...and a cold round in between resets the streak (hysteresis).
  EXPECT_FALSE(monitor.Observe(one_hot, t));
  EXPECT_FALSE(monitor.Observe(all_hot, t));
  EXPECT_FALSE(monitor.Observe(all_hot, t));
  EXPECT_TRUE(monitor.Observe(all_hot, t));
  EXPECT_EQ(monitor.recommended_shards(), 4);  // doubled

  // Consumed: the next round starts a fresh streak.
  EXPECT_FALSE(monitor.Observe(all_hot, t));
  EXPECT_EQ(monitor.recommended_shards(), 0);
}

TEST(RepartitionMonitorTest, AutoGrowClampsToMaxShards) {
  RepartitionOptions opts;
  opts.auto_shard_count = true;
  opts.grow_queue_depth = 10;
  opts.resize_patience = 1;
  opts.min_interval_ms = 0;
  opts.max_imbalance = 100.0;
  opts.max_shards = 3;
  RepartitionMonitor monitor(opts);
  auto t = std::chrono::steady_clock::now();
  const std::vector<ShardLoad> hot2 = {{100, 0, 50}, {100, 0, 50}};
  EXPECT_TRUE(monitor.Observe(hot2, t));
  EXPECT_EQ(monitor.recommended_shards(), 3);  // 2 * 2 clamped to 3
  // At the cap, all-hot queues can no longer recommend growth.
  const std::vector<ShardLoad> hot3 = {{100, 0, 50},
                                       {100, 0, 50},
                                       {100, 0, 50}};
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(monitor.Observe(hot3, t));
}

TEST(RepartitionMonitorTest, AutoShrinkOnIdleShardsRespectsFloorsAndCooldown) {
  RepartitionOptions opts;
  opts.auto_shard_count = true;
  opts.resize_patience = 2;
  opts.min_interval_ms = 1000;
  opts.max_imbalance = 100.0;
  opts.shrink_items_per_shard = 1000;
  opts.shrink_stabs_per_shard = 10;
  opts.min_shards = 2;
  RepartitionMonitor monitor(opts);
  auto t = std::chrono::steady_clock::now();
  const std::vector<ShardLoad> idle4 = {
      {50, 0, 0}, {50, 1, 0}, {50, 0, 0}, {50, 0, 0}};
  const std::vector<ShardLoad> busy4 = {
      {5000, 0, 0}, {5000, 0, 0}, {5000, 0, 0}, {5000, 0, 0}};

  // Mean items above the floor never shrinks, no matter how sustained.
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(monitor.Observe(busy4, t));

  EXPECT_FALSE(monitor.Observe(idle4, t));
  EXPECT_TRUE(monitor.Observe(idle4, t));
  EXPECT_EQ(monitor.recommended_shards(), 2);  // halved

  // Cooldown after a migration suppresses the next matured streak.
  monitor.ResetAfterRepartition(t);
  EXPECT_FALSE(monitor.Observe(idle4, t));
  EXPECT_FALSE(monitor.Observe(idle4, t));
  EXPECT_FALSE(monitor.Observe(idle4, t + std::chrono::milliseconds(500)));
  EXPECT_TRUE(monitor.Observe(idle4, t + std::chrono::milliseconds(1500)));
  EXPECT_EQ(monitor.recommended_shards(), 2);

  // min_shards floors the shrink: a 2-shard idle topology stays put.
  monitor.ResetAfterRepartition(t);
  const std::vector<ShardLoad> idle2 = {{50, 0, 0}, {50, 0, 0}};
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(
        monitor.Observe(idle2, t + std::chrono::milliseconds(5000)));
  }
}

TEST(RepartitionPlanTest, PlanMarksOnlyCellsAdjacentToMovedCuts) {
  RepartitionOptions opts;
  opts.incremental_cell_tolerance = 0.3;
  opts.incremental_row_tolerance = 0.5;
  opts.incremental_max_changed_fraction = 0.65;
  opts.min_queries = 0;

  // 1x5 stripes, one overloaded stripe: only the cut left of stripe 0
  // moves, so stripes {0, 1} change and {2, 3, 4} are carried.
  {
    const std::vector<ShardLoad> loads = {
        {2000, 0, 0}, {1000, 0, 0}, {1000, 0, 0}, {1000, 0, 0},
        {1000, 0, 0}};
    const IncrementalPlan plan = PlanIncrementalRecut(1, 5, loads, opts);
    ASSERT_TRUE(plan.feasible);
    EXPECT_EQ(plan.changed,
              (std::vector<bool>{true, true, false, false, false}));
    EXPECT_EQ(plan.x_cut_moves[0],
              (std::vector<bool>{true, false, false, false}));
    EXPECT_EQ(plan.num_changed(), 2);
  }
  // A balanced tiling plans nothing (the caller falls back / skips).
  {
    const std::vector<ShardLoad> loads(5, ShardLoad{1000, 0, 0});
    EXPECT_FALSE(PlanIncrementalRecut(1, 5, loads, opts).feasible);
  }
  // A hot middle stripe moves both its cuts: three cells change.
  {
    const std::vector<ShardLoad> loads = {
        {1000, 0, 0}, {1000, 0, 0}, {2500, 0, 0}, {1000, 0, 0},
        {1000, 0, 0}};
    const IncrementalPlan plan = PlanIncrementalRecut(1, 5, loads, opts);
    ASSERT_TRUE(plan.feasible);
    EXPECT_EQ(plan.changed,
              (std::vector<bool>{false, true, true, true, false}));
  }
  // A 2x2 grid with a row-level imbalance moves the y-cut: both rows
  // change wholesale — nothing to carry, so the plan is infeasible.
  {
    const std::vector<ShardLoad> loads = {
        {4000, 0, 0}, {4000, 0, 0}, {500, 0, 0}, {500, 0, 0}};
    EXPECT_FALSE(PlanIncrementalRecut(2, 2, loads, opts).feasible);
  }
  // Stab-only skew (items balanced) also dirties cells once trusted.
  {
    const std::vector<ShardLoad> loads = {
        {1000, 400, 0}, {1000, 150, 0}, {1000, 150, 0}, {1000, 150, 0},
        {1000, 150, 0}};
    const IncrementalPlan plan = PlanIncrementalRecut(1, 5, loads, opts);
    ASSERT_TRUE(plan.feasible);
    EXPECT_TRUE(plan.changed[0]);
    EXPECT_FALSE(plan.changed[4]);
  }
  // Grid mismatch is never feasible.
  {
    const std::vector<ShardLoad> loads(4, ShardLoad{1000, 0, 0});
    EXPECT_FALSE(PlanIncrementalRecut(1, 5, loads, opts).feasible);
  }
}

TEST(RepartitionTest, ForcedRepartitionPreservesMembershipAndRebalances) {
  TestScenario s = MakeScenario(Region::kCaliNev, 6000, 150, 2e-3, 301);
  s.data = DedupeCoords(s.data);

  ServeOptions opts;
  opts.num_shards = 4;
  opts.num_threads = 1;
  opts.auto_rebuild = false;
  opts.writer_coalesce_ms = 0;
  ServeLoop loop(WaziFactory(), s.data, s.workload, FastOpts(), opts);
  EXPECT_EQ(loop.epoch(), 1u);
  EXPECT_EQ(loop.repartitions(), 0);

  // Skew the data: a dense blob of fresh inserts inside one corner cell,
  // plus removals spread over the original points.
  std::vector<Point> expected = s.data.points;
  const Rect corner = Rect::Of(0.0, 0.0, 0.12, 0.12);
  Rng rng(8888);
  for (int i = 0; i < 3000; ++i) {
    Point p;
    p.x = corner.min_x + rng.NextDouble() * (corner.max_x - corner.min_x);
    p.y = corner.min_y + rng.NextDouble() * (corner.max_y - corner.min_y);
    p.id = 30000000 + i;
    loop.SubmitInsert(p);
    expected.push_back(p);
  }
  for (int i = 0; i < 500; ++i) {
    const Point& victim = s.data.points[static_cast<size_t>(i) * 7 %
                                        s.data.points.size()];
    loop.SubmitRemove(victim);
    expected.erase(std::remove_if(expected.begin(), expected.end(),
                                  [&](const Point& p) {
                                    return p.id == victim.id;
                                  }),
                   expected.end());
  }
  loop.Flush();
  const uint64_t version_before = loop.version();

  ASSERT_TRUE(loop.TriggerRepartition());
  EXPECT_EQ(loop.epoch(), 2u);
  EXPECT_EQ(loop.repartitions(), 1);
  EXPECT_EQ(loop.num_shards(), 4);
  // The facade version stays monotone across the generation swap.
  EXPECT_GT(loop.version(), version_before);

  // Exact membership across the migration: the full domain and every
  // workload query agree with the tracked expectation.
  loop.Flush();
  EXPECT_EQ(loop.sharded_index().num_points(), expected.size());
  const QueryResult all = loop.Range(s.data.bounds);
  EXPECT_EQ(SortedIds(all.hits), BruteIds(expected, s.data.bounds));
  EXPECT_EQ(all.epoch, 2u);
  for (size_t i = 0; i < s.workload.queries.size(); i += 5) {
    const Rect& q = s.workload.queries[i];
    EXPECT_EQ(SortedIds(loop.Range(q).hits), BruteIds(expected, q))
        << "query " << i;
  }
  // Point routing agrees with the new router.
  for (size_t i = 0; i < expected.size(); i += 97) {
    EXPECT_TRUE(loop.PointLookup(expected[i]));
  }

  // The new tiling re-levelled the skewed blob: every shard holds at most
  // ~(5/4)^2 of the ideal share again (the old topology had over half the
  // points in one corner shard).
  const size_t ideal = expected.size() / 4;
  for (int shard = 0; shard < loop.num_shards(); ++shard) {
    EXPECT_LE(loop.sharded_index().shard(shard).num_points(),
              ideal * 25 / 16)
        << "shard " << shard << " still overloaded after repartition";
  }
}

TEST(RepartitionTest, RepartitionCanChangeTheShardCount) {
  TestScenario s = MakeScenario(Region::kJapan, 4000, 80, 2e-3, 302);
  s.data = DedupeCoords(s.data);

  ServeOptions opts;
  opts.num_shards = 2;
  opts.num_threads = 1;
  opts.auto_rebuild = false;
  ServeLoop loop(WaziFactory(), s.data, s.workload, FastOpts(), opts);
  ASSERT_EQ(loop.num_shards(), 2);

  ASSERT_TRUE(loop.TriggerRepartition(6));
  EXPECT_EQ(loop.num_shards(), 6);
  EXPECT_EQ(loop.epoch(), 2u);
  for (size_t i = 0; i < s.workload.queries.size(); i += 3) {
    const Rect& q = s.workload.queries[i];
    EXPECT_EQ(SortedIds(loop.Range(q).hits), TruthIds(s.data, q));
  }

  // And back down to a single shard.
  ASSERT_TRUE(loop.TriggerRepartition(1));
  EXPECT_EQ(loop.num_shards(), 1);
  EXPECT_EQ(loop.epoch(), 3u);
  const QueryResult all = loop.Range(s.data.bounds);
  EXPECT_EQ(SortedIds(all.hits), TruthIds(s.data, s.data.bounds));
}

TEST(RepartitionTest, SnapshotSetPinsTheOldEpochAcrossTheSwap) {
  TestScenario s = MakeScenario(Region::kNewYork, 3000, 60, 2e-3, 303);
  s.data = DedupeCoords(s.data);

  ServeOptions opts;
  opts.num_shards = 4;
  opts.num_threads = 1;
  opts.auto_rebuild = false;
  opts.writer_coalesce_ms = 0;
  ServeLoop loop(WaziFactory(), s.data, s.workload, FastOpts(), opts);

  // Pin the pre-migration generation.
  ShardedVersionedIndex::SnapshotSet pinned;
  loop.sharded_index().AcquireAll(&pinned);
  ASSERT_EQ(pinned.topology->epoch, 1u);

  // Mutate and migrate.
  const Point fresh{0.31, 0.62, 40000000};
  loop.SubmitInsert(fresh);
  loop.Flush();
  ASSERT_TRUE(loop.TriggerRepartition());
  ASSERT_EQ(loop.epoch(), 2u);

  // The pinned set still serves the OLD generation's frozen pre-insert
  // state (per-generation snapshot acquisition: queries that straddle the
  // swap stay internally consistent)...
  uint64_t epoch = 0;
  std::vector<Point> hits;
  loop.sharded_index().RangeQuery(s.data.bounds, &hits, nullptr, nullptr,
                                  nullptr, &pinned, &epoch);
  EXPECT_EQ(epoch, 1u);
  EXPECT_EQ(SortedIds(hits), TruthIds(s.data, s.data.bounds));
  EXPECT_FALSE(loop.sharded_index().PointQuery(fresh, nullptr, nullptr,
                                               nullptr, &pinned));

  // ...while fresh acquisitions see the new epoch and the insert.
  const QueryResult now = loop.Range(s.data.bounds);
  EXPECT_EQ(now.epoch, 2u);
  EXPECT_EQ(now.hits.size(), s.data.points.size() + 1);
  EXPECT_TRUE(loop.PointLookup(fresh));
}

TEST(RepartitionTest, MonitorTriggersOnSkewShift) {
  TestScenario s = MakeScenario(Region::kIberia, 5000, 120, 2e-3, 304);
  s.data = DedupeCoords(s.data);

  ServeOptions opts;
  opts.num_shards = 4;
  opts.num_threads = 1;
  opts.auto_rebuild = false;
  opts.writer_coalesce_ms = 0;
  opts.repartition.enabled = true;
  opts.repartition.poll_ms = 5;
  opts.repartition.max_imbalance = 1.3;
  opts.repartition.patience = 2;
  opts.repartition.min_queries = 32;
  opts.repartition.min_interval_ms = 50;
  ServeLoop loop(WaziFactory(), s.data, s.workload, FastOpts(), opts);

  // Skew-shift: all new data and all queries pile into one corner.
  const Rect corner = Rect::Of(0.0, 0.0, 0.15, 0.15);
  std::vector<Point> expected = s.data.points;
  Rng rng(9999);
  int64_t next_id = 50000000;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (loop.repartitions() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 64; ++i) {
      Point p;
      p.x = corner.min_x + rng.NextDouble() * (corner.max_x - corner.min_x);
      p.y = corner.min_y + rng.NextDouble() * (corner.max_y - corner.min_y);
      p.id = next_id++;
      loop.SubmitInsert(p);
      expected.push_back(p);
    }
    for (int i = 0; i < 16; ++i) {
      const double x = corner.min_x +
                       rng.NextDouble() * (corner.max_x - corner.min_x) * 0.8;
      const double y = corner.min_y +
                       rng.NextDouble() * (corner.max_y - corner.min_y) * 0.8;
      loop.Range(Rect::Of(x, y, x + 0.02, y + 0.02));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(loop.repartitions(), 1) << "monitor never reacted to the skew";
  EXPECT_GE(loop.epoch(), 2u);

  // Serving stayed correct across the automatic migration.
  loop.Flush();
  const QueryResult all = loop.Range(s.data.bounds);
  EXPECT_EQ(SortedIds(all.hits), BruteIds(expected, s.data.bounds));
}

// Regression: Stop() must interrupt the monitor's poll sleep, not wait
// it out. The lost-wakeup variant of this bug — monitor checks stopping_
// (false), Stop() stores true and notifies before the monitor blocks,
// the notify lands on no waiter — made Stop() stall for a full poll
// interval. With a deliberately huge interval, a correct Stop() returns
// in milliseconds; the buggy one eats the whole minute.
TEST(RepartitionTest, StopInterruptsMonitorPollSleep) {
  TestScenario s = MakeScenario(Region::kIberia, 1200, 40, 2e-3, 305);
  s.data = DedupeCoords(s.data);

  ServeOptions opts;
  opts.num_shards = 2;
  opts.num_threads = 1;
  opts.auto_rebuild = false;
  opts.writer_coalesce_ms = 0;
  opts.repartition.enabled = true;
  opts.repartition.poll_ms = 60'000;
  ServeLoop loop(WaziFactory(), s.data, s.workload, FastOpts(), opts);

  // Give the monitor thread time to enter its first WaitUntil so the
  // race window (check, then block) is actually exercised.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const auto t0 = std::chrono::steady_clock::now();
  loop.Stop();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(10))
      << "Stop() slept out the monitor poll interval instead of "
         "interrupting it";
}

// The incremental acceptance bar: a skew that moves only a minority of
// cuts must migrate ONLY the shards those cuts touch — carried shards
// keep the very same VersionedIndex objects, the moved-point count is
// exactly the changed cells' population, and sharded results still equal
// an unsharded reference across the migration.
TEST(RepartitionTest, IncrementalMigrationCarriesUnchangedShards) {
  TestScenario s = MakeScenario(Region::kCaliNev, 5000, 120, 2e-3, 306);
  s.data = DedupeCoords(s.data);

  ServeOptions opts;
  opts.num_shards = 5;  // prime: 1x5 rank-space stripes, no y-cuts
  opts.num_threads = 1;
  opts.auto_rebuild = false;
  opts.writer_coalesce_ms = 0;
  ServeLoop loop(WaziFactory(), s.data, s.workload, FastOpts(), opts);
  ServeOptions ref_opts = opts;
  ref_opts.num_shards = 1;
  ServeLoop reference(WaziFactory(), s.data, s.workload, FastOpts(),
                      ref_opts);
  ASSERT_EQ(loop.num_shards(), 5);

  // Overload stripe 0 with ~20% extra points (inside its own cell, so no
  // other stripe's count moves): only cuts near stripe 0 should move,
  // carrying the rest. The exact changed set depends on the build-time
  // workload-aware cut slack, so derive the expectation from the SAME
  // planner the coordinator runs (pure function of the per-cell loads).
  const std::shared_ptr<ShardTopology> topo1 =
      loop.sharded_index().AcquireTopology();
  const Rect cell0 = topo1->router.ClampedCellRect(0);
  std::vector<Point> expected = s.data.points;
  Rng rng(7777);
  for (int i = 0; i < 1000; ++i) {
    Point p;
    p.x = cell0.min_x + rng.NextDouble() * (cell0.max_x - cell0.min_x);
    p.y = cell0.min_y + rng.NextDouble() * (cell0.max_y - cell0.min_y);
    p.id = 70000000 + i;
    loop.SubmitInsert(p);
    reference.SubmitInsert(p);
    expected.push_back(p);
  }
  loop.Flush();
  reference.Flush();

  std::vector<ShardLoad> loads(5);
  std::vector<const VersionedIndex*> before(5);
  for (int sh = 0; sh < 5; ++sh) {
    loads[static_cast<size_t>(sh)].items =
        topo1->shards[static_cast<size_t>(sh)]->num_points();
    before[static_cast<size_t>(sh)] = topo1->shards[static_cast<size_t>(sh)]
                                          .get();
  }
  const IncrementalPlan plan =
      PlanIncrementalRecut(1, 5, loads, opts.repartition);
  ASSERT_TRUE(plan.feasible) << "the skew must produce a per-cell plan";
  ASSERT_TRUE(plan.changed[0]) << "the overloaded stripe must change";
  const int changed_n = plan.num_changed();
  ASSERT_LT(changed_n, 5) << "something must be carried";
  size_t expected_moved = 0;
  for (int sh = 0; sh < 5; ++sh) {
    if (plan.changed[static_cast<size_t>(sh)]) {
      expected_moved += loads[static_cast<size_t>(sh)].items;
    }
  }
  const uint64_t version_before = loop.version();

  ASSERT_TRUE(loop.TriggerRepartition());
  EXPECT_EQ(loop.epoch(), 2u);

  const MigrationStats stats = loop.migration_stats();
  ASSERT_EQ(stats.migrations, 1);
  ASSERT_EQ(stats.incremental, 1) << "skew should take the per-cell path";
  EXPECT_EQ(stats.last_moved_shards, changed_n);
  EXPECT_EQ(stats.last_carried_shards, 5 - changed_n);
  // Moved points == exactly the changed cells' population at capture.
  EXPECT_EQ(stats.last_moved_points,
            static_cast<int64_t>(expected_moved));
  EXPECT_LT(stats.last_moved_points,
            static_cast<int64_t>(expected.size()))
      << "an incremental migration must move fewer points than a rebuild";

  // Carried shards are the SAME VersionedIndex objects; changed ones are
  // fresh. Cell rects of carried shards are bit-identical.
  const std::shared_ptr<ShardTopology> topo2 =
      loop.sharded_index().AcquireTopology();
  for (int sh = 0; sh < 5; ++sh) {
    const VersionedIndex* now =
        topo2->shards[static_cast<size_t>(sh)].get();
    if (!plan.changed[static_cast<size_t>(sh)]) {
      EXPECT_EQ(now, before[static_cast<size_t>(sh)]) << "shard " << sh;
      const Rect a = topo1->router.CellRect(sh);
      const Rect b = topo2->router.CellRect(sh);
      EXPECT_EQ(a.min_x, b.min_x);
      EXPECT_EQ(a.max_x, b.max_x);
    } else {
      EXPECT_NE(now, before[static_cast<size_t>(sh)]) << "shard " << sh;
    }
  }
  // The re-cut actually relieved the hot stripe.
  EXPECT_LT(topo2->shards[0]->num_points(), expected_moved);

  // Monotone facade version across the mixed carried/rebuilt swap.
  EXPECT_GT(loop.version(), version_before);

  // Differential: sharded == unsharded reference on the full domain,
  // every workload query, point lookups and kNN — across the migration.
  loop.Flush();
  EXPECT_EQ(loop.sharded_index().num_points(), expected.size());
  EXPECT_EQ(SortedIds(loop.Range(s.data.bounds).hits),
            SortedIds(reference.Range(s.data.bounds).hits));
  EXPECT_EQ(SortedIds(loop.Range(s.data.bounds).hits),
            BruteIds(expected, s.data.bounds));
  for (size_t i = 0; i < s.workload.queries.size(); i += 3) {
    const Rect& q = s.workload.queries[i];
    EXPECT_EQ(SortedIds(loop.Range(q).hits),
              SortedIds(reference.Range(q).hits))
        << "query " << i;
  }
  for (size_t i = 0; i < expected.size(); i += 131) {
    EXPECT_TRUE(loop.PointLookup(expected[i]));
  }
  for (size_t i = 0; i < 10; ++i) {
    const Point center = expected[i * 401 % expected.size()];
    const QueryResult a = loop.Knn(center, 5);
    const QueryResult b = reference.Knn(center, 5);
    ASSERT_EQ(a.hits.size(), b.hits.size());
    for (size_t j = 0; j < a.hits.size(); ++j) {
      EXPECT_DOUBLE_EQ(DistanceSquared(a.hits[j], center),
                       DistanceSquared(b.hits[j], center));
    }
  }

  // An explicit count — even the current one — is the full re-level:
  // every cell re-cut and rebuilt fresh, nothing carried, membership
  // still exact.
  ASSERT_TRUE(loop.TriggerRepartition(loop.num_shards()));
  EXPECT_EQ(loop.num_shards(), 5);
  EXPECT_EQ(loop.migration_stats().last_moved_shards, 5);
  EXPECT_EQ(loop.migration_stats().last_carried_shards, 0);
  EXPECT_EQ(loop.migration_stats().last_moved_points,
            static_cast<int64_t>(expected.size()));
  const std::shared_ptr<ShardTopology> topo3 =
      loop.sharded_index().AcquireTopology();
  for (int sh = 0; sh < 5; ++sh) {
    for (int prev = 0; prev < 5; ++prev) {
      EXPECT_NE(topo3->shards[static_cast<size_t>(sh)].get(),
                topo2->shards[static_cast<size_t>(prev)].get())
          << "shard " << sh << " was carried by a full re-cut";
    }
  }
  EXPECT_EQ(SortedIds(loop.Range(s.data.bounds).hits),
            BruteIds(expected, s.data.bounds));

  // A shard-count change can never be incremental: the full pipeline
  // runs (nothing carried), and membership stays exact.
  const int64_t incremental_before = loop.migration_stats().incremental;
  ASSERT_TRUE(loop.TriggerRepartition(3));
  EXPECT_EQ(loop.migration_stats().incremental, incremental_before);
  EXPECT_EQ(loop.migration_stats().last_carried_shards, 0);
  EXPECT_EQ(loop.migration_stats().last_moved_points,
            static_cast<int64_t>(expected.size()));
  EXPECT_EQ(loop.num_shards(), 3);
  EXPECT_EQ(SortedIds(loop.Range(s.data.bounds).hits),
            BruteIds(expected, s.data.bounds));
}

// ROADMAP-named defect regression: a reader that PARKS a snapshot used to
// stall that shard's writer — and a migration's capture phase — forever.
// With writer_stall_ms the writer clones past the parked instance; the
// parked snapshot keeps serving its frozen state untouched.
TEST(RepartitionTest, ParkedReaderSnapshotDoesNotStallMigration) {
  TestScenario s = MakeScenario(Region::kNewYork, 3000, 60, 2e-3, 307);
  s.data = DedupeCoords(s.data);

  ServeOptions opts;
  opts.num_shards = 2;
  opts.num_threads = 1;
  opts.auto_rebuild = false;
  opts.writer_coalesce_ms = 0;
  opts.writer_batch_limit = 32;  // several publishes per shard below
  opts.writer_stall_ms = 50;
  ServeLoop loop(WaziFactory(), s.data, s.workload, FastOpts(), opts);

  // Park a snapshot of every shard "analytically".
  ShardedVersionedIndex::SnapshotSet pinned;
  loop.sharded_index().AcquireAll(&pinned);
  ASSERT_EQ(pinned.topology->epoch, 1u);

  // Stream enough updates that each writer must publish repeatedly: its
  // second publish lands on the parked instance and, without the
  // copy-on-stall fallback, would wait for the drain forever.
  std::vector<Point> expected = s.data.points;
  Rng rng(6543);
  for (int i = 0; i < 400; ++i) {
    Point p;
    p.x = rng.NextDouble();
    p.y = rng.NextDouble();
    p.id = 80000000 + i;
    loop.SubmitInsert(p);
    expected.push_back(p);
  }
  loop.Flush();  // hangs without the fallback
  EXPECT_GE(loop.migration_stats().stall_copies, 1);

  // The capture phase behind TriggerRepartition is likewise unblocked.
  ASSERT_TRUE(loop.TriggerRepartition());
  EXPECT_EQ(loop.epoch(), 2u);

  // The parked set still serves the frozen pre-insert state — the
  // fallback cloned around it, never mutated it.
  uint64_t epoch = 0;
  std::vector<Point> hits;
  loop.sharded_index().RangeQuery(s.data.bounds, &hits, nullptr, nullptr,
                                  nullptr, &pinned, &epoch);
  EXPECT_EQ(epoch, 1u);
  EXPECT_EQ(SortedIds(hits), TruthIds(s.data, s.data.bounds));

  // Fresh queries see everything, exactly.
  loop.Flush();
  EXPECT_EQ(SortedIds(loop.Range(s.data.bounds).hits),
            BruteIds(expected, s.data.bounds));
}

// The acceptance bar: concurrent writers stream routed updates into a
// sharded loop and an unsharded (1-shard) reference loop while forced
// repartitions (including a shard-count change) execute mid-stream;
// concurrent readers hammer queries across the cutovers. After quiescing,
// the sharded results must equal the unsharded results exactly. TSan-clean.
TEST(RepartitionStressTest, ShardedEqualsUnshardedAcrossCutover) {
  TestScenario s = MakeScenario(Region::kCaliNev, 8000, 150, 2e-3, 305);
  s.data = DedupeCoords(s.data);

  ServeOptions sharded_opts;
  sharded_opts.num_shards = 4;
  sharded_opts.num_threads = 2;
  sharded_opts.writer_batch_limit = 32;  // frequent per-shard swaps
  sharded_opts.writer_coalesce_ms = 0;
  sharded_opts.auto_rebuild = false;
  ServeLoop sharded(WaziFactory(), s.data, s.workload, FastOpts(),
                    sharded_opts);
  ServeOptions ref_opts = sharded_opts;
  ref_opts.num_shards = 1;
  ref_opts.num_threads = 1;
  ServeLoop unsharded(WaziFactory(), s.data, s.workload, FastOpts(),
                      ref_opts);

  constexpr int kWriters = 3;
  constexpr int kOpsPerWriter = 800;
  std::atomic<int64_t> bad_results{0};
  std::atomic<bool> stop_readers{false};

  // Writers: identical op streams into both loops; disjoint id ranges per
  // thread; each thread removes only points it owns (its own inserts and
  // the originals with id % kWriters == t), so the final membership is
  // deterministic without cross-thread coordination.
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(600 + t));
      std::vector<Point> mine;
      size_t next_remove = 0, next_orig = static_cast<size_t>(t);
      for (int i = 0; i < kOpsPerWriter; ++i) {
        const int kind = static_cast<int>(rng.NextBelow(4));
        if (kind < 2 || mine.size() < 8) {
          Point p;
          p.x = rng.NextDouble();
          p.y = rng.NextDouble();
          p.id = 60000000 + static_cast<int64_t>(t) * 1000000 + i;
          mine.push_back(p);
          sharded.SubmitInsert(p);
          unsharded.SubmitInsert(p);
        } else if (kind == 2 && next_remove < mine.size()) {
          sharded.SubmitRemove(mine[next_remove]);
          unsharded.SubmitRemove(mine[next_remove]);
          ++next_remove;
        } else if (next_orig < s.data.points.size()) {
          sharded.SubmitRemove(s.data.points[next_orig]);
          unsharded.SubmitRemove(s.data.points[next_orig]);
          next_orig += kWriters;
        }
      }
    });
  }

  // Readers: every range result must be duplicate-free (a migration bug
  // that double-routes a point across generations would violate this) and
  // every kNN result must be the right size and sorted by distance.
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      size_t qi = static_cast<size_t>(r) * 41;
      while (!stop_readers.load(std::memory_order_relaxed)) {
        const Rect& q = s.workload.queries[qi++ % s.workload.queries.size()];
        const QueryResult res = sharded.Range(q);
        std::vector<int64_t> ids = SortedIds(res.hits);
        if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
          bad_results.fetch_add(1, std::memory_order_relaxed);
        }
        const Point center = s.data.points[qi % s.data.points.size()];
        const QueryResult knn = sharded.Knn(center, 5);
        if (knn.hits.size() != 5) {
          bad_results.fetch_add(1, std::memory_order_relaxed);
        }
        for (size_t j = 1; j < knn.hits.size(); ++j) {
          if (DistanceSquared(knn.hits[j - 1], center) >
              DistanceSquared(knn.hits[j], center)) {
            bad_results.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  // Forced live migrations while writers and readers run: re-tile at the
  // same count, then change the shard count twice.
  ASSERT_TRUE(sharded.TriggerRepartition());
  ASSERT_TRUE(sharded.TriggerRepartition(3));
  ASSERT_TRUE(sharded.TriggerRepartition(4));
  EXPECT_EQ(sharded.repartitions(), 3);
  EXPECT_EQ(sharded.epoch(), 4u);

  for (std::thread& t : writers) t.join();
  // One more migration after the writers quiesce but with readers live.
  sharded.Flush();
  ASSERT_TRUE(sharded.TriggerRepartition(5));
  stop_readers.store(true);
  for (std::thread& t : readers) t.join();
  sharded.Flush();
  unsharded.Flush();

  EXPECT_EQ(bad_results.load(), 0);
  EXPECT_EQ(sharded.num_shards(), 5);
  EXPECT_EQ(sharded.sharded_index().num_points(),
            unsharded.sharded_index().num_points());
  // Sharded == unsharded on every workload query, the full domain, point
  // lookups and kNN (distance multisets; ids may differ on ties).
  for (size_t i = 0; i < s.workload.queries.size(); i += 2) {
    const Rect& q = s.workload.queries[i];
    EXPECT_EQ(SortedIds(sharded.Range(q).hits),
              SortedIds(unsharded.Range(q).hits))
        << "query " << i;
  }
  EXPECT_EQ(SortedIds(sharded.Range(s.data.bounds).hits),
            SortedIds(unsharded.Range(s.data.bounds).hits));
  for (size_t i = 0; i < s.data.points.size(); i += 113) {
    const Point& p = s.data.points[i];
    EXPECT_EQ(sharded.PointLookup(p), unsharded.PointLookup(p));
  }
  for (size_t i = 0; i < 20; ++i) {
    const Point center = s.data.points[i * 331 % s.data.points.size()];
    const QueryResult a = sharded.Knn(center, 7);
    const QueryResult b = unsharded.Knn(center, 7);
    ASSERT_EQ(a.hits.size(), b.hits.size());
    for (size_t j = 0; j < a.hits.size(); ++j) {
      EXPECT_DOUBLE_EQ(DistanceSquared(a.hits[j], center),
                       DistanceSquared(b.hits[j], center));
    }
  }
}

}  // namespace
}  // namespace wazi::serve
