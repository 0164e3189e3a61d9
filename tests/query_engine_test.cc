// QueryEngine + ShardedVersionedIndex: batch execution across worker
// threads matches the linear-scan ground truth, per-thread stats aggregate
// correctly, and snapshot swaps isolate readers from updates. Single-shard
// cases exercise the PR-1 topology; the multi-shard case drives the same
// batch paths through the shard router.

#include "serve/query_engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/wazi.h"
#include "index/knn.h"
#include "serve/index_snapshot.h"
#include "serve/sharded_index.h"
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

ShardedIndexOptions Shards(int n, bool track_points = false) {
  ShardedIndexOptions opts;
  opts.num_shards = n;
  opts.versioned.track_points = track_points;
  return opts;
}

TEST(QueryEngineTest, BatchRangeQueriesMatchGroundTruth) {
  const TestScenario s = MakeScenario(Region::kCaliNev, 6000, 200, 2e-3, 31);
  ShardedVersionedIndex index(WaziFactory(), s.data, s.workload, FastOpts());
  QueryEngine engine(&index, 4);

  std::vector<QueryRequest> requests;
  for (const Rect& q : s.workload.queries) {
    requests.push_back(QueryRequest::Range(q));
  }
  std::vector<QueryResult> results;
  engine.ExecuteBatch(requests, &results);

  ASSERT_EQ(results.size(), requests.size());
  int64_t total_hits = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(SortedIds(results[i].hits),
              TruthIds(s.data, s.workload.queries[i]))
        << "query " << i;
    EXPECT_EQ(results[i].snapshot_version, 1u);
    total_hits += static_cast<int64_t>(results[i].hits.size());
  }
  // Per-thread counters must aggregate to the batch totals.
  EXPECT_EQ(engine.aggregated_stats().results, total_hits);
  engine.ResetStats();
  EXPECT_EQ(engine.aggregated_stats().results, 0);
}

TEST(QueryEngineTest, BatchAcrossShardsMatchesGroundTruth) {
  const TestScenario s = MakeScenario(Region::kCaliNev, 6000, 150, 2e-3, 37);
  ShardedVersionedIndex index(WaziFactory(), s.data, s.workload, FastOpts(),
                              Shards(4));
  ASSERT_EQ(index.num_shards(), 4);
  QueryEngine engine(&index, 4);

  std::vector<QueryRequest> requests;
  for (const Rect& q : s.workload.queries) {
    requests.push_back(QueryRequest::Range(q));
  }
  requests.push_back(QueryRequest::PointLookup(s.data.points[3]));
  requests.push_back(QueryRequest::Knn(s.data.points[19], 7));
  std::vector<QueryResult> results;
  engine.ExecuteBatch(requests, &results);

  ASSERT_EQ(results.size(), requests.size());
  int64_t total_hits = 0;
  for (size_t i = 0; i < s.workload.queries.size(); ++i) {
    EXPECT_EQ(SortedIds(results[i].hits),
              TruthIds(s.data, s.workload.queries[i]))
        << "query " << i;
    total_hits += static_cast<int64_t>(results[i].hits.size());
  }
  EXPECT_TRUE(results[results.size() - 2].found);
  EXPECT_EQ(results.back().hits.size(), 7u);
  total_hits += 7;
  // Work counters sum across shards AND threads into the batch totals.
  EXPECT_GE(engine.aggregated_stats().results, total_hits);
}

TEST(QueryEngineTest, MixedRequestTypes) {
  const TestScenario s = MakeScenario(Region::kNewYork, 4000, 100, 2e-3, 32);
  ShardedVersionedIndex index(WaziFactory(), s.data, s.workload, FastOpts());
  QueryEngine engine(&index, 3);

  std::vector<QueryRequest> requests;
  requests.push_back(QueryRequest::Range(s.workload.queries[0]));
  requests.push_back(QueryRequest::PointLookup(s.data.points[7]));
  requests.push_back(
      QueryRequest::PointLookup(Point{-5.0, -5.0, 0}));  // outside domain
  requests.push_back(QueryRequest::Knn(s.data.points[11], 5));
  std::vector<QueryResult> results;
  engine.ExecuteBatch(requests, &results);

  EXPECT_EQ(SortedIds(results[0].hits), TruthIds(s.data, s.workload.queries[0]));
  EXPECT_TRUE(results[1].found);
  EXPECT_FALSE(results[2].found);
  ASSERT_EQ(results[3].hits.size(), 5u);
  // kNN through the engine matches the library routine on the same index.
  const auto snap = index.shard(0).Acquire();
  const KnnResult direct =
      KnnByRangeExpansion(snap->index(), s.data.points[11], 5, index.domain());
  EXPECT_EQ(SortedIds(results[3].hits), SortedIds(direct.neighbors));
}

// Every batch shape — fewer queries than threads, an uneven last block,
// one query past a full block — returns exactly what per-query Execute
// returns, whichever thread ran each block.
TEST(QueryEngineTest, BatchesMatchPerQueryExecuteForEveryShape) {
  const TestScenario s = MakeScenario(Region::kCaliNev, 5000, 65, 2e-3, 38);
  ShardedVersionedIndex index(WaziFactory(), s.data, s.workload, FastOpts(),
                              Shards(3));
  for (const int threads : {1, 2, 4}) {
    QueryEngine engine(&index, threads);
    EXPECT_EQ(engine.num_threads(), threads);
    for (const size_t size : {1, 2, 3, 7, 64, 65}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " size=" + std::to_string(size));
      std::vector<QueryRequest> requests;
      for (size_t i = 0; i < size; ++i) {
        switch (i % 3) {
          case 0:
            requests.push_back(QueryRequest::Range(s.workload.queries[i]));
            break;
          case 1:
            requests.push_back(QueryRequest::PointLookup(s.data.points[i]));
            break;
          default:
            requests.push_back(QueryRequest::Knn(s.data.points[i], 4));
            break;
        }
      }
      std::vector<QueryResult> batch;
      engine.ExecuteBatch(requests, &batch);
      ShardedVersionedIndex::SnapshotSet snaps;
      index.AcquireAll(&snaps);
      std::vector<QueryResult> pinned;
      engine.ExecuteBatchOn(requests, &pinned, snaps);
      ASSERT_EQ(batch.size(), size);
      ASSERT_EQ(pinned.size(), size);
      for (size_t i = 0; i < size; ++i) {
        const QueryResult one = engine.Execute(requests[i], nullptr);
        for (const QueryResult* got : {&batch[i], &pinned[i]}) {
          EXPECT_EQ(SortedIds(got->hits), SortedIds(one.hits)) << i;
          EXPECT_EQ(got->found, one.found) << i;
          EXPECT_EQ(got->snapshot_version, one.snapshot_version) << i;
          EXPECT_EQ(got->epoch, one.epoch) << i;
        }
      }
    }
  }
}

// Many threads batch on one engine at once. Each caller runs its own first
// block and waits only for the blocks it handed to the shared pool, so no
// caller can wait on another and every batch completes correctly.
TEST(QueryEngineTest, ConcurrentBatchCallersAllFinish) {
  const TestScenario s = MakeScenario(Region::kCaliNev, 5000, 65, 2e-3, 39);
  ShardedVersionedIndex index(WaziFactory(), s.data, s.workload, FastOpts(),
                              Shards(2));
  QueryEngine engine(&index, 4);
  std::vector<QueryRequest> requests;
  std::vector<std::vector<int64_t>> truth;
  for (const Rect& q : s.workload.queries) {
    requests.push_back(QueryRequest::Range(q));
    truth.push_back(TruthIds(s.data, q));
  }
  constexpr int kCallers = 8;
  constexpr int kRounds = 20;
  std::vector<int> wrong(kCallers, 0);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      std::vector<QueryResult> results;
      for (int round = 0; round < kRounds; ++round) {
        // Vary the batch size so callers split into different block counts.
        const size_t size = 1 + (static_cast<size_t>(c * kRounds + round) %
                                 requests.size());
        const std::vector<QueryRequest> batch(requests.begin(),
                                              requests.begin() + size);
        engine.ExecuteBatch(batch, &results);
        for (size_t i = 0; i < size; ++i) {
          if (SortedIds(results[i].hits) != truth[i]) ++wrong[c];
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) EXPECT_EQ(wrong[c], 0) << "caller " << c;
}

TEST(QueryEngineTest, ApplyBatchPublishesNewVersionAndPreservesOldSnapshot) {
  const TestScenario s = MakeScenario(Region::kJapan, 3000, 80, 2e-3, 33);
  ShardedVersionedIndex sharded(WaziFactory(), s.data, s.workload, FastOpts(),
                                Shards(1, /*track_points=*/true));
  VersionedIndex& index = sharded.shard(0);
  QueryEngine engine(&sharded, 2);

  auto before = index.Acquire();
  EXPECT_EQ(before->version(), 1u);
  ASSERT_NE(before->points(), nullptr);
  EXPECT_EQ(before->points()->size(), s.data.size());

  const Point fresh{0.41215, 0.52817, 9000001};
  std::vector<UpdateOp> ops = {UpdateOp::Insert(fresh),
                               UpdateOp::Remove(s.data.points[5])};
  index.ApplyBatch(ops);
  EXPECT_EQ(index.version(), 2u);
  EXPECT_EQ(index.num_points(), s.data.size());  // +1 -1

  // Old snapshot still serves the pre-update state (readers are isolated).
  QueryStats qs;
  EXPECT_FALSE(before->index().PointQuery(fresh, &qs));
  EXPECT_TRUE(before->index().PointQuery(s.data.points[5], &qs));
  // Release it: the writer's next publish blocks until the snapshot of the
  // instance it wants to reuse has drained (reader backpressure by design).
  before.reset();

  // New snapshot serves the post-update state.
  const auto after = index.Acquire();
  EXPECT_EQ(after->version(), 2u);
  EXPECT_TRUE(after->index().PointQuery(fresh, &qs));
  EXPECT_FALSE(after->index().PointQuery(s.data.points[5], &qs));
  EXPECT_EQ(after->points()->size(), s.data.size());

  // A second batch exercises the left-right flip (catch-up replay on the
  // instance that missed the first batch).
  const Point fresh2{0.61215, 0.22817, 9000002};
  index.ApplyBatch({UpdateOp::Insert(fresh2)});
  const auto third = index.Acquire();
  EXPECT_EQ(third->version(), 3u);
  EXPECT_TRUE(third->index().PointQuery(fresh, &qs));
  EXPECT_TRUE(third->index().PointQuery(fresh2, &qs));
  EXPECT_FALSE(third->index().PointQuery(s.data.points[5], &qs));
}

TEST(QueryEngineTest, RebuildKeepsContentAndBumpsVersion) {
  const TestScenario s = MakeScenario(Region::kIberia, 3000, 80, 2e-3, 34);
  ShardedVersionedIndex sharded(WaziFactory(), s.data, s.workload, FastOpts());
  VersionedIndex& index = sharded.shard(0);
  QueryEngine engine(&sharded, 2);

  index.ApplyBatch({UpdateOp::Insert(Point{0.5051, 0.5052, 9000003})});
  index.Rebuild(s.workload);
  EXPECT_EQ(index.version(), 3u);

  std::vector<QueryRequest> requests;
  for (const Rect& q : s.workload.queries) {
    requests.push_back(QueryRequest::Range(q));
  }
  std::vector<QueryResult> results;
  engine.ExecuteBatch(requests, &results);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(SortedIds(results[i].hits),
              TruthIds(index.data(), s.workload.queries[i]))
        << "query " << i;
  }

  // Another batch after the rebuild: the stale instance re-levels from the
  // authoritative set rather than replaying across the rebuild.
  index.ApplyBatch({UpdateOp::Remove(s.data.points[1])});
  QueryStats qs;
  const auto snap = index.Acquire();
  EXPECT_EQ(snap->version(), 4u);
  EXPECT_FALSE(snap->index().PointQuery(s.data.points[1], &qs));
  EXPECT_TRUE(snap->index().PointQuery(Point{0.5051, 0.5052, 9000003}, &qs));
}

// Ops that would desynchronize the id-keyed authoritative set from the
// coordinate-keyed instances are dropped: duplicate-id inserts, removes of
// absent ids, removes with stale coordinates.
TEST(QueryEngineTest, SanitizesDivergentUpdateOps) {
  const TestScenario s = MakeScenario(Region::kCaliNev, 2000, 60, 2e-3, 36);
  ShardedVersionedIndex sharded(WaziFactory(), s.data, s.workload, FastOpts());
  VersionedIndex& index = sharded.shard(0);
  const size_t n0 = index.num_points();

  const Point fresh{0.123456, 0.654321, 9100001};
  index.ApplyBatch({UpdateOp::Insert(fresh)});
  // Same id again (different coords): dropped, not double-inserted.
  index.ApplyBatch({UpdateOp::Insert(Point{0.2, 0.2, 9100001})});
  EXPECT_EQ(index.num_points(), n0 + 1);
  QueryStats qs;
  EXPECT_FALSE(index.Acquire()->index().PointQuery(Point{0.2, 0.2, 0}, &qs));

  // Remove with the right id but stale coordinates: dropped.
  index.ApplyBatch({UpdateOp::Remove(Point{0.9, 0.9, 9100001})});
  EXPECT_EQ(index.num_points(), n0 + 1);
  EXPECT_TRUE(index.Acquire()->index().PointQuery(fresh, &qs));

  // Remove of an absent id: dropped (even if coords match a live point).
  Point alias = s.data.points[3];
  alias.id = 9999999;
  index.ApplyBatch({UpdateOp::Remove(alias)});
  EXPECT_EQ(index.num_points(), n0 + 1);
  EXPECT_TRUE(index.Acquire()->index().PointQuery(s.data.points[3], &qs));

  // A matching remove still works.
  index.ApplyBatch({UpdateOp::Remove(fresh)});
  EXPECT_EQ(index.num_points(), n0);
  EXPECT_FALSE(index.Acquire()->index().PointQuery(fresh, &qs));
}

// A static index (no Insert/Remove support) must still serve updates via
// the rebuild fallback.
TEST(QueryEngineTest, StaticIndexFallsBackToRebuild) {
  const TestScenario s = MakeScenario(Region::kCaliNev, 2000, 60, 2e-3, 35);
  IndexFactory factory = [] {
    return MakeIndex("str");  // STR R-tree: no clone hook
  };
  ShardedVersionedIndex sharded(factory, s.data, s.workload, FastOpts());
  VersionedIndex& index = sharded.shard(0);
  ASSERT_EQ(index.Acquire()->index().CloneForUpdate(), nullptr);

  const Point fresh{0.31415, 0.92653, 9000004};
  index.ApplyBatch({UpdateOp::Insert(fresh)});
  QueryStats qs;
  const auto snap = index.Acquire();
  EXPECT_EQ(snap->version(), 2u);
  EXPECT_TRUE(snap->index().PointQuery(fresh, &qs));

  index.ApplyBatch({UpdateOp::Remove(fresh)});
  EXPECT_FALSE(index.Acquire()->index().PointQuery(fresh, &qs));
}

}  // namespace
}  // namespace wazi::serve
