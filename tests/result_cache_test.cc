// Snapshot-stamped result cache: a cached entry must NEVER outlive the
// data it was computed from.
//
//   * Roundtrip + LRU mechanics (hits, eviction, capacity, oversized
//     results skipped).
//   * Stamp precision: a write into a shard the query touched invalidates
//     the entry; a write into an untouched shard does not (and the hit is
//     still correct, because routing confines that write's effect to its
//     own cell).
//   * Rect precision within a touched shard: a write whose point lies
//     outside the rect keeps the entry servable (a revalidation); a write
//     inside it or on its boundary, a drift rebuild, or more publishes
//     than the shard's history holds invalidates it.
//   * A topology swap (live repartition) and a mid-migration cutover
//     each make every affected entry unservable.
//   * SnapshotSet semantics: probes validate against the EXECUTION
//     context — a batch pinned to an old snapshot set may legitimately
//     hit an entry that is stale for live queries.
//   * The acceptance stress: cache-on results differentially checked
//     against brute force over the exact pinned snapshot membership,
//     under concurrent writers and live repartitions (runs under TSan in
//     CI). Zero mismatches required.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/wazi.h"
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

ServeOptions CachedOpts(int shards, size_t cache_bytes) {
  ServeOptions opts;
  opts.num_shards = shards;
  opts.num_threads = 2;
  opts.auto_rebuild = false;
  opts.writer_coalesce_ms = 0;
  opts.cache.capacity_bytes = cache_bytes;
  return opts;
}

TEST(ResultCacheTest, RepeatedQueryHitsAndMatchesFirstExecution) {
  TestScenario s = MakeScenario(Region::kCaliNev, 4000, 100, 2e-3, 901);
  ServeLoop loop(WaziFactory(), s.data, s.workload, FastOpts(),
                 CachedOpts(2, 4 << 20));

  const Rect q = s.workload.queries[0];
  QueryStats stats;
  const std::vector<int64_t> first = SortedIds(loop.Range(q, &stats).hits);
  EXPECT_EQ(first, TruthIds(s.data, q));
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_EQ(stats.cache_misses, 1);

  stats.Reset();
  const QueryResult again = loop.Range(q, &stats);
  EXPECT_EQ(SortedIds(again.hits), first);
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.cache_misses, 0);
  // A hit reports its result count without scanning anything.
  EXPECT_EQ(stats.results, static_cast<int64_t>(again.hits.size()));
  EXPECT_EQ(stats.points_scanned, 0);

  const ResultCacheStats cs = loop.cache_stats();
  EXPECT_EQ(cs.hits, 1);
  EXPECT_GE(cs.insertions, 1);
  EXPECT_GT(cs.size_bytes, 0u);
}

TEST(ResultCacheTest, WriteToTouchedShardInvalidatesUntouchedDoesNot) {
  // Uniform data, 4 shards: a 2x2 equi-depth tiling cuts near (0.5, 0.5),
  // so a small rect in the bottom-left corner touches exactly one shard
  // and a point at (0.9, 0.9) routes far away from it.
  Dataset data = MakeUniformDataset(4000, 77);
  TestScenario s;
  s.data = data;
  QueryGenOptions qopts;
  qopts.num_queries = 16;
  qopts.selectivity = 1e-3;
  s.workload = GenerateCheckinWorkload(Region::kCaliNev, data.bounds, qopts);
  ServeLoop loop(WaziFactory(), s.data, s.workload, FastOpts(),
                 CachedOpts(4, 4 << 20));

  const Rect q = Rect::Of(0.05, 0.05, 0.15, 0.15);
  const std::vector<int64_t> before = SortedIds(loop.Range(q).hits);

  // Untouched shard: the entry must survive (hit) and stay correct.
  loop.SubmitInsert(Point{0.9, 0.9, 1000001});
  loop.Flush();
  QueryStats stats;
  EXPECT_EQ(SortedIds(loop.Range(q, &stats).hits), before);
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(loop.cache_stats().invalidations, 0);

  // Touched shard: the very next probe must see the swap and re-execute.
  const Point inside{0.1, 0.1, 1000002};
  loop.SubmitInsert(inside);
  loop.Flush();
  stats.Reset();
  const std::vector<int64_t> after = SortedIds(loop.Range(q, &stats).hits);
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_EQ(stats.cache_misses, 1);
  EXPECT_GE(loop.cache_stats().invalidations, 1);
  std::vector<int64_t> expected = before;
  expected.push_back(inside.id);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(after, expected);
}

TEST(ResultCacheTest, TopologySwapInvalidatesEveryEntry) {
  TestScenario s = MakeScenario(Region::kCaliNev, 4000, 100, 2e-3, 903);
  s.data = DedupeCoords(s.data);
  ServeLoop loop(WaziFactory(), s.data, s.workload, FastOpts(),
                 CachedOpts(3, 4 << 20));

  std::vector<std::vector<int64_t>> cached;
  for (size_t i = 0; i < 8; ++i) {
    cached.push_back(SortedIds(loop.Range(s.workload.queries[i]).hits));
  }
  const int64_t hits_before = loop.cache_stats().hits;

  ASSERT_TRUE(loop.TriggerRepartition(/*new_num_shards=*/5));
  EXPECT_EQ(loop.epoch(), 2u);

  // Same queries, same membership — but every answer re-executes against
  // the new epoch (the stamped epoch no longer matches).
  for (size_t i = 0; i < 8; ++i) {
    const Rect& q = s.workload.queries[i];
    EXPECT_EQ(SortedIds(loop.Range(q).hits), cached[i]) << "query " << i;
    EXPECT_EQ(SortedIds(loop.Range(q).hits), TruthIds(s.data, q));
  }
  EXPECT_EQ(loop.cache_stats().hits - hits_before, 8)
      << "second pass after the re-execution should hit again";
  EXPECT_GE(loop.cache_stats().invalidations, 8);
}

TEST(ResultCacheTest, PinnedSnapshotSetMayHitWhatLiveQueriesMayNot) {
  TestScenario s = MakeScenario(Region::kCaliNev, 3000, 60, 2e-3, 904);
  s.data = DedupeCoords(s.data);
  ServeLoop loop(WaziFactory(), s.data, s.workload, FastOpts(),
                 CachedOpts(1, 4 << 20));

  const Rect q = s.workload.queries[0];
  const std::vector<int64_t> old_ids = SortedIds(loop.Range(q).hits);

  // Pin the pre-write snapshot set, then write into the touched shard.
  ShardedVersionedIndex::SnapshotSet snaps;
  loop.sharded_index().AcquireAll(&snaps);
  Point inside{(q.min_x + q.max_x) / 2, (q.min_y + q.max_y) / 2, 2000001};
  loop.SubmitInsert(inside);
  loop.Flush();

  // A batch pinned to the old set hits the entry: its stamp matches the
  // pinned versions exactly, and serving it is precisely what executing
  // on the pinned set would return.
  std::vector<QueryResult> results;
  loop.engine().ExecuteBatchOn({QueryRequest::Range(q)}, &results, snaps);
  EXPECT_EQ(SortedIds(results[0].hits), old_ids);

  // A live query must not: the touched shard's version moved.
  std::vector<int64_t> expected = old_ids;
  expected.push_back(inside.id);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(SortedIds(loop.Range(q).hits), expected);
}

TEST(ResultCacheTest, EvictionKeepsCapacityAndOversizedResultsSkipCache) {
  TestScenario s = MakeScenario(Region::kCaliNev, 6000, 200, 2e-3, 905);
  // Tiny cache: 16 KB across 4 segments.
  ServeOptions opts = CachedOpts(1, 16 << 10);
  opts.cache.segments = 4;
  ServeLoop loop(WaziFactory(), s.data, s.workload, FastOpts(), opts);

  for (const Rect& q : s.workload.queries) {
    EXPECT_EQ(SortedIds(loop.Range(q).hits), TruthIds(s.data, q));
  }
  ResultCacheStats cs = loop.cache_stats();
  EXPECT_LE(cs.size_bytes, 16u << 10);
  EXPECT_GT(cs.evictions, 0);

  // A whole-domain scan is far bigger than one segment: correct, but
  // never admitted into the cache.
  const int64_t insertions_before = loop.cache_stats().insertions;
  EXPECT_EQ(SortedIds(loop.Range(s.data.bounds).hits),
            TruthIds(s.data, s.data.bounds));
  EXPECT_EQ(loop.cache_stats().insertions, insertions_before);
}

TEST(ResultCacheTest, DisabledCacheCountsNothing) {
  TestScenario s = MakeScenario(Region::kCaliNev, 2000, 40, 2e-3, 906);
  ServeLoop loop(WaziFactory(), s.data, s.workload, FastOpts(),
                 CachedOpts(2, 0));
  QueryStats stats;
  loop.Range(s.workload.queries[0], &stats);
  loop.Range(s.workload.queries[0], &stats);
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_EQ(stats.cache_misses, 0);
  const ResultCacheStats cs = loop.cache_stats();
  EXPECT_EQ(cs.lookups(), 0);
  EXPECT_EQ(cs.insertions, 0);
}

// One shard over uniform [0,1]^2 data, so every write lands in the shard
// the query touched and only its position decides the entry's fate.
struct OneShardFixture {
  TestScenario s;
  std::unique_ptr<ServeLoop> loop;
  const Rect q = Rect::Of(0.05, 0.05, 0.15, 0.15);

  explicit OneShardFixture(ServeOptions opts = CachedOpts(1, 4 << 20)) {
    s.data = MakeUniformDataset(4000, 78);
    QueryGenOptions qopts;
    qopts.num_queries = 16;
    qopts.selectivity = 1e-3;
    s.workload =
        GenerateCheckinWorkload(Region::kCaliNev, s.data.bounds, qopts);
    loop = std::make_unique<ServeLoop>(WaziFactory(), s.data, s.workload,
                                       FastOpts(), opts);
  }
  uint64_t version() const { return loop->sharded_index().shard(0).version(); }
  void Insert(const Point& p) {
    loop->SubmitInsert(p);
    loop->Flush();
  }
};

std::vector<int64_t> With(std::vector<int64_t> ids, int64_t id) {
  ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(ResultCacheTest, WriteOutsideRectOnTouchedShardRevalidates) {
  OneShardFixture f;
  const std::vector<int64_t> before = SortedIds(f.loop->Range(f.q).hits);
  const uint64_t v0 = f.version();

  f.Insert(Point{0.9, 0.9, 1000001});
  ASSERT_EQ(f.version(), v0 + 1) << "the insert must publish on the shard";
  QueryStats stats;
  EXPECT_EQ(SortedIds(f.loop->Range(f.q, &stats).hits), before);
  EXPECT_EQ(stats.cache_hits, 1);
  ResultCacheStats cs = f.loop->cache_stats();
  EXPECT_EQ(cs.revalidations, 1);
  EXPECT_EQ(cs.invalidations, 0);
  EXPECT_EQ(cs.hits, 1);

  // The revalidation restamped the entry: the next probe is an exact hit.
  stats.Reset();
  EXPECT_EQ(SortedIds(f.loop->Range(f.q, &stats).hits), before);
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(f.loop->cache_stats().revalidations, 1);
}

TEST(ResultCacheTest, InsertOnRectBoundaryInvalidates) {
  OneShardFixture f;
  const std::vector<int64_t> before = SortedIds(f.loop->Range(f.q).hits);
  // Closed rectangle: a point on its right edge is a result.
  const Point edge{f.q.max_x, 0.1, 1000003};
  f.Insert(edge);
  QueryStats stats;
  EXPECT_EQ(SortedIds(f.loop->Range(f.q, &stats).hits),
            With(before, edge.id));
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_EQ(f.loop->cache_stats().invalidations, 1);
  EXPECT_EQ(f.loop->cache_stats().revalidations, 0);
}

TEST(ResultCacheTest, RemoveInsideRectInvalidates) {
  OneShardFixture f;
  const std::vector<Point> hits = f.loop->Range(f.q).hits;
  ASSERT_FALSE(hits.empty());
  const Point victim = hits.front();
  f.loop->SubmitRemove(victim);
  f.loop->Flush();
  QueryStats stats;
  std::vector<int64_t> expected = SortedIds(hits);
  expected.erase(std::find(expected.begin(), expected.end(), victim.id));
  EXPECT_EQ(SortedIds(f.loop->Range(f.q, &stats).hits), expected);
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_EQ(f.loop->cache_stats().invalidations, 1);
}

TEST(ResultCacheTest, GapLongerThanPublishHistoryInvalidates) {
  OneShardFixture f;
  const std::vector<int64_t> before = SortedIds(f.loop->Range(f.q).hits);
  int64_t id = 1100000;
  // Exactly the history depth of outside publishes is still covered...
  const uint64_t v0 = f.version();
  for (uint64_t i = 0; i < VersionedIndex::kPublishHistoryDepth; ++i) {
    f.Insert(Point{0.9, 0.5 + 1e-4 * static_cast<double>(i), id++});
  }
  ASSERT_EQ(f.version(), v0 + VersionedIndex::kPublishHistoryDepth);
  EXPECT_EQ(SortedIds(f.loop->Range(f.q).hits), before);
  EXPECT_EQ(f.loop->cache_stats().revalidations, 1);
  EXPECT_EQ(f.loop->cache_stats().invalidations, 0);

  // ...one more and the ring no longer reaches the stamped version.
  const uint64_t v1 = f.version();
  for (uint64_t i = 0; i <= VersionedIndex::kPublishHistoryDepth; ++i) {
    f.Insert(Point{0.8, 0.5 + 1e-4 * static_cast<double>(i), id++});
  }
  ASSERT_EQ(f.version(), v1 + VersionedIndex::kPublishHistoryDepth + 1);
  QueryStats stats;
  EXPECT_EQ(SortedIds(f.loop->Range(f.q, &stats).hits), before);
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_EQ(f.loop->cache_stats().invalidations, 1);
  EXPECT_EQ(f.loop->cache_stats().revalidations, 1);
}

TEST(ResultCacheTest, OverwrittenHistoryInvalidatesPinnedProbe) {
  // The pinned set parks a snapshot across every publish below; a short
  // copy-on-stall deadline keeps each publish from waiting 250 ms on it.
  ServeOptions opts = CachedOpts(1, 4 << 20);
  opts.writer_stall_ms = 1;
  OneShardFixture f(opts);
  const std::vector<int64_t> v0_ids = SortedIds(f.loop->Range(f.q).hits);
  ShardedVersionedIndex::SnapshotSet old_set;
  f.loop->sharded_index().AcquireAll(&old_set);

  // Stamp the entry one publish (an inside insert) past the pinned set...
  const Point inside{0.1, 0.1, 1300001};
  f.Insert(inside);
  EXPECT_EQ(SortedIds(f.loop->Range(f.q).hits), With(v0_ids, inside.id));
  // ...then let the ring lap that publish with outside ones, no probes.
  int64_t id = 1300002;
  for (uint64_t i = 0; i < VersionedIndex::kPublishHistoryDepth; ++i) {
    f.Insert(Point{0.9, 0.5 + 1e-4 * static_cast<double>(i), id++});
  }

  // The gap is one publish, but its record is gone: the pinned probe must
  // re-execute on its own snapshots, not trust the lapped slot.
  const int64_t invalidations = f.loop->cache_stats().invalidations;
  std::vector<QueryResult> results;
  f.loop->engine().ExecuteBatchOn({QueryRequest::Range(f.q)}, &results,
                                  old_set);
  EXPECT_EQ(SortedIds(results[0].hits), v0_ids);
  EXPECT_EQ(f.loop->cache_stats().invalidations, invalidations + 1);
}

TEST(ResultCacheTest, DriftRebuildInvalidates) {
  OneShardFixture f;
  const std::vector<int64_t> before = SortedIds(f.loop->Range(f.q).hits);
  const uint64_t v0 = f.version();
  f.loop->TriggerRebuild();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (f.version() == v0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(f.version(), v0 + 1) << "the rebuild never published";
  QueryStats stats;
  EXPECT_EQ(SortedIds(f.loop->Range(f.q, &stats).hits), before);
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_EQ(f.loop->cache_stats().invalidations, 1);
  EXPECT_EQ(f.loop->cache_stats().revalidations, 0);
}

TEST(ResultCacheTest, PinnedOlderSetValidatesAgainstNewerStamp) {
  OneShardFixture f;
  const std::vector<int64_t> v0_ids = SortedIds(f.loop->Range(f.q).hits);

  // Pin version v0, publish an outside write, and let a live query stamp
  // the entry at the newer version.
  ShardedVersionedIndex::SnapshotSet old_set;
  f.loop->sharded_index().AcquireAll(&old_set);
  f.Insert(Point{0.9, 0.9, 1200001});
  EXPECT_EQ(SortedIds(f.loop->Range(f.q).hits), v0_ids);  // revalidated
  ASSERT_EQ(f.loop->cache_stats().revalidations, 1);

  // The batch pinned to v0 checks (v0, v1] backwards: nothing in the rect,
  // so it hits — and must not move the stamp back to v0.
  std::vector<QueryResult> results;
  f.loop->engine().ExecuteBatchOn({QueryRequest::Range(f.q)}, &results,
                                  old_set);
  EXPECT_EQ(SortedIds(results[0].hits), v0_ids);
  EXPECT_EQ(f.loop->cache_stats().revalidations, 2);
  EXPECT_EQ(SortedIds(f.loop->Range(f.q).hits), v0_ids);
  EXPECT_EQ(f.loop->cache_stats().revalidations, 2) << "stamp moved back";
  old_set = {};

  // Now an inside write: a live query re-executes and stamps the newer
  // version; a batch pinned before the write must not be served it.
  ShardedVersionedIndex::SnapshotSet mid_set;
  f.loop->sharded_index().AcquireAll(&mid_set);
  const Point inside{0.1, 0.1, 1200002};
  f.Insert(inside);
  EXPECT_EQ(SortedIds(f.loop->Range(f.q).hits), With(v0_ids, inside.id));
  const int64_t invalidations = f.loop->cache_stats().invalidations;
  f.loop->engine().ExecuteBatchOn({QueryRequest::Range(f.q)}, &results,
                                  mid_set);
  EXPECT_EQ(SortedIds(results[0].hits), v0_ids);
  EXPECT_EQ(f.loop->cache_stats().invalidations, invalidations + 1);
}

// The acceptance bar: with the cache enabled, every result returned by a
// pinned batch equals brute force over the exact membership of the
// snapshots it was pinned to — while writers stream routed updates and a
// coordinator executes live repartitions (including shard-count changes).
// A cached entry served across ANY swap or mid-migration cutover would
// show up as a mismatch.
TEST(ResultCacheStressTest, DifferentialVsBruteForceAcrossLiveSwaps) {
  TestScenario s = MakeScenario(Region::kCaliNev, 6000, 150, 2e-3, 907);
  s.data = DedupeCoords(s.data);
  ServeOptions opts = CachedOpts(3, 8 << 20);
  opts.track_points = true;  // snapshots carry exact membership
  ServeLoop loop(WaziFactory(), s.data, s.workload, FastOpts(), opts);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> mismatches{0};
  std::atomic<int64_t> checked{0};

  // The readers' hot set (see below).
  constexpr size_t kHot = 12;
  const auto in_hot = [&](const Point& p) {
    for (size_t i = 0; i < kHot; ++i) {
      if (s.workload.queries[i].Contains(p)) return true;
    }
    return false;
  };

  // Writers: routed inserts/removes keep every shard's versions moving.
  // Half the inserts land inside a hot rect (the entry must invalidate),
  // half outside every hot rect (the entry must revalidate).
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      Rng rng(static_cast<uint64_t>(500 + w));
      std::vector<Point> mine;
      int64_t next_id = 40000000 + w * 1000000;
      while (!stop.load(std::memory_order_relaxed)) {
        if (mine.size() > 128 && rng.NextBelow(2) == 0) {
          loop.SubmitRemove(mine.back());
          mine.pop_back();
        } else {
          Point p{0, 0, next_id++};
          if (rng.NextBelow(2) == 0) {
            const Rect& hot = s.workload.queries[rng.NextBelow(kHot)];
            p.x = hot.min_x + rng.NextDouble() * (hot.max_x - hot.min_x);
            p.y = hot.min_y + rng.NextDouble() * (hot.max_y - hot.min_y);
          } else {
            do {
              p.x = rng.NextDouble();
              p.y = rng.NextDouble();
            } while (in_hot(p));
          }
          loop.SubmitInsert(p);
          mine.push_back(p);
        }
        if (rng.NextBelow(64) == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    });
  }

  // Coordinator: live migrations, including shard-count changes.
  std::thread repartitioner([&] {
    const int counts[] = {4, 2, 5, 3};
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      loop.TriggerRepartition(counts[i++ % 4]);
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
  });

  // Readers: pin a snapshot set, derive ground truth from its tracked
  // membership, execute a cached batch pinned to the SAME set, compare.
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(static_cast<uint64_t>(700 + r));
      while (!stop.load(std::memory_order_relaxed)) {
        ShardedVersionedIndex::SnapshotSet snaps;
        loop.sharded_index().AcquireAll(&snaps);
        std::vector<Point> membership;
        for (const auto& snap : snaps.snaps) {
          ASSERT_NE(snap->points(), nullptr);
          membership.insert(membership.end(), snap->points()->begin(),
                            snap->points()->end());
        }
        std::vector<QueryRequest> requests;
        for (int i = 0; i < 8; ++i) {
          // Mostly repeats from a small hot set (cache exercise), some
          // uniform (churn + evictions).
          const size_t qi = rng.NextBelow(4) == 0
                                ? rng.NextBelow(s.workload.queries.size())
                                : rng.NextBelow(kHot);
          requests.push_back(QueryRequest::Range(s.workload.queries[qi]));
        }
        std::vector<QueryResult> results;
        loop.engine().ExecuteBatchOn(requests, &results, snaps);
        for (size_t i = 0; i < requests.size(); ++i) {
          if (SortedIds(results[i].hits) !=
              BruteIds(membership, requests[i].rect)) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
          checked.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::seconds(3));
  stop.store(true);
  for (auto& t : readers) t.join();
  repartitioner.join();
  for (auto& t : writers) t.join();
  loop.Stop();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(checked.load(), 0);
  const ResultCacheStats cs = loop.cache_stats();
  // The stress is only meaningful if the cache was actually exercised and
  // actually invalidated under the churn.
  EXPECT_GT(cs.hits, 0) << "cache never hit — stress did not test it";
  EXPECT_GT(cs.invalidations, 0)
      << "no stamp invalidations — writers/migrations were not observed";
  EXPECT_GT(cs.revalidations, 0)
      << "no revalidations — outside writes always invalidated";
  EXPECT_GT(loop.repartitions(), 0);
}

}  // namespace
}  // namespace wazi::serve
