// Epoch-based reclamation (serve/epoch.h) under the serving engine's real
// lifecycles: exact limbo accounting on private domains, the parked-reader
// / copy-on-stall interplay (a stamped-but-idle reader must trigger the
// writer's stall fallback, never block reclamation of pre-stamp limbo or
// writer progress), non-blocking VersionedIndex destruction with a reader
// still parked, and a multi-thread stress across forced repartitions.
// Every test here must stay clean under TSan and ASan/UBSan — the CI
// sanitizer jobs run this binary — and the accounting invariant
// (retired == reclaimed + limbo at every step) is checked explicitly, so
// a lost or double-freed limbo entry fails even without a sanitizer.

#include "serve/epoch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/wazi.h"
#include "obs/metrics.h"
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

// The accounting invariant every retire/reclaim sequence must preserve.
void ExpectAccounting(const EpochDomain& d) {
  EXPECT_EQ(d.retired_total(),
            d.reclaimed_total() + static_cast<int64_t>(d.limbo_size()));
}

TEST(EpochDomainTest, GuardNestingSharesOneStamp) {
  EpochDomain domain;
  EXPECT_EQ(domain.active_readers(), 0);
  {
    EpochDomain::Guard outer = domain.Enter();
    EXPECT_EQ(domain.active_readers(), 1);
    {
      // Nested sections reuse the outer stamp: a query acquiring two
      // shards of one topology pins one epoch, not two.
      EpochDomain::Guard inner = domain.Enter();
      EXPECT_EQ(domain.active_readers(), 1);
    }
    // Inner release must NOT clear the stamp while the outer guard lives.
    EXPECT_EQ(domain.active_readers(), 1);
    EXPECT_NE(domain.min_active_epoch(), UINT64_MAX);
  }
  EXPECT_EQ(domain.active_readers(), 0);
  EXPECT_EQ(domain.min_active_epoch(), UINT64_MAX);
}

TEST(EpochDomainTest, ExactLimboAccountingAcrossRetireAndReclaim) {
  EpochDomain domain;
  std::atomic<int> freed{0};

  // Retire with no readers: reclaimable immediately.
  for (int i = 0; i < 3; ++i) {
    domain.Retire(&freed, [](void* p) {
      static_cast<std::atomic<int>*>(p)->fetch_add(1);
    });
    ExpectAccounting(domain);
  }
  EXPECT_EQ(domain.limbo_size(), 3u);
  EXPECT_EQ(domain.Reclaim(), 3u);
  EXPECT_EQ(freed.load(), 3);
  EXPECT_EQ(domain.limbo_size(), 0u);
  ExpectAccounting(domain);

  // A stamped reader pins everything retired at or after its stamp.
  EpochDomain::Guard guard = domain.Enter();
  for (int i = 0; i < 5; ++i) {
    domain.Retire(&freed, [](void* p) {
      static_cast<std::atomic<int>*>(p)->fetch_add(1);
    });
  }
  EXPECT_EQ(domain.Reclaim(), 0u) << "reclaimed under a stamped reader";
  EXPECT_EQ(domain.limbo_size(), 5u);
  ExpectAccounting(domain);

  // A reader that enters AFTER a retire does not pin it: its stamp is
  // already past the retire epoch.
  std::thread late([&] {
    EpochDomain::Guard late_guard = domain.Enter();
    // This late stamp alone must not keep the 5 pinned entries alive once
    // the first reader leaves — but while BOTH are stamped the minimum is
    // still the first reader's epoch, so nothing frees yet.
    EXPECT_EQ(domain.active_readers(), 2);
  });
  late.join();

  guard.Release();
  EXPECT_EQ(domain.Reclaim(), 5u);
  EXPECT_EQ(freed.load(), 8);
  EXPECT_EQ(domain.limbo_size(), 0u);
  EXPECT_EQ(domain.retired_total(), domain.reclaimed_total());
  ExpectAccounting(domain);
}

TEST(EpochDomainTest, LateReaderDoesNotPinEarlierRetires) {
  EpochDomain domain;
  std::atomic<int> freed{0};
  domain.Retire(&freed, [](void* p) {
    static_cast<std::atomic<int>*>(p)->fetch_add(1);
  });
  // Enter AFTER the retire: the stamp is past the entry's retire epoch,
  // so reclamation proceeds even while this reader stays parked.
  EpochDomain::Guard parked = domain.Enter();
  EXPECT_EQ(domain.Reclaim(), 1u);
  EXPECT_EQ(freed.load(), 1);
  ExpectAccounting(domain);
}

TEST(EpochReclaimTest, ParkedReaderTriggersCopyOnStallNotReclamationStall) {
  EpochDomain domain;
  obs::MetricsRegistry registry;
  obs::Gauge* zombies = registry.GetGauge("serve_zombie_instances");

  Dataset data = MakeUniformDataset(3000, 91);
  QueryGenOptions qopts;
  qopts.num_queries = 40;
  qopts.selectivity = 1e-2;
  qopts.seed = 9;
  const Workload workload = GenerateUniformWorkload(data.bounds, qopts);

  VersionedIndexOptions vopts;
  vopts.epoch_domain = &domain;
  vopts.writer_stall_ms = 25;  // fast stall fallback for the test
  vopts.zombie_gauge = zombies;
  vopts.track_points = true;
  {
    VersionedIndex index(WaziFactory(), data, workload, FastOpts(), vopts);

    // Warm-up churn with no parked readers: retires drain on their own.
    std::vector<UpdateOp> batch;
    for (int i = 0; i < 8; ++i) {
      batch.push_back(UpdateOp::Insert(Point{0.1 + 0.01 * i, 0.2, 500000 + i}));
    }
    index.ApplyBatch(batch);
    index.ReapRetired();
    ExpectAccounting(domain);

    // Park a reader on the live snapshot from another thread.
    std::mutex mu;
    std::condition_variable cv;
    enum class Stage { kStart, kParked, kReleaseRequested, kDone };
    Stage stage = Stage::kStart;
    uint64_t parked_version = 0;
    std::thread reader([&] {
      SnapshotRef snap = index.Acquire();
      {
        std::lock_guard<std::mutex> lock(mu);
        parked_version = snap->version();
        stage = Stage::kParked;
      }
      cv.notify_all();
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return stage == Stage::kReleaseRequested; });
      }
      // The writer stalled out and replaced the instance underneath the
      // published pointer; the PARKED snapshot must still serve its
      // original membership untouched (the zombie instance).
      std::vector<Point> hits;
      QueryStats qs;
      snap->index().RangeQuery(workload.queries[0], &hits, &qs);
      EXPECT_EQ(SortedIds(hits), BruteIds(*snap->points(),
                                          workload.queries[0]));
      snap.Release();
      {
        std::lock_guard<std::mutex> lock(mu);
        stage = Stage::kDone;
      }
      cv.notify_all();
    });
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return stage == Stage::kParked; });
    }

    // Two batches against the parked reader: the writer must make
    // progress via copy-on-stall instead of waiting forever.
    const uint64_t version_before = index.version();
    index.ApplyBatch({UpdateOp::Insert(Point{0.5, 0.5, 600001})});
    index.ApplyBatch({UpdateOp::Insert(Point{0.6, 0.6, 600002})});
    EXPECT_GT(index.version(), version_before);
    EXPECT_GE(index.stall_copies(), 1);
    EXPECT_GE(zombies->value(), 1);

    // The parked stamp pins the snapshots retired after it...
    EXPECT_GT(domain.limbo_size(), 0u);
    ExpectAccounting(domain);
    // ...but reclamation itself never blocks: Reclaim returns (freeing
    // nothing newer than the stamp) while the reader stays parked.
    (void)domain.Reclaim();
    ExpectAccounting(domain);

    {
      std::lock_guard<std::mutex> lock(mu);
      stage = Stage::kReleaseRequested;
    }
    cv.notify_all();
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return stage == Stage::kDone; });
    }
    reader.join();
    EXPECT_GT(parked_version, 0u);

    // Quiesced: everything drains — limbo empties, zombies reap.
    index.ReapRetired();
    EXPECT_EQ(domain.limbo_size(), 0u);
    EXPECT_EQ(domain.retired_total(), domain.reclaimed_total());
    EXPECT_EQ(zombies->value(), 0);
  }
  // Destruction retired the remaining live state into the (empty-reader)
  // domain and reclaimed it: nothing may be left behind.
  EXPECT_EQ(domain.limbo_size(), 0u);
  EXPECT_EQ(domain.retired_total(), domain.reclaimed_total());
}

TEST(EpochReclaimTest, DestructionDoesNotBlockOnParkedReader) {
  EpochDomain domain;
  Dataset data = MakeUniformDataset(1500, 19);
  QueryGenOptions qopts;
  qopts.num_queries = 10;
  qopts.selectivity = 1e-2;
  qopts.seed = 3;
  const Workload workload = GenerateUniformWorkload(data.bounds, qopts);

  VersionedIndexOptions vopts;
  vopts.epoch_domain = &domain;
  vopts.track_points = true;

  std::mutex mu;
  std::condition_variable cv;
  bool parked = false;
  bool release_requested = false;
  std::thread reader;
  {
    auto index = std::make_unique<VersionedIndex>(WaziFactory(), data,
                                                  workload, FastOpts(), vopts);
    reader = std::thread([&, idx = index.get()] {
      SnapshotRef snap = idx->Acquire();
      {
        std::lock_guard<std::mutex> lock(mu);
        parked = true;
      }
      cv.notify_all();
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return release_requested; });
      }
      // The owning VersionedIndex is GONE; the stamped reader still owns
      // a consistent view (snapshot + instance parked in limbo).
      std::vector<Point> hits;
      QueryStats qs;
      snap->index().RangeQuery(workload.queries[0], &hits, &qs);
      EXPECT_EQ(SortedIds(hits),
                BruteIds(*snap->points(), workload.queries[0]));
      snap.Release();
    });
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return parked; });
    }
    // Destruction with a parked reader must return promptly (retire to
    // limbo, not wait) — a reader-thread release racing a blocking
    // destructor was the deadlock this design removes.
    index.reset();
  }
  EXPECT_GT(domain.limbo_size(), 0u) << "parked reader should pin the state";
  {
    std::lock_guard<std::mutex> lock(mu);
    release_requested = true;
  }
  cv.notify_all();
  reader.join();
  (void)domain.Reclaim();
  EXPECT_EQ(domain.limbo_size(), 0u);
  EXPECT_EQ(domain.retired_total(), domain.reclaimed_total());
}

TEST(EpochReclaimTest, StressAcrossForcedRepartitions) {
  EpochDomain domain;
  Dataset data = MakeUniformDataset(6000, 55);
  data = DedupeCoords(data);
  QueryGenOptions qopts;
  qopts.num_queries = 120;
  qopts.selectivity = 2e-3;
  qopts.seed = 17;
  const Workload workload = GenerateUniformWorkload(data.bounds, qopts);

  ShardedIndexOptions sopts;
  sopts.num_shards = 2;
  sopts.versioned.epoch_domain = &domain;
  sopts.versioned.writer_stall_ms = 25;
  std::atomic<int64_t> mismatches{0};
  {
    ShardedVersionedIndex index(WaziFactory(), data, workload, FastOpts(),
                                sopts);

    std::atomic<bool> stop{false};
    constexpr int kReaders = 4;
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        int i = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const Rect& q = workload.queries[(r * 31 + i++) %
                                           workload.queries.size()];
          if (i % 5 == 0) {
            // Periodically hold a whole snapshot set across several
            // queries — the parked-reader shape a batch executor has.
            ShardedVersionedIndex::SnapshotSet set;
            index.AcquireAll(&set);
            for (int j = 0; j < 3; ++j) {
              const Rect& qq = workload.queries[(r * 31 + i + j) %
                                                workload.queries.size()];
              std::vector<Point> hits;
              QueryStats qs;
              index.RangeQuery(qq, &hits, &qs, nullptr, nullptr, &set);
              if (SortedIds(hits) != TruthIds(data, qq)) {
                mismatches.fetch_add(1, std::memory_order_relaxed);
              }
            }
          } else {
            std::vector<Point> hits;
            QueryStats qs;
            index.RangeQuery(q, &hits, &qs);
            if (SortedIds(hits) != TruthIds(data, q)) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      });
    }

    // Force repartitions under the readers: each publish retires the old
    // generation's shards into the domain once the last reader moves on —
    // often ON a reader thread, exercising the non-blocking destructor.
    const int kRepartitions = 6;
    for (int rep = 0; rep < kRepartitions; ++rep) {
      const auto old_topo = index.AcquireTopology();
      const int new_shards = 2 + (rep % 3);  // 2 -> 3 -> 4 -> 2 ...
      ShardRouter router;
      router.Build(data.points, new_shards, old_topo->domain, &workload);
      auto next = index.BuildTopology(
          /*carry_from=*/nullptr, router,
          std::vector<bool>(static_cast<size_t>(new_shards), true),
          data.points, workload, old_topo->domain, old_topo->epoch + 1);
      next->version_base = index.version();
      index.PublishTopology(std::move(next));
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ExpectAccounting(domain);
    }

    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : readers) t.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(index.epoch(), 1u + kRepartitions);
    EXPECT_GT(domain.retired_total(), 0);
    ExpectAccounting(domain);
  }
  // Facade destroyed with no readers left: the domain must drain fully.
  (void)domain.Reclaim();
  EXPECT_EQ(domain.limbo_size(), 0u);
  EXPECT_EQ(domain.retired_total(), domain.reclaimed_total());
}

}  // namespace
}  // namespace wazi::serve
