// Client-load driver timing: the reported QPS must be queries-in-window /
// wall-of-window. The regression here is the spawn phase — clients used
// to start issuing (and counting) queries while later threads were still
// being spawned, BEFORE the wall clock started, so anything that slowed
// thread spawning inflated QPS. The driver now gates every client on a
// start latch released only once the clock runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/wazi.h"
#include "serve/client_driver.h"
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

TEST(ClientDriverTest, WallClockCoversConfiguredDuration) {
  TestScenario s = MakeScenario(Region::kCaliNev, 2000, 40, 2e-3, 701);
  ServeOptions opts;
  opts.num_shards = 1;
  opts.auto_rebuild = false;
  ServeLoop loop(WaziFactory(), s.data, s.workload, FastOpts(), opts);

  ClientLoadOptions load;
  load.threads = 2;
  load.seconds = 0.2;
  const ClientLoadResult r = RunClientLoad(loop, s.workload, load);
  EXPECT_GE(r.elapsed_seconds, load.seconds);
  EXPECT_GT(r.queries, 0);
}

TEST(ClientDriverTest, SlowThreadSpawnCannotInflateQps) {
  TestScenario s = MakeScenario(Region::kCaliNev, 2000, 40, 2e-3, 702);
  ServeOptions opts;
  opts.num_shards = 1;
  opts.auto_rebuild = false;
  ServeLoop loop(WaziFactory(), s.data, s.workload, FastOpts(), opts);

  // Stretch the spawn phase to ~1.2 thread-seconds of pre-clock time.
  // Pre-fix, already-spawned clients burned that whole stretch issuing
  // counted queries outside the timed window, inflating QPS by ~1.6x.
  // The checks below count queries instead of timing two runs against
  // each other, so they do not move with the machine's speed.
  constexpr int kThreads = 4;
  std::atomic<int64_t> reads{0};
  std::atomic<int64_t> reads_during_spawn{0};
  std::vector<std::atomic<int64_t>> reads_by_thread(kThreads);
  ClientLoadOptions slow;
  slow.threads = kThreads;
  slow.seconds = 0.5;
  slow.read_hook = [&](int t, bool, const Rect&) {
    reads.fetch_add(1);
    reads_by_thread[static_cast<size_t>(t)].fetch_add(1);
  };
  slow.spawn_hook = [&](int) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    reads_during_spawn.fetch_add(reads.load());
  };
  const ClientLoadResult r = RunClientLoad(loop, s.workload, slow);

  // No client issued a query while later ones were still spawning...
  EXPECT_EQ(reads_during_spawn.load(), 0)
      << "clients ran before the wall clock started";
  // ...so every counted query ran inside the timed window, and QPS is
  // the window's queries over the window's wall time.
  EXPECT_EQ(r.queries, reads.load());
  EXPECT_GE(r.elapsed_seconds, slow.seconds);
  // The latch released every client (the hook must not starve any).
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_GT(reads_by_thread[static_cast<size_t>(t)].load(), 0)
        << "client " << t;
  }
}

TEST(ClientDriverTest, HotFractionConcentratesReadMass) {
  TestScenario s = MakeScenario(Region::kCaliNev, 2000, 100, 2e-3, 704);
  ServeOptions opts;
  opts.num_shards = 1;
  opts.auto_rebuild = false;
  ServeLoop loop(WaziFactory(), s.data, s.workload, FastOpts(), opts);

  // hot_fraction 0.1 / hot_pct 90: ~90% of reads must re-ask the first
  // 10% of the workload's queries, and every hot rect must come from
  // that prefix.
  const size_t hot_count = s.workload.queries.size() / 10;
  std::atomic<int64_t> hot_reads{0};
  std::atomic<int64_t> total_reads{0};
  std::atomic<int64_t> misattributed{0};
  ClientLoadOptions load;
  load.threads = 2;
  load.seconds = 0.2;
  load.hot_fraction = 0.1;
  load.hot_pct = 90;
  load.read_hook = [&](int, bool hot, const Rect& rect) {
    total_reads.fetch_add(1, std::memory_order_relaxed);
    if (!hot) return;
    hot_reads.fetch_add(1, std::memory_order_relaxed);
    bool in_prefix = false;
    for (size_t i = 0; i < hot_count; ++i) {
      const Rect& h = s.workload.queries[i];
      if (h.min_x == rect.min_x && h.min_y == rect.min_y &&
          h.max_x == rect.max_x && h.max_y == rect.max_y) {
        in_prefix = true;
        break;
      }
    }
    if (!in_prefix) misattributed.fetch_add(1, std::memory_order_relaxed);
  };
  RunClientLoad(loop, s.workload, load);

  ASSERT_GT(total_reads.load(), 1000);
  EXPECT_EQ(misattributed.load(), 0)
      << "hot reads drew rects outside the hot prefix";
  const double hot_share = static_cast<double>(hot_reads.load()) /
                           static_cast<double>(total_reads.load());
  EXPECT_GT(hot_share, 0.85) << "hot share " << hot_share;
  EXPECT_LT(hot_share, 0.95) << "hot share " << hot_share;
}

TEST(ClientDriverTest, SameSeedSameStreamDifferentSeedDifferent) {
  TestScenario s = MakeScenario(Region::kCaliNev, 1000, 40, 2e-3, 705);
  ServeOptions opts;
  opts.num_shards = 1;
  opts.auto_rebuild = false;
  ServeLoop loop(WaziFactory(), s.data, s.workload, FastOpts(), opts);

  // One client thread records its first K (hot?, rect) decisions; the
  // stream is a pure function of the seed, so two same-seed runs must
  // agree exactly and a different seed must diverge.
  constexpr size_t kPrefix = 256;
  const auto record = [&](uint64_t seed) {
    std::vector<std::pair<bool, double>> stream;
    ClientLoadOptions load;
    load.threads = 1;
    load.seconds = 0.05;
    load.hot_fraction = 0.1;
    load.hot_pct = 50;  // make the hot/cold coin-flips part of the stream
    load.seed = seed;
    load.read_hook = [&](int, bool hot, const Rect& rect) {
      if (stream.size() < kPrefix) stream.emplace_back(hot, rect.min_x);
    };
    RunClientLoad(loop, s.workload, load);
    return stream;
  };

  const auto a = record(7);
  const auto b = record(7);
  const auto c = record(8);
  ASSERT_EQ(a.size(), kPrefix);
  const size_t shared = std::min(a.size(), b.size());
  EXPECT_TRUE(std::equal(a.begin(), a.begin() + shared, b.begin()))
      << "same seed diverged within the first " << shared << " reads";
  EXPECT_FALSE(a.size() == c.size() && std::equal(a.begin(), a.end(),
                                                  c.begin()))
      << "different seeds produced identical streams";
}

TEST(ClientDriverTest, InsertsLandInsideInsertRegion) {
  TestScenario s = MakeScenario(Region::kCaliNev, 1000, 40, 2e-3, 706);
  ServeOptions opts;
  opts.num_shards = 2;
  opts.auto_rebuild = false;
  ServeLoop loop(WaziFactory(), s.data, s.workload, FastOpts(), opts);

  const Rect region = Rect::Of(0.1, 0.2, 0.3, 0.4);
  ClientLoadOptions load;
  load.threads = 2;
  load.seconds = 0.2;
  load.write_pct = 50;
  load.insert_region = region;
  const ClientLoadResult r = RunClientLoad(loop, s.workload, load);
  ASSERT_GT(r.writes, 0);

  // Driver-inserted points carry ids >= 1<<40 (dataset ids are dense and
  // small); every one remaining after the flush must sit inside region.
  const QueryResult all = loop.Range(Rect::Of(0.0, 0.0, 1.0, 1.0));
  int64_t inserted = 0;
  for (const Point& p : all.hits) {
    if (p.id < (int64_t{1} << 40)) continue;
    ++inserted;
    EXPECT_TRUE(p.x >= region.min_x && p.x <= region.max_x &&
                p.y >= region.min_y && p.y <= region.max_y)
        << "inserted point (" << p.x << ", " << p.y << ") escaped region";
  }
  EXPECT_GT(inserted, 0) << "no inserted points survived to check";
}

TEST(ClientDriverTest, SpawnHookRunsOncePerThreadOnDrivingThread) {
  TestScenario s = MakeScenario(Region::kCaliNev, 1000, 20, 2e-3, 703);
  ServeOptions opts;
  opts.num_shards = 1;
  opts.auto_rebuild = false;
  ServeLoop loop(WaziFactory(), s.data, s.workload, FastOpts(), opts);

  const std::thread::id driver = std::this_thread::get_id();
  std::vector<int> seen;
  ClientLoadOptions load;
  load.threads = 3;
  load.seconds = 0.05;
  load.spawn_hook = [&](int t) {
    EXPECT_EQ(std::this_thread::get_id(), driver);
    seen.push_back(t);
  };
  RunClientLoad(loop, s.workload, load);
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2}));
}

}  // namespace
}  // namespace wazi::serve
