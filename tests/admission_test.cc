// Batched query admission: SubmitQuery/SubmitBatch futures must return
// exactly what direct execution returns, batches must actually coalesce
// under one snapshot acquisition, and no future may ever be abandoned —
// including across Stop and concurrent live repartitions.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <string>
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

TEST(AdmissionTest, SubmittedQueriesMatchDirectExecution) {
  TestScenario s = MakeScenario(Region::kCaliNev, 4000, 80, 2e-3, 801);
  ServeOptions opts;
  opts.num_shards = 3;
  opts.num_threads = 2;
  opts.auto_rebuild = false;
  opts.admission.window_us = 100;
  ServeLoop loop(WaziFactory(), s.data, s.workload, FastOpts(), opts);

  // One of each type, interleaved, so the dispatcher's type grouping has
  // to scatter results back to the right futures.
  std::vector<QueryRequest> requests;
  for (size_t i = 0; i < 30; ++i) {
    switch (i % 3) {
      case 0:
        requests.push_back(QueryRequest::Range(s.workload.queries[i]));
        break;
      case 1:
        requests.push_back(QueryRequest::PointLookup(s.data.points[i * 7]));
        break;
      default:
        requests.push_back(QueryRequest::Knn(s.data.points[i * 11], 5));
        break;
    }
  }
  std::vector<std::future<QueryResult>> futures;
  for (const QueryRequest& r : requests) futures.push_back(loop.SubmitQuery(r));

  for (size_t i = 0; i < requests.size(); ++i) {
    const QueryResult got = futures[i].get();
    switch (requests[i].type) {
      case QueryRequest::Type::kRange:
        EXPECT_EQ(SortedIds(got.hits), TruthIds(s.data, requests[i].rect))
            << "range " << i;
        break;
      case QueryRequest::Type::kPoint:
        EXPECT_TRUE(got.found) << "point " << i;
        break;
      case QueryRequest::Type::kKnn: {
        const QueryResult direct = loop.Knn(requests[i].point, requests[i].k);
        EXPECT_EQ(SortedIds(got.hits), SortedIds(direct.hits)) << "knn " << i;
        break;
      }
    }
  }
}

TEST(AdmissionTest, SubmitBatchCoalescesUnderOneAcquisition) {
  TestScenario s = MakeScenario(Region::kCaliNev, 3000, 80, 2e-3, 802);
  ServeOptions opts;
  opts.num_shards = 2;
  opts.num_threads = 2;
  opts.auto_rebuild = false;
  opts.admission.batch_limit = 32;
  opts.admission.window_us = 2000;
  ServeLoop loop(WaziFactory(), s.data, s.workload, FastOpts(), opts);

  // 64 requests enqueued atomically: the dispatcher must see them as two
  // full batches of batch_limit (it cannot observe a partial prefix —
  // SubmitBatch holds the queue lock while enqueueing).
  std::vector<QueryRequest> requests;
  for (size_t i = 0; i < 64; ++i) {
    requests.push_back(QueryRequest::Range(s.workload.queries[i % 80]));
  }
  std::vector<std::future<QueryResult>> futures = loop.SubmitBatch(requests);
  ASSERT_EQ(futures.size(), requests.size());
  for (size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(SortedIds(futures[i].get().hits),
              TruthIds(s.data, requests[i].rect))
        << "request " << i;
  }
  const AdmissionStats as = loop.admission_stats();
  EXPECT_EQ(as.admitted, 64);
  EXPECT_EQ(as.dispatched, 64);
  EXPECT_EQ(as.max_batch, 32);
  EXPECT_EQ(as.batches, 2);
}

TEST(AdmissionTest, DefaultsDispatchWhenIdleAndStillCoalesceBursts) {
  TestScenario s = MakeScenario(Region::kCaliNev, 3000, 80, 2e-3, 807);
  ServeOptions opts;
  opts.num_shards = 2;
  opts.num_threads = 2;
  opts.auto_rebuild = false;
  ASSERT_EQ(opts.admission.window_us, 0) << "default is dispatch-when-idle";
  ServeLoop loop(WaziFactory(), s.data, s.workload, FastOpts(), opts);

  // A lone query on an idle loop runs at once, as a batch of one.
  const Rect& q = s.workload.queries[0];
  EXPECT_EQ(SortedIds(loop.SubmitQuery(QueryRequest::Range(q)).get().hits),
            TruthIds(s.data, q));
  AdmissionStats as = loop.admission_stats();
  EXPECT_EQ(as.batches, 1);
  EXPECT_EQ(as.max_batch, 1);

  // A burst enqueued atomically still coalesces up to batch_limit.
  const size_t limit = opts.admission.batch_limit;
  std::vector<QueryRequest> requests;
  for (size_t i = 0; i < limit + limit / 2; ++i) {
    requests.push_back(QueryRequest::Range(s.workload.queries[i % 80]));
  }
  std::vector<std::future<QueryResult>> futures = loop.SubmitBatch(requests);
  for (size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(SortedIds(futures[i].get().hits),
              TruthIds(s.data, requests[i].rect))
        << "request " << i;
  }
  as = loop.admission_stats();
  EXPECT_EQ(as.dispatched, static_cast<int64_t>(1 + requests.size()));
  EXPECT_EQ(as.max_batch, static_cast<int64_t>(limit));
  EXPECT_EQ(as.batches, 3);
}

TEST(AdmissionTest, BatchIsEpochPinnedAcrossALiveRepartition) {
  TestScenario s = MakeScenario(Region::kCaliNev, 4000, 60, 2e-3, 803);
  s.data = DedupeCoords(s.data);
  ServeOptions opts;
  opts.num_shards = 3;
  opts.num_threads = 2;
  opts.auto_rebuild = false;
  opts.admission.batch_limit = 64;
  opts.admission.window_us = 500;
  ServeLoop loop(WaziFactory(), s.data, s.workload, FastOpts(), opts);

  std::atomic<bool> stop{false};
  std::thread repartitioner([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      loop.TriggerRepartition(0);
    }
  });

  // Every SubmitBatch fits one dispatch batch (<= batch_limit), so all
  // its results must report the SAME pinned epoch, no matter how many
  // topology swaps the repartitioner lands mid-flight — and membership
  // stays exact (no writes in flight).
  for (int round = 0; round < 20; ++round) {
    std::vector<QueryRequest> requests;
    for (size_t i = 0; i < 16; ++i) {
      requests.push_back(QueryRequest::Range(s.workload.queries[i]));
    }
    std::vector<std::future<QueryResult>> futures = loop.SubmitBatch(requests);
    std::vector<QueryResult> results;
    for (auto& f : futures) results.push_back(f.get());
    for (size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[i].epoch, results[0].epoch) << "round " << round;
    }
    for (size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(SortedIds(results[i].hits),
                TruthIds(s.data, requests[i].rect))
          << "round " << round << " request " << i;
    }
  }
  stop.store(true);
  repartitioner.join();
  EXPECT_GT(loop.repartitions(), 0);
}

// At num_threads = 1 the dispatcher executes each batch itself; at 2 it
// runs one block and a pool worker the other. The counters keep the same
// invariants either way.
void CheckStatsConsistency(int num_threads) {
  SCOPED_TRACE("num_threads=" + std::to_string(num_threads));
  TestScenario s = MakeScenario(Region::kCaliNev, 2000, 40, 2e-3, 805);
  ServeOptions opts;
  opts.num_shards = 2;
  opts.num_threads = num_threads;
  opts.auto_rebuild = false;
  opts.admission.batch_limit = 8;
  opts.admission.window_us = 100;
  ServeLoop loop(WaziFactory(), s.data, s.workload, FastOpts(), opts);

  // A poller hammers stats() while submitters race the dispatcher: every
  // snapshot must satisfy the struct's invariants — independently-read
  // counters used to allow e.g. dispatched > admitted between the reads.
  std::atomic<bool> stop_poller{false};
  std::atomic<int64_t> violations{0};
  std::thread poller([&] {
    while (!stop_poller.load(std::memory_order_relaxed)) {
      const AdmissionStats st = loop.admission_stats();
      if (st.dispatched > st.admitted || st.batches > st.dispatched ||
          st.max_batch > st.dispatched ||
          (st.dispatched > 0 && st.batches == 0) ||
          st.mean_batch() > static_cast<double>(st.max_batch) ||
          st.admitted < 0) {
        violations.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < 300; ++i) {
        const Rect& q = s.workload.queries[(t * 300 + i) % 40];
        loop.SubmitQuery(QueryRequest::Range(q)).get();
      }
    });
  }
  for (auto& t : clients) t.join();
  stop_poller.store(true);
  poller.join();
  EXPECT_EQ(violations.load(), 0);

  const AdmissionStats st = loop.admission_stats();
  EXPECT_EQ(st.admitted, 1200);
  EXPECT_EQ(st.dispatched, 1200);
  EXPECT_GE(st.batches, 1200 / 8);  // batch_limit caps every dispatch
  EXPECT_LE(st.max_batch, 8);

  // Post-stop inline submits keep the invariants (counted as batches of
  // one).
  loop.Stop();
  loop.SubmitQuery(QueryRequest::Range(s.workload.queries[0])).get();
  const AdmissionStats after = loop.admission_stats();
  EXPECT_EQ(after.admitted, 1201);
  EXPECT_EQ(after.dispatched, 1201);
  EXPECT_EQ(after.batches, st.batches + 1);
}

TEST(AdmissionTest, StatsSnapshotsAreMutuallyConsistent) {
  CheckStatsConsistency(1);
  CheckStatsConsistency(2);
}

TEST(AdmissionTest, ConcurrentSubmittersAllResolveAndStopDrains) {
  TestScenario s = MakeScenario(Region::kCaliNev, 3000, 60, 2e-3, 804);
  ServeOptions opts;
  opts.num_shards = 2;
  opts.num_threads = 2;
  opts.auto_rebuild = false;
  opts.admission.window_us = 300;
  ServeLoop loop(WaziFactory(), s.data, s.workload, FastOpts(), opts);

  std::atomic<int64_t> resolved{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        const Rect& q = s.workload.queries[(t * 200 + i) % 60];
        std::future<QueryResult> f =
            loop.SubmitQuery(QueryRequest::Range(q));
        if (SortedIds(f.get().hits) == TruthIds(s.data, q)) {
          resolved.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(resolved.load(), 800);
  const AdmissionStats as = loop.admission_stats();
  EXPECT_EQ(as.dispatched, as.admitted);

  // Stop drains; a submit AFTER stop still resolves (inline fallback).
  loop.Stop();
  std::future<QueryResult> late =
      loop.SubmitQuery(QueryRequest::Range(s.workload.queries[0]));
  EXPECT_EQ(SortedIds(late.get().hits),
            TruthIds(s.data, s.workload.queries[0]));
}

TEST(AdmissionTest, PostStopInlinePathCountsDispatchBeforeResolving) {
  // Regression: the post-Stop inline paths of Submit and SubmitBatch used
  // to resolve the promise BEFORE CountDispatched, so a waiter observing
  // its result could catch stats() with that query admitted but not yet
  // dispatched. The fix restores the DispatchBatch ordering contract:
  // whoever holds a resolved future must find it counted.
  TestScenario s = MakeScenario(Region::kCaliNev, 2000, 60, 2e-3, 806);
  ServeOptions opts;
  opts.num_shards = 2;
  opts.num_threads = 2;
  opts.auto_rebuild = false;
  ServeLoop loop(WaziFactory(), s.data, s.workload, FastOpts(), opts);
  loop.Stop();
  const AdmissionStats before = loop.admission_stats();

  // Stats poller from a separate (waiter-side) thread: the ordering
  // invariant dispatched <= admitted must hold at every instant, both
  // mid-run and across the inline executions below.
  std::atomic<bool> poll{true};
  std::thread poller([&] {
    while (poll.load(std::memory_order_relaxed)) {
      const AdmissionStats st = loop.admission_stats();
      EXPECT_LE(st.dispatched, st.admitted);
      EXPECT_LE(st.batches, st.dispatched);  // every batch has >= 1 query
    }
  });

  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      int64_t observed = 0;
      for (int i = 0; i < kPerThread; ++i) {
        const Rect& q = s.workload.queries[(t * 31 + i) % 60];
        std::future<QueryResult> f;
        if (i % 2 == 0) {
          f = loop.SubmitQuery(QueryRequest::Range(q));
        } else {
          f = std::move(
              loop.SubmitBatch({QueryRequest::Range(q)}).front());
        }
        EXPECT_EQ(SortedIds(f.get().hits), TruthIds(s.data, q));
        ++observed;
        // The waiter-side guarantee: every result this thread has in
        // hand is already visible in dispatched (other threads only add).
        EXPECT_GE(loop.admission_stats().dispatched, observed);
      }
    });
  }
  for (auto& t : submitters) t.join();
  poll.store(false, std::memory_order_relaxed);
  poller.join();

  const AdmissionStats after = loop.admission_stats();
  EXPECT_EQ(after.admitted - before.admitted, kThreads * kPerThread);
  EXPECT_EQ(after.dispatched - before.dispatched, kThreads * kPerThread);
  // Inline executions are batches of one.
  EXPECT_EQ(after.batches - before.batches, kThreads * kPerThread);
}

}  // namespace
}  // namespace wazi::serve
