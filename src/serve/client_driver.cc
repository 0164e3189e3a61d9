#include "serve/client_driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"

namespace wazi::serve {
namespace {

// Insert ids must never collide with dataset ids (generators assign
// 0..n-1) or with a previous run against the same ServeLoop.
std::atomic<int64_t> g_next_insert_id{int64_t{1} << 40};

}  // namespace

ClientLoadResult RunClientLoad(ServeLoop& loop, const Workload& workload,
                               const ClientLoadOptions& opts) {
  const int threads = std::max(1, opts.threads);
  std::atomic<int64_t> total_queries{0};
  std::atomic<int64_t> total_writes{0};
  // Clients spin-wait on `start` so the wall clock below covers every
  // counted op: queries issued while later threads were still being
  // spawned used to land outside the timed window and inflate QPS.
  std::atomic<bool> start{false};
  std::atomic<bool> stop{false};
  std::vector<obs::HistogramSnapshot> latencies(static_cast<size_t>(threads));

  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      obs::Histogram rec(obs::Histogram::FineLatencyBoundsNs());
      Rng rng(opts.seed + static_cast<uint64_t>(t));
      QueryStats qs;
      size_t qi = static_cast<size_t>(t) * 1337;
      size_t hot_i = static_cast<size_t>(t) * 13;
      const size_t hot_n =
          opts.hot_fraction > 0.0
              ? std::max<size_t>(
                    1, static_cast<size_t>(
                           static_cast<double>(workload.queries.size()) *
                           opts.hot_fraction))
              : 0;
      // Pipelined admission: submitted-but-unresolved queries, oldest
      // first, each paired with its submit-time clock.
      struct InFlight {
        Timer timer;
        std::future<QueryResult> future;
      };
      std::deque<InFlight> in_flight;
      const auto drain_one = [&](int64_t* queries) {
        in_flight.front().future.wait();
        rec.Record(in_flight.front().timer.ElapsedNs());
        in_flight.pop_front();
        ++*queries;
      };
      std::vector<Point> inserted;
      int64_t queries = 0, writes = 0;
      // acquire on start: pairs with the harness's release-store so
      // workers see the set-up; stop is a plain flag (relaxed).
      while (!start.load(std::memory_order_acquire)) {
        if (stop.load(std::memory_order_relaxed)) break;
        std::this_thread::yield();
      }
      while (!stop.load(std::memory_order_relaxed)) {
        const bool write = opts.write_pct > 0 &&
                           static_cast<int>(rng.NextBelow(100)) <
                               opts.write_pct;
        if (write) {
          if (inserted.size() > 64) {
            loop.SubmitRemove(inserted.back());
            inserted.pop_back();
          } else {
            const Rect& reg = opts.insert_region;
            // relaxed: the counter only needs to hand out unique ids.
            Point p{reg.min_x + rng.NextDouble() * (reg.max_x - reg.min_x),
                    reg.min_y + rng.NextDouble() * (reg.max_y - reg.min_y),
                    g_next_insert_id.fetch_add(1, std::memory_order_relaxed)};
            loop.SubmitInsert(p);
            inserted.push_back(p);
          }
          ++writes;
        } else {
          const bool hot =
              hot_n > 0 &&
              static_cast<int>(rng.NextBelow(100)) < opts.hot_pct;
          const Rect& q =
              hot ? workload.queries[hot_i++ % hot_n]
                  : workload.queries[qi++ % workload.queries.size()];
          if (opts.read_hook) opts.read_hook(t, hot, q);
          if (opts.admission_depth > 0) {
            in_flight.push_back(
                InFlight{Timer(), loop.SubmitQuery(QueryRequest::Range(q))});
            // Collect already-resolved futures promptly (FIFO), so the
            // recorded latency tracks submit -> ready instead of
            // charging queue-sitting time while this client was busy
            // submitting; then block on the oldest only once
            // `admission_depth` are in flight, keeping the pipeline
            // primed so the admission window can fill batches from this
            // thread alone.
            while (!in_flight.empty() &&
                   in_flight.front().future.wait_for(
                       std::chrono::seconds(0)) ==
                       std::future_status::ready) {
              drain_one(&queries);
            }
            while (in_flight.size() >=
                   static_cast<size_t>(opts.admission_depth)) {
              drain_one(&queries);
            }
          } else {
            Timer timer;
            loop.Range(q, &qs);
            rec.Record(timer.ElapsedNs());
            ++queries;
          }
        }
      }
      while (!in_flight.empty()) drain_one(&queries);
      latencies[static_cast<size_t>(t)] = rec.Snapshot();
      // relaxed: totals are only read after the worker threads join.
      total_queries.fetch_add(queries, std::memory_order_relaxed);
      total_writes.fetch_add(writes, std::memory_order_relaxed);
    });
    if (opts.spawn_hook) opts.spawn_hook(t);
  }

  // Clock first, then release the latch: no client issues an op before
  // the wall timer is running.
  Timer wall;
  start.store(true, std::memory_order_release);
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<int64_t>(opts.seconds * 1e6)));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : clients) t.join();

  ClientLoadResult result;
  result.elapsed_seconds = wall.ElapsedSeconds();
  loop.Flush();
  result.queries = total_queries.load();
  result.writes = total_writes.load();
  result.latencies = obs::SumSnapshots(latencies);
  return result;
}

}  // namespace wazi::serve
