#include "net/wire_load.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "net/wire_client.h"

namespace wazi::net {
namespace {

// Wire-load insert ids live above the embedded driver's block (1<<40) so
// a bench process running both arms against one server never collides.
std::atomic<int64_t> g_next_insert_id{int64_t{1} << 41};

}  // namespace

serve::ClientLoadResult RunWireClientLoad(
    const std::string& host, uint16_t port, const Workload& workload,
    const serve::ClientLoadOptions& opts) {
  const int threads = std::max(1, opts.threads);
  std::atomic<int64_t> total_queries{0};
  std::atomic<int64_t> total_writes{0};
  std::atomic<bool> start{false};
  std::atomic<bool> stop{false};
  std::vector<obs::HistogramSnapshot> latencies(static_cast<size_t>(threads));

  // Connect every client BEFORE the clock starts; a refused connect
  // aborts the run instead of measuring a partial fleet.
  std::vector<std::unique_ptr<WireClient>> clients_conn;
  clients_conn.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    std::string err;
    auto c = WireClient::Connect(host, port, &err);
    if (c == nullptr) return serve::ClientLoadResult{};
    clients_conn.push_back(std::move(c));
  }

  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      WireClient& client = *clients_conn[static_cast<size_t>(t)];
      obs::Histogram rec(obs::Histogram::FineLatencyBoundsNs());
      Rng rng(opts.seed + static_cast<uint64_t>(t));
      size_t qi = static_cast<size_t>(t) * 1337;
      size_t hot_i = static_cast<size_t>(t) * 13;
      const size_t hot_n =
          opts.hot_fraction > 0.0
              ? std::max<size_t>(
                    1, static_cast<size_t>(
                           static_cast<double>(workload.queries.size()) *
                           opts.hot_fraction))
              : 0;
      struct InFlight {
        Timer timer;
        std::future<serve::QueryResult> future;
      };
      std::deque<InFlight> in_flight;
      int64_t queries = 0, writes = 0;
      bool lost = false;  // transport died mid-run; stop this client
      const auto drain_one = [&] {
        try {
          in_flight.front().future.get();
          rec.Record(in_flight.front().timer.ElapsedNs());
          ++queries;
        } catch (const WireClientError&) {
          lost = true;
        }
        in_flight.pop_front();
      };
      std::vector<Point> inserted;
      // acquire on start: pairs with the release-store below so workers
      // see the fully set-up harness; stop is a plain flag (relaxed).
      while (!start.load(std::memory_order_acquire)) {
        if (stop.load(std::memory_order_relaxed)) break;
        std::this_thread::yield();
      }
      while (!lost && !stop.load(std::memory_order_relaxed)) {
        const bool write = opts.write_pct > 0 &&
                           static_cast<int>(rng.NextBelow(100)) <
                               opts.write_pct;
        if (write) {
          // Acks resolve on the client's reader thread; fire-and-forget
          // here matches the embedded driver's SubmitInsert semantics
          // (enqueue-and-return).
          if (inserted.size() > 64) {
            client.SubmitRemove(inserted.back());
            inserted.pop_back();
          } else {
            const Rect& reg = opts.insert_region;
            // relaxed: the counter only needs to hand out unique ids.
            Point p{reg.min_x + rng.NextDouble() * (reg.max_x - reg.min_x),
                    reg.min_y + rng.NextDouble() * (reg.max_y - reg.min_y),
                    g_next_insert_id.fetch_add(1, std::memory_order_relaxed)};
            client.SubmitInsert(p);
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
          in_flight.push_back(InFlight{Timer(), client.SubmitRange(q)});
          // Same collection discipline as the embedded driver: reap
          // already-resolved responses eagerly, block on the oldest only
          // once the pipeline is full (depth 0 = synchronous).
          while (!lost && !in_flight.empty() &&
                 in_flight.front().future.wait_for(std::chrono::seconds(0)) ==
                     std::future_status::ready) {
            drain_one();
          }
          const size_t depth =
              opts.admission_depth > 0
                  ? static_cast<size_t>(opts.admission_depth)
                  : 1;
          while (!lost && in_flight.size() >= depth) drain_one();
        }
      }
      while (!in_flight.empty()) drain_one();
      latencies[static_cast<size_t>(t)] = rec.Snapshot();
      // relaxed: totals are only read after the worker threads join.
      total_queries.fetch_add(queries, std::memory_order_relaxed);
      total_writes.fetch_add(writes, std::memory_order_relaxed);
    });
    if (opts.spawn_hook) opts.spawn_hook(t);
  }

  Timer wall;
  // release: publishes the harness set-up to the workers' acquire spin;
  // stop needs no ordering (the flag itself is the whole message).
  start.store(true, std::memory_order_release);
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<int64_t>(opts.seconds * 1e6)));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : clients) t.join();

  serve::ClientLoadResult result;
  result.elapsed_seconds = wall.ElapsedSeconds();
  result.queries = total_queries.load();
  result.writes = total_writes.load();
  result.latencies = obs::SumSnapshots(latencies);
  // Connections close here, after every thread joined.
  clients_conn.clear();
  return result;
}

}  // namespace wazi::net
