// Shared client-load driver for the serving benchmarks and the
// `wazi_cli throughput` command: N client threads issue range queries
// (and optionally a write mix) against a ServeLoop for a fixed duration.
// Each thread records every read's latency into its own histogram; the
// histograms are summed after the join.

#ifndef WAZI_SERVE_CLIENT_DRIVER_H_
#define WAZI_SERVE_CLIENT_DRIVER_H_

#include <cstdint>
#include <functional>

#include "obs/metrics.h"
#include "serve/serve_loop.h"

namespace wazi::serve {

struct ClientLoadOptions {
  int threads = 1;
  // Percentage of ops that are writes (alternating inserts and removes of
  // this run's own inserts); 0 = read-only.
  int write_pct = 0;
  double seconds = 1.0;
  // Region inserted points are drawn from (uniformly). The default covers
  // the generators' unit square; the shifting_skew scenario narrows it to
  // a corner to skew the per-shard item counts.
  Rect insert_region = Rect::Of(0.0, 0.0, 1.0, 1.0);
  // Skewed query selection: with probability `hot_pct`% a read re-asks one
  // of the first `hot_fraction` of the workload's queries (round-robin
  // within that hot set) instead of round-robinning the whole workload.
  // 0 keeps the uniform round-robin. The ycsb_mix scenario uses 0.1/90 —
  // 90% of reads hit the hottest 10% of rectangles.
  double hot_fraction = 0.0;
  int hot_pct = 90;
  // Pipelined admission: when > 0, reads go through ServeLoop::SubmitQuery
  // with this many queries in flight per client thread. Latency = submit
  // to FIFO collection: resolved futures are collected eagerly each
  // iteration, so it tracks submit -> future-ready (coalescing window
  // included) up to the client's own time between iterations. 0 keeps
  // the direct execute-on-calling-thread path.
  int admission_depth = 0;
  // Base of every per-thread RNG stream (thread t draws from Rng(seed + t)).
  // Two runs with the same seed and thread count issue byte-identical
  // per-thread op streams, so a baseline comparison measures the engine,
  // not the generator. The scenario library forks this from its --seed.
  uint64_t seed = 1000;
  // Test-only: observes every read op on its issuing client thread, with
  // the thread index, whether the hot set supplied the rectangle, and the
  // rectangle itself — the skew-distribution and determinism tests record
  // the stream through this. Leave empty in benchmarks (per-op branch).
  std::function<void(int thread, bool hot, const Rect& rect)> read_hook;
  // Test-only: invoked on the driving thread right after client thread
  // `t` is spawned (before the next spawn). Lets a test stretch the spawn
  // phase and assert that slow spawns cannot inflate the reported QPS —
  // clients gate on a start latch released only once the wall clock runs.
  std::function<void(int)> spawn_hook;
};

struct ClientLoadResult {
  int64_t queries = 0;
  int64_t writes = 0;
  double elapsed_seconds = 0.0;
  // Every completed read's latency (obs::Histogram::FineLatencyBoundsNs
  // buckets), summed over the client threads.
  obs::HistogramSnapshot latencies;
};

// Drives `loop` with opts.threads client threads for opts.seconds. Reads
// walk `workload` round-robin with per-thread offsets and execute on the
// calling thread (the wait-free snapshot path); writes are enqueued to the
// background writer. Inserted points draw globally unique ids from a
// process-wide counter, so repeated runs against one ServeLoop never
// collide. Blocks until the duration elapses, clients join, and pending
// writes are flushed.
ClientLoadResult RunClientLoad(ServeLoop& loop, const Workload& workload,
                               const ClientLoadOptions& opts);

}  // namespace wazi::serve

#endif  // WAZI_SERVE_CLIENT_DRIVER_H_
