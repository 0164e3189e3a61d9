// Microbenchmark: snapshot acquisition cost, refcount vs epoch.
//
// The serving engine's per-query fixed cost is dominated by pinning a
// consistent snapshot. The pre-epoch design paid two contended RMWs per
// Acquire/Release on the shared_ptr control block (every reader core
// bouncing one cache line); the epoch design pays one store to the
// reader's own padded slot plus a pointer load. This bench measures both
// under a reader-thread sweep and FAILS (exit 1) if the epoch path does
// not at least match the refcounted path at the top thread count — the
// regression gate for the reclamation rewrite.
//
// Arms:
//   shared_ptr  AtomicCell<const IndexSnapshot> (the retired mechanism,
//               kept here as the baseline): Load() copies the shared_ptr.
//   epoch       VersionedIndex::Acquire(): epoch stamp + raw pointer load.
//
// Emits BENCH_acquire.json (schema wazi.bench.micro/1, validated by
// tools/check_bench_json.py). Re-record protocol in BENCHMARKS.md.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "index/spatial_index.h"
#include "obs/exporters.h"
#include "serve/index_snapshot.h"
#include "workload/dataset.h"

namespace {

using wazi::AssignIds;
using wazi::ComputeBounds;
using wazi::Dataset;
using wazi::MakeIndex;
using wazi::Point;
using wazi::Rect;
using wazi::Rng;
using wazi::Timer;
using wazi::Workload;
using wazi::serve::AtomicCell;
using wazi::serve::IndexSnapshot;
using wazi::serve::VersionedIndex;

struct Row {
  std::string name;
  int threads = 0;
  int64_t ops = 0;
  double ns_per_op = 0.0;
};

// Runs `body` (one acquire+touch) in a tight loop on `threads` threads
// for ~`seconds`, returns aggregate ops and per-op latency.
template <typename Body>
Row Drive(const std::string& name, int threads, double seconds,
          const Body& body) {
  std::atomic<bool> start{false};
  std::atomic<bool> stop{false};
  std::vector<int64_t> per_thread(static_cast<size_t>(threads), 0);
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) {
      }
      int64_t ops = 0;
      uint64_t sink = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        // 64 acquires per stop-flag check keeps the flag poll off the
        // measured path.
        for (int i = 0; i < 64; ++i) sink += body();
        ops += 64;
      }
      per_thread[static_cast<size_t>(t)] = ops;
      // Defeat dead-code elimination of the acquire+touch.
      if (sink == 0xdeadbeef) std::fprintf(stderr, "sink\n");
    });
  }
  Timer timer;
  start.store(true, std::memory_order_release);
  std::this_thread::sleep_for(
      std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& w : workers) w.join();
  const double elapsed_ns = static_cast<double>(timer.ElapsedNs());
  Row row;
  row.name = name;
  row.threads = threads;
  for (const int64_t ops : per_thread) row.ops += ops;
  // Average per-acquire latency as one thread experienced it: thread-time
  // spent divided by total acquires.
  row.ns_per_op =
      row.ops > 0 ? elapsed_ns * threads / static_cast<double>(row.ops) : 0.0;
  return row;
}

Dataset TinyDataset(size_t n) {
  Dataset d;
  d.name = "bench_acquire_synthetic";
  Rng rng(42);
  d.points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    d.points.push_back(Point{rng.NextDouble(), rng.NextDouble(), 0});
  }
  AssignIds(&d.points);
  d.bounds = ComputeBounds(d.points);
  return d;
}

int WriteJson(const char* path, const std::vector<Row>& rows,
              double seconds, double speedup_at_max) {
  wazi::obs::JsonWriter w;
  w.BeginObject();
  w.Key("schema").String("wazi.bench.micro/1");
  w.Key("bench").String("acquire");
  w.Key("scenario").String("snapshot_acquire_sweep");
  w.Key("seconds_per_row").Double(seconds);
  w.Key("rows").BeginArray();
  for (const Row& r : rows) {
    w.BeginObject();
    w.Key("name").String(r.name);
    w.Key("threads").Int(r.threads);
    w.Key("ops").Int(r.ops);
    w.Key("ns_per_op").Double(r.ns_per_op);
    w.EndObject();
  }
  w.EndArray();
  w.Key("summary").BeginObject();
  w.Key("speedup_at_max_threads").Double(speedup_at_max);
  w.EndObject();
  w.EndObject();
  if (!wazi::obs::WriteFile(path, w.str() + "\n")) {
    std::fprintf(stderr, "[acquire] cannot write %s\n", path);
    return 1;
  }
  std::printf("[acquire] wrote %s\n", path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = "BENCH_acquire.json";
  double seconds = 0.3;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      seconds = std::atof(argv[++i]);
    }
  }
  if (const char* env = std::getenv("WAZI_BENCH_SECONDS")) {
    seconds = std::atof(env);
  }

  const Dataset data = TinyDataset(2048);
  Workload workload;
  workload.name = "acquire";
  workload.queries.push_back(data.bounds);
  workload.selectivity = 1.0;

  // Epoch arm: the real serving path.
  VersionedIndex index([] { return MakeIndex("wazi"); }, data, workload,
                       wazi::BuildOptions{});

  // shared_ptr arm: the retired publication mechanism, reconstructed —
  // an atomic shared_ptr cell whose Load() is exactly what Acquire() was.
  auto baseline_index = MakeIndex("wazi");
  baseline_index->Build(data, workload, wazi::BuildOptions{});
  AtomicCell<const IndexSnapshot> cell;
  cell.Store(std::make_shared<const IndexSnapshot>(std::move(baseline_index),
                                                   /*version=*/1, nullptr));

  std::vector<Row> rows;
  double shared_at_max = 0.0;
  double epoch_at_max = 0.0;
  const int kThreads[] = {1, 2, 4, 8, 16};
  for (const int threads : kThreads) {
    const Row shared = Drive("shared_ptr", threads, seconds, [&cell] {
      const std::shared_ptr<const IndexSnapshot> snap = cell.Load();
      return snap->version();
    });
    const Row epoch = Drive("epoch", threads, seconds, [&index] {
      const wazi::serve::SnapshotRef snap = index.Acquire();
      return snap->version();
    });
    std::printf("[acquire] threads=%2d  shared_ptr %8.1f ns/op   epoch %8.1f "
                "ns/op   (x%.2f)\n",
                threads, shared.ns_per_op, epoch.ns_per_op,
                epoch.ns_per_op > 0 ? shared.ns_per_op / epoch.ns_per_op : 0);
    shared_at_max = shared.ns_per_op;
    epoch_at_max = epoch.ns_per_op;
    rows.push_back(shared);
    rows.push_back(epoch);
  }

  const double speedup =
      epoch_at_max > 0 ? shared_at_max / epoch_at_max : 0.0;
  int rc = WriteJson(json_path, rows, seconds, speedup);
  // The gate: at the top of the sweep (16 readers; the acceptance bar is
  // >= 8) epoch acquire must at least match the refcounted baseline. 5%
  // tolerance absorbs timer jitter on loaded CI runners.
  if (speedup < 0.95) {
    std::fprintf(stderr,
                 "[acquire] FAIL: epoch acquire slower than shared_ptr at "
                 "%d threads (%.1f vs %.1f ns/op)\n",
                 16, epoch_at_max, shared_at_max);
    rc = 1;
  }
  return rc;
}
