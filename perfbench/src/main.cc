// perfbench_engine: runs one workload of the serving-engine benchmark
// against a live ServeLoop and prints its metrics, each with its unit and
// sample count, then one JSON line with the verdict and the metrics.
//
//   perfbench_engine --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> [--trace-dir DIR]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload with spans around calls into each layer and reports the
// per-layer metrics, writing the spans to DIR/trace_<workload>.jsonl.
// Exits 1 when any output check or invariant fails. README.md explains the
// workloads, the metrics and the thread budget.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "net/wire_client.h"
#include "net/wire_server.h"
#include "obs/metrics.h"
#include "serve/epoch.h"
#include "serve/serve_loop.h"
#include "trace.h"
#include "workloads.h"

namespace wazi::perfbench {
namespace {

constexpr int kClients = 2;        // closed-loop read clients per workload
constexpr int kSetupRuns = 3;      // set-ups timed per untraced run
constexpr double kWarmupSeconds = 2.0;
constexpr int kPointPct = 20;      // share of reads that are point lookups
constexpr int kHotPct = 90;        // share of ranges on the hot rectangles
constexpr size_t kWireDepth = 8;   // requests in flight per wire client
constexpr size_t kWireLive = 64;   // inserts a wire client keeps stored
constexpr int64_t kSampleEvery = 16;  // traced: every 16th read decomposed
constexpr int64_t kProbePeriodNs = 5'000'000;
constexpr int64_t kVisibleTimeoutNs = 1'000'000'000;
constexpr int64_t kPollNs = 50'000;
constexpr int64_t kTraceSliceNs = 500'000'000;
constexpr double kMigrationAt = 0.8;  // rebalance: trigger point in segment
constexpr int kApplyBatches = 1000;
constexpr size_t kSentinelsPerProbe = 8;

struct Args {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir = ".";
};

enum Phase { kWarmup, kMeasuring, kStopped };

void SleepUntilNs(int64_t t) {
  const int64_t now = NowNs();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

// Log-linear histogram bounds, 64 per power of two (under 1.6% relative
// width) up to 68 s. Fixed memory, so the benchmark's own footprint does
// not grow with the engine's throughput and rss_peak_mb measures the
// engine.
const std::vector<int64_t>& LatencyBoundsNs() {
  static const std::vector<int64_t> bounds = [] {
    std::vector<int64_t> b;
    for (int64_t v = 1; v < (int64_t{1} << 36);
         v += std::max<int64_t>(1, v / 64)) {
      b.push_back(v);
    }
    return b;
  }();
  return bounds;
}

// What every load thread shares.
struct Run {
  const WorkloadSpec& spec;
  bool trace;
  serve::ServeLoop* loop;
  int64_t window_ns;
  std::atomic<int> phase{kWarmup};
  std::atomic<int> segment{0};
  std::atomic<int64_t> window_start_ns{0};

  bool Stopped() const { return phase.load() == kStopped; }
  // Whether an op started at `t` belongs to the measured window.
  bool InWindow(int64_t t) const {
    const int64_t since = t - window_start_ns.load();
    return phase.load() != kWarmup && since >= 0 && since < window_ns;
  }
  // Traced runs alternate 0.5 s slices with and without tracing, so one
  // run also measures the tracing overhead.
  bool TracedAt(int64_t t) const {
    return trace && InWindow(t) &&
           ((t - window_start_ns.load()) / kTraceSliceNs) % 2 == 0;
  }
};

// One thread's measurements; merged after the threads join.
struct ThreadResult {
  explicit ThreadResult(uint16_t tag) : spans(tag) {}

  obs::Histogram range{LatencyBoundsNs()}, point{LatencyBoundsNs()};
  obs::Histogram visible{LatencyBoundsNs()}, late{LatencyBoundsNs()};
  int64_t attempted = 0, failed = 0;
  int64_t window_reads = 0;
  int64_t traced_reads = 0, untraced_reads = 0;
  int64_t window_writes = 0;  // single ops: an update is a remove + insert
  std::vector<std::string> errors;
  SpanLog spans;
  // Sampled decomposed reads (traced runs).
  QueryStats index_stats;
  int64_t sampled_ranges = 0, sampled_subqueries = 0;
  int64_t compared = 0;  // sampled pairs that ran on the same snapshots
  std::vector<int64_t> glue_ns, admission_wait_ns;
  int64_t limbo_max = 0, limbo_samples = 0;

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 5) errors.push_back(what);
  }
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) Fail(what);
  }
};

void RecordRead(const Run& run, ThreadResult& r, bool point, int64_t start,
                bool ok, bool sampled) {
  const int64_t end = NowNs();
  r.Check(ok, point ? "point lookup missed a stored point"
                    : "range read returned a wrong result");
  if (!run.InWindow(start)) return;
  ++r.window_reads;
  if (run.trace) ++(run.TracedAt(start) ? r.traced_reads : r.untraced_reads);
  // A sampled read runs two executions of one request; it is not timed.
  if (!sampled) (point ? r.point : r.range).Record(end - start);
}

void Submit(const Run& run, ThreadResult& r, const Point& p, bool insert,
            bool traced) {
  const int64_t start = NowNs();
  {
    std::optional<Span> span;
    if (traced) {
      span.emplace(r.spans, "serve.writer.submit", r.spans.NewRequest(), 0);
    }
    if (insert) {
      run.loop->SubmitInsert(p);
    } else {
      run.loop->SubmitRemove(p);
    }
  }
  r.attempted += 1;
  if (run.InWindow(start)) ++r.window_writes;
}

// Calls op(k, due) for ops due every 1/rate seconds, on schedule whatever
// the engine does, and records how late each op was sent.
template <typename Op>
void OpenLoop(const Run& run, double rate, ThreadResult& r, Op op) {
  const double period_ns = 1e9 / rate;
  const int64_t start = NowNs();
  for (int64_t k = 0;; ++k) {
    const int64_t due =
        start + static_cast<int64_t>(static_cast<double>(k) * period_ns);
    int64_t now = NowNs();
    while (now < due && !run.Stopped()) {
      SleepUntilNs(std::min(due, now + 1'000'000));
      now = NowNs();
    }
    if (run.Stopped()) return;
    if (run.InWindow(due)) r.late.Record(now - due);
    op(k, due);
  }
}

class ReadPicker {
 public:
  struct Read {
    bool point = false;
    int seg = 0;
    size_t index = 0;
  };

  // Each client starts its round robins at offsets drawn from `rng`.
  ReadPicker(const WorkloadSpec& spec, Rng rng)
      : spec_(spec),
        rng_(rng),
        range_i_(rng_.NextBelow(kStartSpread)),
        hot_i_(rng_.NextBelow(kStartSpread)),
        point_i_(rng_.NextBelow(kStartSpread)) {}

  Read Next(int seg) {
    Read read;
    read.seg = seg;
    if (static_cast<int>(rng_.NextBelow(100)) < kPointPct) {
      read.point = true;
      read.index = point_i_++ % spec_.point_reads.size();
    } else if (spec_.hot_rects > 0 &&
               static_cast<int>(rng_.NextBelow(100)) < kHotPct) {
      read.index = hot_i_++ % spec_.hot_rects;
    } else {
      read.index = range_i_++ % spec_.segments[static_cast<size_t>(seg)]
                                    .rects.size();
    }
    return read;
  }

  const Rect& RectOf(const Read& read) const {
    return spec_.segments[static_cast<size_t>(read.seg)].rects[read.index];
  }
  const Point& PointOf(const Read& read) const {
    return spec_.point_reads[read.index];
  }

 private:
  static constexpr uint64_t kStartSpread = uint64_t{1} << 20;

  const WorkloadSpec& spec_;
  Rng rng_;
  size_t range_i_, hot_i_, point_i_;
};

// --- sampled reads: the benchmark walks the layers itself -----------------

// A range read through the layers' public calls, one span per call.
// Returns the time spent inside those calls (the child spans).
int64_t DecomposedRange(const Run& run, ThreadResult& r, const Rect& rect,
                        std::vector<Point>* out, uint64_t* version_mass,
                        uint64_t* epoch) {
  SpanLog& log = r.spans;
  const uint64_t req = log.NewRequest();
  Span root(log, "read.range", req, 0);
  const size_t first_child = log.spans().size();
  std::shared_ptr<serve::ShardTopology> topo;
  {
    Span s(log, "serve.snapshot.topology_acquire", req, root.id());
    topo = run.loop->sharded_index().AcquireTopology();
  }
  std::vector<serve::ShardSubquery> subs;
  {
    Span s(log, "serve.router.decompose", req, root.id());
    topo->router.Decompose(rect, &subs);
  }
  QueryStats stats;
  for (const serve::ShardSubquery& sub : subs) {
    serve::SnapshotRef snap;
    {
      Span s(log, "serve.snapshot.acquire", req, root.id());
      snap = topo->shards[static_cast<size_t>(sub.shard)]->Acquire();
    }
    *version_mass += snap->version();
    Projection proj;
    {
      Span s(log, "index.project", req, root.id());
      snap->index().Project(sub.rect, &proj, &stats);
    }
    {
      Span s(log, "index.scan", req, root.id());
      snap->index().ScanProjection(proj, sub.rect, out, &stats);
    }
  }
  *epoch = topo->epoch;
  r.index_stats.Add(stats);
  ++r.sampled_ranges;
  r.sampled_subqueries += static_cast<int64_t>(subs.size());
  int64_t inside_ns = 0;
  for (size_t i = first_child; i < log.spans().size(); ++i) {
    inside_ns += log.spans()[i].duration_ns();
  }
  return inside_ns;
}

bool DecomposedPoint(const Run& run, ThreadResult& r, const Point& p) {
  SpanLog& log = r.spans;
  const uint64_t req = log.NewRequest();
  Span root(log, "read.point", req, 0);
  std::shared_ptr<serve::ShardTopology> topo;
  {
    Span s(log, "serve.snapshot.topology_acquire", req, root.id());
    topo = run.loop->sharded_index().AcquireTopology();
  }
  serve::SnapshotRef snap;
  {
    Span s(log, "serve.snapshot.acquire", req, root.id());
    snap = topo->shards[static_cast<size_t>(topo->router.ShardOf(p))]
               ->Acquire();
  }
  QueryStats stats;
  Span s(log, "index.point", req, root.id());
  return snap->index().PointQuery(p, &stats);
}

// Runs a sampled read decomposed and, for a range, also through
// ServeLoop::Range, back to back in alternating order. The two must agree
// whenever they ran on the same snapshots; the difference in time is the
// loop's own share (glue).
bool SampledRead(const Run& run, ThreadResult& r, const ReadPicker& pick,
                 const ReadPicker::Read& read, bool decomposed_first) {
  if (read.point) return DecomposedPoint(run, r, pick.PointOf(read));
  const Rect& rect = pick.RectOf(read);
  std::vector<Point> hits;
  uint64_t mass = 0, epoch = 0;
  int64_t decomposed_ns = 0, loop_ns = 0;
  serve::QueryResult direct;
  const auto decomposed = [&] {
    decomposed_ns = DecomposedRange(run, r, rect, &hits, &mass, &epoch);
  };
  const auto through_loop = [&] {
    const int64_t t0 = NowNs();
    direct = run.loop->Range(rect);
    loop_ns = NowNs() - t0;
  };
  if (decomposed_first) {
    decomposed();
    through_loop();
  } else {
    through_loop();
    decomposed();
  }
  r.glue_ns.push_back(loop_ns - decomposed_ns);
  bool ok = CheckRange(run.spec, read.seg, read.index, hits) &&
            CheckRange(run.spec, read.seg, read.index, direct.hits);
  // Per-shard versions only grow, so equal sums over the same shards mean
  // both reads saw the same snapshots.
  if (direct.epoch == epoch && direct.snapshot_version == mass) {
    ++r.compared;
    ok = ok && hits.size() == direct.hits.size() &&
         HitChecksum(hits) == HitChecksum(direct.hits);
  }
  return ok;
}

// --- load threads ---------------------------------------------------------

void EmbeddedClient(const Run& run, Rng rng, ThreadResult& r) {
  ReadPicker pick(run.spec, rng);
  int64_t tick = 0;
  while (!run.Stopped()) {
    const ReadPicker::Read read = pick.Next(run.segment.load());
    const int64_t start = NowNs();
    if (run.TracedAt(start) && ++tick % kSampleEvery == 0) {
      const bool ok =
          SampledRead(run, r, pick, read, (tick / kSampleEvery) % 2 == 0);
      RecordRead(run, r, read.point, start, ok, /*sampled=*/true);
      continue;
    }
    const bool ok =
        read.point ? run.loop->PointLookup(pick.PointOf(read))
                   : CheckRange(run.spec, read.seg, read.index,
                                run.loop->Range(pick.RectOf(read)).hits);
    RecordRead(run, r, read.point, start, ok, /*sampled=*/false);
  }
}

// A pipelined wire client: kWireDepth requests in flight, responses
// collected oldest first. `live` ends as the inserts it left stored.
void WireClientLoop(const Run& run, Rng rng, int64_t first_id,
                    net::WireClient& client, ThreadResult& r,
                    std::vector<Point>* live) {
  struct InFlight {
    bool write = false;
    int64_t start = 0;
    ReadPicker::Read read;
    std::future<serve::QueryResult> result;
    std::future<void> ack;
    bool ready() const {
      return (write ? ack.wait_for(std::chrono::seconds(0))
                    : result.wait_for(std::chrono::seconds(0))) ==
             std::future_status::ready;
    }
  };
  ReadPicker pick(run.spec, rng.Fork());
  const Rect& out = run.spec.outside;
  int64_t next_id = first_id;
  std::deque<InFlight> in_flight;
  const auto drain_one = [&] {
    InFlight f = std::move(in_flight.front());
    in_flight.pop_front();
    bool ok = true;
    try {
      if (f.write) {
        f.ack.get();
      } else {
        const serve::QueryResult res = f.result.get();
        ok = f.read.point ? res.found
                          : CheckRange(run.spec, f.read.seg, f.read.index,
                                       res.hits);
      }
    } catch (const net::WireClientError&) {
      ok = false;
    }
    if (f.write) {
      r.Check(ok, "wire write was not acknowledged");
      if (run.InWindow(f.start)) ++r.window_writes;
    } else {
      RecordRead(run, r, f.read.point, f.start, ok, /*sampled=*/false);
    }
  };
  int64_t tick = 0;
  while (!run.Stopped()) {
    InFlight f;
    f.start = NowNs();
    if (static_cast<int>(rng.NextBelow(100)) < run.spec.wire_write_pct) {
      f.write = true;
      if (live->size() > kWireLive) {
        f.ack = client.SubmitRemove(live->back());
        live->pop_back();
      } else {
        const Point p{rng.Uniform(out.min_x, out.max_x),
                      rng.Uniform(out.min_y, out.max_y), next_id++};
        f.ack = client.SubmitInsert(p);
        live->push_back(p);
      }
    } else {
      f.read = pick.Next(run.segment.load());
      if (run.TracedAt(f.start) && ++tick % kSampleEvery == 0) {
        const bool ok =
            SampledRead(run, r, pick, f.read, (tick / kSampleEvery) % 2 == 0);
        RecordRead(run, r, f.read.point, f.start, ok, /*sampled=*/true);
        continue;
      }
      f.result = f.read.point ? client.SubmitPoint(pick.PointOf(f.read))
                              : client.SubmitRange(pick.RectOf(f.read));
    }
    in_flight.push_back(std::move(f));
    while (!in_flight.empty() && in_flight.front().ready()) drain_one();
    while (in_flight.size() >= kWireDepth) drain_one();
  }
  while (!in_flight.empty()) drain_one();
}

// churn: open-loop position updates of the even-id objects, round robin.
void Updater(const Run& run, ThreadResult& r, int64_t* updates) {
  const std::vector<std::vector<Point>>& pos = run.spec.positions;
  const size_t moving = (run.spec.data.points.size() + 1) / 2;
  int64_t tick = 0;
  OpenLoop(run, run.spec.update_rate, r, [&](int64_t k, int64_t due) {
    const size_t i = 2 * (static_cast<size_t>(k) % moving);
    const size_t pass = static_cast<size_t>(k) / moving;
    const bool traced = run.TracedAt(due) && ++tick % kSampleEvery == 0;
    Submit(run, r, pos[pass % pos.size()][i], /*insert=*/false, traced);
    Submit(run, r, pos[(pass + 1) % pos.size()][i], /*insert=*/true, traced);
    *updates = k + 1;
  });
}

// rebalance: open-loop inserts into the current segment's region.
void Inserter(const Run& run, Rng rng, ThreadResult& r,
              std::vector<Point>* inserted) {
  int64_t tick = 0;
  OpenLoop(run, run.spec.insert_rate, r, [&](int64_t k, int64_t due) {
    const Rect& reg =
        run.spec.insert_regions[static_cast<size_t>(run.segment.load())];
    const Point p{rng.Uniform(reg.min_x, reg.max_x),
                  rng.Uniform(reg.min_y, reg.max_y), kInsertIdBase + k};
    const bool traced = run.TracedAt(due) && ++tick % kSampleEvery == 0;
    Submit(run, r, p, /*insert=*/true, traced);
    inserted->push_back(p);
  });
}

// Traced slices: one call into each of the cache, admission and wire
// layers, timed by the benchmark.
void LayerProbe(const Run& run, ThreadResult& r, net::WireClient& wire,
                int64_t k) {
  const int seg = run.segment.load();
  const RectSet& set = run.spec.segments[static_cast<size_t>(seg)];
  const size_t i = static_cast<size_t>(k) % set.rects.size();
  const Rect& rect = set.rects[i];
  const uint64_t req = r.spans.NewRequest();
  {
    const std::shared_ptr<serve::ShardTopology> topo =
        run.loop->sharded_index().AcquireTopology();
    std::vector<Point> cached;
    bool hit = false;
    {
      Span s(r.spans, "serve.cache.lookup", req, 0);
      hit = run.loop->result_cache().Lookup(rect, *topo, nullptr, &cached);
    }
    if (hit) {
      r.Check(CheckRange(run.spec, seg, i, cached),
              "result cache served a wrong result");
    }
  }
  const int64_t t0 = NowNs();
  serve::QueryResult admitted;
  {
    Span s(r.spans, "serve.admission.submit", req, 0);
    admitted = run.loop->SubmitQuery(serve::QueryRequest::Range(rect)).get();
  }
  const int64_t t1 = NowNs();
  serve::QueryResult direct;
  {
    Span s(r.spans, "serve.loop.range", req, 0);
    direct = run.loop->Range(rect);
  }
  r.admission_wait_ns.push_back((t1 - t0) - (NowNs() - t1));
  r.Check(CheckRange(run.spec, seg, i, admitted.hits),
          "admitted range read returned a wrong result");
  r.Check(CheckRange(run.spec, seg, i, direct.hits),
          "range read returned a wrong result");
  bool ok = false;
  try {
    Span s(r.spans, "net.wire_range", req, 0);
    ok = CheckRange(run.spec, seg, i, wire.Range(rect).hits);
  } catch (const net::WireClientError&) {
  }
  r.Check(ok, "wire range read failed");
}

// Every 5 ms, on schedule: insert a fresh probe point and poll until a
// PointLookup sees it. Rebalance also checks sentinels here; traced runs
// sample the epoch limbo and, in traced slices, add one LayerProbe round.
void Probe(const Run& run, Rng rng, ThreadResult& r, net::WireClient* wire,
           std::vector<Point>* probes) {
  const Rect& out = run.spec.outside;
  const std::vector<Point>& sentinels = run.spec.sentinels;
  size_t sentinel_i = 0;
  OpenLoop(run, 1e9 / kProbePeriodNs, r, [&](int64_t k, int64_t due) {
    const Point p{rng.Uniform(out.min_x, out.max_x),
                  rng.Uniform(out.min_y, out.max_y), kProbeIdBase + k};
    probes->push_back(p);
    Submit(run, r, p, /*insert=*/true, run.TracedAt(due));
    bool seen = false;
    int64_t now = NowNs();
    while (!(seen = run.loop->PointLookup(p)) &&
           now - due < kVisibleTimeoutNs) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(kPollNs));
      now = NowNs();
    }
    now = NowNs();
    r.Check(seen, "probe point still invisible after 1 s");
    if (seen && run.InWindow(due)) r.visible.Record(now - due);
    for (size_t s = 0; s < kSentinelsPerProbe && !sentinels.empty(); ++s) {
      r.Check(run.loop->PointLookup(sentinels[sentinel_i++ % sentinels.size()]),
              "sentinel point missing");
    }
    if (run.trace) {
      r.limbo_max = std::max(
          r.limbo_max,
          static_cast<int64_t>(serve::EpochDomain::Global().limbo_size()));
      ++r.limbo_samples;
      if (run.TracedAt(now) && wire != nullptr) LayerProbe(run, r, *wire, k);
    }
  });
}

// --- results --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;
};

// Linearly interpolated percentile of sorted samples (0 when empty).
double Pct(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const double rank = pct / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  if (lo + 1 >= sorted.size()) return sorted.back();
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Pct(values, 50);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Registry deltas over the measured window.
struct Window {
  obs::MetricsSnapshot before, after;
  double seconds = 0.0;

  double Delta(const std::string& counter) const {
    return static_cast<double>(after.CounterValue(counter) -
                               before.CounterValue(counter));
  }
  // Percentile of a registry histogram over the window alone.
  double HistogramPct(const std::string& name, double pct) const {
    const auto find = [&](const obs::MetricsSnapshot& snap) {
      for (const auto& [n, h] : snap.histograms) {
        if (n == name) return h;
      }
      return obs::HistogramSnapshot{};
    };
    obs::HistogramSnapshot delta = find(after);
    const obs::HistogramSnapshot b = find(before);
    for (size_t i = 0; i < b.buckets.size() && i < delta.buckets.size(); ++i) {
      delta.buckets[i] -= b.buckets[i];
    }
    delta.count -= b.count;
    delta.sum -= b.sum;
    return delta.Percentile(pct);
  }
};

// The journal's migration phases, in order: plan, capture, catch-up,
// cutover, retire. Phase p's time is boundary p+1 minus boundary p.
const obs::TraceEventKind kMigrationEvents[] = {
    obs::TraceEventKind::kMigrationPlan,
    obs::TraceEventKind::kMigrationCapture,
    obs::TraceEventKind::kMigrationCatchUp,
    obs::TraceEventKind::kMigrationCutover,
    obs::TraceEventKind::kMigrationRetire};
const char* const kPhaseNames[] = {
    "serve.migration.capture", "serve.migration.build",
    "serve.migration.cutover", "serve.migration.retire"};
constexpr size_t kPhases = 4;

struct Migration {
  double wall_s = 0.0;
  serve::MigrationStats stats;
  std::vector<int64_t> boundary_ns;  // one per kMigrationEvents entry found
};

// The journal timestamps of the migration that produced `epoch`.
std::vector<int64_t> MigrationBoundaries(const serve::ServeLoop& loop,
                                         uint64_t epoch) {
  const std::vector<obs::TraceEvent> events =
      loop.journal().Tail(loop.journal().capacity());
  std::vector<int64_t> at;
  for (obs::TraceEventKind kind : kMigrationEvents) {
    for (const obs::TraceEvent& e : events) {
      if (e.kind == kind && e.epoch == epoch) {
        at.push_back(e.t_ns);
        break;
      }
    }
  }
  return at;
}

// The points the quiesced loop must hold, sorted by id.
std::vector<Point> ExpectedMembership(
    const WorkloadSpec& spec, int64_t updates,
    const std::vector<const std::vector<Point>*>& inserted) {
  std::vector<Point> want = spec.data.points;
  if (!spec.positions.empty()) {
    const size_t moving = (want.size() + 1) / 2;
    const size_t u = static_cast<size_t>(updates);
    for (size_t i = 0; i < want.size(); i += 2) {
      const size_t moves = u / moving + ((i / 2) < u % moving ? 1 : 0);
      want[i] = spec.positions[moves % spec.positions.size()][i];
    }
  }
  want.insert(want.end(), spec.sentinels.begin(), spec.sentinels.end());
  for (const std::vector<Point>* v : inserted) {
    want.insert(want.end(), v->begin(), v->end());
  }
  std::sort(want.begin(), want.end(),
            [](const Point& a, const Point& b) { return a.id < b.id; });
  return want;
}

bool SameMembership(std::vector<Point> got, const std::vector<Point>& want,
                    std::string* why) {
  std::sort(got.begin(), got.end(),
            [](const Point& a, const Point& b) { return a.id < b.id; });
  if (got.size() != want.size()) {
    *why = "final membership: " + std::to_string(got.size()) +
           " points stored, " + std::to_string(want.size()) + " expected";
    return false;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].id != want[i].id || got[i].x != want[i].x ||
        got[i].y != want[i].y) {
      *why = "final membership: point " + std::to_string(want[i].id) +
             " missing or misplaced";
      return false;
    }
  }
  return true;
}

// ApplyBatch on a private VersionedIndex holding shard 0's base points,
// alternately inserting `batch` fresh points and removing them again.
std::vector<double> MeasureApplyBatch(const WorkloadSpec& spec,
                                      const serve::ShardTopology& topo,
                                      size_t batch, Rng rng) {
  Dataset shard;
  shard.name = spec.data.name;
  shard.bounds = topo.router.ClampedCellRect(0);
  for (const Point& p : spec.data.points) {
    if (topo.router.ShardOf(p) == 0) shard.points.push_back(p);
  }
  serve::VersionedIndex index([] { return MakeIndex("wazi"); }, shard,
                              topo.shard_workloads[0], BuildOptions{});
  const Rect& cell = shard.bounds;
  std::vector<serve::UpdateOp> ops;
  std::vector<double> ns;
  int64_t next_id = kApplyIdBase;
  for (int b = 0; b < kApplyBatches; ++b) {
    if (b % 2 == 0) {
      ops.clear();
      for (size_t j = 0; j < batch; ++j) {
        ops.push_back(serve::UpdateOp::Insert(
            Point{rng.Uniform(cell.min_x, cell.max_x),
                  rng.Uniform(cell.min_y, cell.max_y), next_id++}));
      }
    } else {
      for (serve::UpdateOp& op : ops) op.kind = serve::UpdateOp::Kind::kRemove;
    }
    const int64_t t0 = NowNs();
    index.ApplyBatch(ops);
    ns.push_back(static_cast<double>(NowNs() - t0));
  }
  std::sort(ns.begin(), ns.end());
  return ns;
}

// What one run produced: every thread's measurements and the
// coordinator's, read by the metric functions below.
struct Outcome {
  std::vector<std::unique_ptr<ThreadResult>> results;
  std::vector<double> setup_s;
  std::vector<Migration> migrations;
  Window window;
  double drain_s = 0.0;
  double rss_mb = 0.0;

  int64_t Sum(int64_t ThreadResult::*member) const {
    int64_t sum = 0;
    for (const auto& r : results) sum += (*r).*member;
    return sum;
  }
  // Every thread's samples of one kind, in one histogram.
  obs::HistogramSnapshot Merged(obs::Histogram ThreadResult::*member) const {
    obs::HistogramSnapshot all = ((*results.front()).*member).Snapshot();
    for (size_t t = 1; t < results.size(); ++t) {
      const obs::HistogramSnapshot s = ((*results[t]).*member).Snapshot();
      for (size_t i = 0; i < s.buckets.size(); ++i) {
        all.buckets[i] += s.buckets[i];
      }
      all.count += s.count;
      all.sum += s.sum;
    }
    return all;
  }
  std::vector<double> Sorted(std::vector<int64_t> ThreadResult::*member) const {
    std::vector<double> all;
    for (const auto& r : results) {
      for (int64_t v : (*r).*member) all.push_back(static_cast<double>(v));
    }
    std::sort(all.begin(), all.end());
    return all;
  }
  // Applied writes: those submitted in the window, over the window plus
  // the Flush() that drains them.
  double WritePerS() const {
    return Ratio(static_cast<double>(Sum(&ThreadResult::window_writes)),
                 window.seconds + drain_s);
  }
};

std::vector<Metric> EndToEndMetrics(const Outcome& o) {
  const int64_t reads = o.Sum(&ThreadResult::window_reads);
  const obs::HistogramSnapshot range = o.Merged(&ThreadResult::range);
  const obs::HistogramSnapshot point = o.Merged(&ThreadResult::point);
  const obs::HistogramSnapshot visible = o.Merged(&ThreadResult::visible);
  return {
      {"setup_s", Median(o.setup_s), "s",
       static_cast<int64_t>(o.setup_s.size())},
      {"read_qps", static_cast<double>(reads) / o.window.seconds, "1/s", reads},
      {"range_p50_us", range.Percentile(50) * 1e-3, "us", range.count},
      {"range_p99_us", range.Percentile(99) * 1e-3, "us", range.count},
      {"point_p50_us", point.Percentile(50) * 1e-3, "us", point.count},
      {"write_per_s", o.WritePerS(), "1/s",
       o.Sum(&ThreadResult::window_writes)},
      {"visible_p50_ms", visible.Percentile(50) * 1e-6, "ms", visible.count},
      {"visible_p90_ms", visible.Percentile(90) * 1e-6, "ms", visible.count},
      {"rss_peak_mb", o.rss_mb, "MB", 1}};
}

// Lines printed by every run but not part of its result. The two tails
// here repeat too poorly from run to run to gate a change on (README.md).
std::vector<Metric> InfoMetrics(const Outcome& o) {
  const int64_t attempted = o.Sum(&ThreadResult::attempted);
  const obs::HistogramSnapshot point = o.Merged(&ThreadResult::point);
  const obs::HistogramSnapshot visible = o.Merged(&ThreadResult::visible);
  const obs::HistogramSnapshot late = o.Merged(&ThreadResult::late);
  std::vector<Metric> info = {
      {"error_rate",
       Ratio(static_cast<double>(o.Sum(&ThreadResult::failed)),
             static_cast<double>(attempted)),
       "fraction", attempted},
      {"drain_s", o.drain_s, "s", 1},
      {"gen_late_p99_ms", late.Percentile(99) * 1e-6, "ms", late.count},
      {"point_p99_us", point.Percentile(99) * 1e-3, "us", point.count},
      {"visible_p99_ms", visible.Percentile(99) * 1e-6, "ms", visible.count}};
  for (size_t i = 0; i < o.migrations.size(); ++i) {
    const Migration& m = o.migrations[i];
    const std::string tag = "migration" + std::to_string(i + 1);
    info.push_back({tag + ".wall_s", m.wall_s, "s", 1});
    info.push_back({tag + ".moved_shards",
                    static_cast<double>(m.stats.last_moved_shards), "count", 1});
    info.push_back({tag + ".carried_shards",
                    static_cast<double>(m.stats.last_carried_shards), "count",
                    1});
    info.push_back({tag + ".moved_points",
                    static_cast<double>(m.stats.last_moved_points), "count",
                    1});
  }
  return info;
}

// Traced runs. Span times are p50 of the span's duration: every span a
// metric reads is a leaf, so its duration is its self time.
std::vector<Metric> PerLayerMetrics(const Outcome& o, const WorkloadSpec& spec,
                                    serve::ServeLoop& loop, Rng rng) {
  std::map<std::string, std::vector<double>> spans;
  for (const auto& r : o.results) {
    for (const SpanRecord& s : r->spans.spans()) {
      spans[s.name].push_back(static_cast<double>(s.duration_ns()));
    }
  }
  for (auto& [name, ns] : spans) std::sort(ns.begin(), ns.end());
  const auto span = [&](const char* name, double pct, double scale,
                        const char* metric, const char* unit) {
    const std::vector<double>& ns = spans[name];
    return Metric{metric, Pct(ns, pct) * scale, unit,
                  static_cast<int64_t>(ns.size())};
  };
  const auto count = [](double value, const char* name, const char* unit,
                        double samples) {
    return Metric{name, value, unit, static_cast<int64_t>(samples)};
  };

  QueryStats st;
  for (const auto& r : o.results) st.Add(r->index_stats);
  const double sampled = static_cast<double>(o.Sum(&ThreadResult::sampled_ranges));
  const std::vector<double> glue = o.Sorted(&ThreadResult::glue_ns);
  const std::vector<double> wait = o.Sorted(&ThreadResult::admission_wait_ns);
  int64_t limbo_max = 0;
  for (const auto& r : o.results) limbo_max = std::max(limbo_max, r->limbo_max);

  // Migrations: the median over the run's migrations (none off rebalance).
  std::vector<double> walls, moved, phase_ms[kPhases];
  for (const Migration& m : o.migrations) {
    walls.push_back(m.wall_s);
    moved.push_back(static_cast<double>(m.stats.last_moved_points));
    for (size_t p = 0; p + 1 < m.boundary_ns.size(); ++p) {
      phase_ms[p].push_back(
          static_cast<double>(m.boundary_ns[p + 1] - m.boundary_ns[p]) * 1e-6);
    }
  }
  const auto median_of = [](std::vector<double> v, const char* name,
                            const char* unit) {
    return Metric{name, v.empty() ? 0.0 : Median(v), unit,
                  static_cast<int64_t>(v.size())};
  };

  // Work done after the window, outside the measured load.
  const std::shared_ptr<serve::ShardTopology> topo =
      loop.sharded_index().AcquireTopology();
  size_t index_bytes = 0;
  for (const auto& shard : topo->shards) {
    index_bytes += shard->Acquire()->index().SizeBytes();
  }
  const Window& w = o.window;
  const double writes = static_cast<double>(o.Sum(&ThreadResult::window_writes));
  const double publishes = w.Delta("serve_snapshot_publishes_total");
  const size_t batch = static_cast<size_t>(
      std::max(1.0, std::round(Ratio(writes, publishes))));
  const std::vector<double> apply = MeasureApplyBatch(spec, *topo, batch, rng);
  const int64_t build_t0 = NowNs();
  MakeIndex("wazi")->Build(spec.data, spec.build_workload, BuildOptions{});
  const double build_s = static_cast<double>(NowNs() - build_t0) * 1e-9;

  const double lookups = w.Delta("serve_cache_hits_total") +
                         w.Delta("serve_cache_misses_total") +
                         w.Delta("serve_cache_invalidations_total");
  const double batches = w.Delta("serve_admission_batches_total");
  const double responses = w.Delta("net_responses_total");
  const obs::HistogramSnapshot late = o.Merged(&ThreadResult::late);
  // Reads in the traced and the untraced halves of the window.
  const double traced = static_cast<double>(o.Sum(&ThreadResult::traced_reads));
  const double untraced =
      static_cast<double>(o.Sum(&ThreadResult::untraced_reads));
  return {
      span("index.project", 50, 1e-3, "index.project_us", "us"),
      span("index.scan", 50, 1e-3, "index.scan_us", "us"),
      span("index.point", 50, 1e-3, "index.point_us", "us"),
      count(Ratio(static_cast<double>(st.points_scanned),
                  static_cast<double>(st.results)),
            "index.scanned_per_result", "ratio", sampled),
      count(Ratio(static_cast<double>(st.pages_scanned), sampled),
            "index.pages_per_range", "count", sampled),
      count(Ratio(static_cast<double>(st.bbs_checked), sampled),
            "index.bbs_per_range", "count", sampled),
      count(Ratio(static_cast<double>(st.scalar_tail),
                  static_cast<double>(st.points_scanned)),
            "index.scalar_tail_share", "fraction", sampled),
      count(build_s, "index.build_s", "s", 1),
      count(Ratio(static_cast<double>(index_bytes),
                  static_cast<double>(topo->num_points())),
            "index.bytes_per_point", "B", topo->num_shards()),
      span("serve.snapshot.topology_acquire", 50, 1.0,
           "serve.snapshot.topology_acquire_ns", "ns"),
      span("serve.snapshot.acquire", 50, 1.0, "serve.snapshot.acquire_ns",
           "ns"),
      count(Pct(glue, 50) * 1e-3, "serve.loop.range_glue_us", "us",
            static_cast<double>(glue.size())),
      span("serve.router.decompose", 50, 1.0, "serve.router.route_ns", "ns"),
      count(Ratio(static_cast<double>(o.Sum(&ThreadResult::sampled_subqueries)),
                  sampled),
            "serve.router.shards_per_range", "count", sampled),
      count(static_cast<double>(limbo_max), "serve.epoch.limbo_max", "count",
            static_cast<double>(o.Sum(&ThreadResult::limbo_samples))),
      count(Pct(apply, 50) * 1e-3, "serve.writer.apply_batch_us", "us",
            static_cast<double>(apply.size())),
      count(Pct(apply, 99) * 1e-3, "serve.writer.apply_batch_p99_us", "us",
            static_cast<double>(apply.size())),
      count(Ratio(writes, publishes), "serve.writer.ops_per_publish", "ratio",
            writes),
      count(w.Delta("serve_stall_copies_total"), "serve.writer.stall_copies",
            "count", 1),
      span("serve.writer.submit", 50, 1.0, "serve.writer.submit_ns", "ns"),
      count(o.drain_s * 1e3, "serve.writer.drain_ms", "ms", 1),
      median_of(walls, "serve.migration.wall_s", "s"),
      median_of(phase_ms[0], "serve.migration.capture_ms", "ms"),
      median_of(phase_ms[1], "serve.migration.build_ms", "ms"),
      median_of(phase_ms[2], "serve.migration.cutover_ms", "ms"),
      median_of(phase_ms[3], "serve.migration.retire_ms", "ms"),
      median_of(moved, "serve.migration.moved_points", "count"),
      count(Ratio(w.Delta("serve_cache_hits_total"), lookups),
            "serve.cache.hit_rate", "fraction", lookups),
      count(Ratio(w.Delta("serve_cache_invalidations_total"), lookups),
            "serve.cache.invalidation_rate", "fraction", lookups),
      span("serve.cache.lookup", 50, 1.0, "serve.cache.lookup_ns", "ns"),
      count(Pct(wait, 50) * 1e-3, "serve.admission.wait_us", "us",
            static_cast<double>(wait.size())),
      count(Ratio(w.Delta("serve_admission_dispatched_total"), batches),
            "serve.admission.batch_mean", "count", batches),
      span("net.wire_range", 50, 1e-3, "net.roundtrip_us", "us"),
      span("net.wire_range", 99, 1e-3, "net.roundtrip_p99_us", "us"),
      count(w.HistogramPct("net_request_latency_ns", 50) * 1e-3,
            "net.server_us", "us", responses),
      count(Ratio(w.Delta("net_bytes_written_total"), responses),
            "net.bytes_per_response", "B", responses),
      count(w.Delta("net_backpressure_pauses_total"),
            "net.backpressure_pauses", "count", responses),
      count(late.Percentile(99) * 1e-6, "bench.gen_late_p99_ms", "ms",
            static_cast<double>(late.count)),
      count(100.0 * (1.0 - Ratio(traced, untraced)),
            "bench.trace_overhead_pct", "%", traced + untraced)};
}

void PrintMetric(const Metric& m) {
  std::printf("metric %-36s %14.6g %-8s n=%lld\n", m.name.c_str(), m.value,
              m.unit.c_str(), static_cast<long long>(m.samples));
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int RunWorkload(const Args& args) {
  WorkloadSpec spec;
  if (!MakeWorkload(args.workload, args.seed, &spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("workload %s seed %llu seconds %g trace %d points %zu "
              "shards %d\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, spec.data.points.size(),
              spec.options.num_shards);
  // Every stream the load threads draw from, forked in a fixed order.
  Rng streams(args.seed);
  Outcome o;

  // --- set-up: ServeLoop construction (+ WireServer::Start) -------------
  std::unique_ptr<serve::ServeLoop> loop;
  std::unique_ptr<net::WireServer> server;
  const auto start_server = [&] {
    server = std::make_unique<net::WireServer>(loop.get());
    std::string error;
    if (!server->Start(&error)) {
      std::fprintf(stderr, "wire server failed to start: %s\n",
                   error.c_str());
      return false;
    }
    return true;
  };
  for (int s = 0; s < (args.trace ? 1 : kSetupRuns); ++s) {
    server.reset();
    loop.reset();
    serve::EpochDomain::Global().Reclaim();
    const int64_t t0 = NowNs();
    loop = std::make_unique<serve::ServeLoop>(
        [] { return MakeIndex("wazi"); }, spec.data, spec.build_workload,
        BuildOptions{}, spec.options);
    if (spec.wire && !start_server()) return 1;
    o.setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  // The traced run's extra connection needs a server on every workload.
  if (args.trace && server == nullptr && !start_server()) return 1;
  for (const Point& p : spec.sentinels) loop->SubmitInsert(p);
  loop->Flush();

  Run run{spec, args.trace, loop.get(),
          static_cast<int64_t>(args.seconds * 1e9)};
  std::vector<std::unique_ptr<net::WireClient>> conns;
  const auto connect = [&] {
    std::string error;
    conns.push_back(net::WireClient::Connect("127.0.0.1", server->port(),
                                             &error));
    if (conns.back() == nullptr) {
      std::fprintf(stderr, "wire connect failed: %s\n", error.c_str());
      return false;
    }
    return true;
  };
  for (int t = 0; t < (spec.wire ? kClients : 0); ++t) {
    if (!connect()) return 1;
  }
  net::WireClient* traced_conn = nullptr;
  if (args.trace) {
    if (!connect()) return 1;
    traced_conn = conns.back().get();
  }

  // --- load -------------------------------------------------------------
  const auto new_result = [&] {
    o.results.push_back(std::make_unique<ThreadResult>(
        static_cast<uint16_t>(o.results.size())));
    return o.results.back().get();
  };
  std::vector<std::vector<Point>> wire_live(kClients);
  std::vector<Point> probes, inserted;
  int64_t updates = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    ThreadResult* r = new_result();
    const Rng rng = streams.Fork();
    if (spec.wire) {
      threads.emplace_back([&, t, r, rng] {
        WireClientLoop(run, rng, kWireIdBase + (int64_t{t} << 32),
                       *conns[static_cast<size_t>(t)], *r,
                       &wire_live[static_cast<size_t>(t)]);
      });
    } else {
      threads.emplace_back([&, r, rng] { EmbeddedClient(run, rng, *r); });
    }
  }
  if (spec.update_rate > 0.0) {
    ThreadResult* r = new_result();
    threads.emplace_back([&, r] { Updater(run, *r, &updates); });
  }
  if (spec.insert_rate > 0.0) {
    ThreadResult* r = new_result();
    const Rng rng = streams.Fork();
    threads.emplace_back([&, r, rng] { Inserter(run, rng, *r, &inserted); });
  }
  {
    ThreadResult* r = new_result();
    const Rng rng = streams.Fork();
    threads.emplace_back(
        [&, r, rng] { Probe(run, rng, *r, traced_conn, &probes); });
  }
  ThreadResult& coordinator = *new_result();  // this thread

  std::this_thread::sleep_for(
      std::chrono::nanoseconds(static_cast<int64_t>(kWarmupSeconds * 1e9)));
  o.window.before = loop->metrics().Snapshot();
  const int64_t window_start = NowNs();
  run.window_start_ns.store(window_start);
  run.phase.store(kMeasuring);

  // rebalance: the window splits into segments; from the second on, reads
  // and inserts move to a new corner and a migration starts 80% in. A
  // separate thread runs the migrations, so the segment schedule on this
  // thread never waits for one.
  const int segments = static_cast<int>(spec.segments.size());
  const auto segment_start = [&](int s) {
    return window_start + run.window_ns * s / segments;
  };
  o.migrations.resize(static_cast<size_t>(segments - 1));
  std::thread migrator;
  if (segments > 1) {
    ThreadResult* r = new_result();
    migrator = std::thread([&, r] {
      for (int s = 1; s < segments; ++s) {
        SleepUntilNs(segment_start(s) +
                     static_cast<int64_t>(kMigrationAt *
                                          static_cast<double>(run.window_ns) /
                                          segments));
        Migration& m = o.migrations[static_cast<size_t>(s - 1)];
        const uint64_t req = r->spans.NewRequest();
        const int64_t t0 = NowNs();
        uint64_t span_id = 0;
        {
          Span span(r->spans, "serve.migration", req, 0);
          span_id = span.id();
          r->Check(loop->TriggerRepartition(), "repartition did not run");
        }
        m.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
        m.stats = loop->migration_stats();
        m.boundary_ns = MigrationBoundaries(*loop, loop->epoch());
        r->Check(m.boundary_ns.size() == kPhases + 1,
                 "migration journal events missing");
        for (size_t p = 0; p + 1 < m.boundary_ns.size(); ++p) {
          r->spans.Add(kPhaseNames[p], req, span_id, m.boundary_ns[p],
                       m.boundary_ns[p + 1]);
        }
      }
    });
  }
  for (int s = 1; s < segments; ++s) {
    SleepUntilNs(segment_start(s));
    run.segment.store(s);
  }
  SleepUntilNs(window_start + run.window_ns);
  o.window.after = loop->metrics().Snapshot();
  run.phase.store(kStopped);
  o.window.seconds = static_cast<double>(run.window_ns) * 1e-9;
  for (std::thread& t : threads) t.join();
  if (migrator.joinable()) migrator.join();
  o.rss_mb = PeakRssMb();
  {
    Span span(coordinator.spans, "serve.flush", coordinator.spans.NewRequest(),
              0);
    const int64_t t0 = NowNs();
    loop->Flush();
    o.drain_s = static_cast<double>(NowNs() - t0) * 1e-9;
  }

  // --- invariants on the quiesced loop ---------------------------------
  std::vector<const std::vector<Point>*> stored = {&probes, &inserted};
  for (const std::vector<Point>& live : wire_live) stored.push_back(&live);
  const Rect& b = spec.data.bounds;
  const double w = b.max_x - b.min_x, h = b.max_y - b.min_y;
  std::string why;
  const bool same = SameMembership(
      loop->Range(Rect::Of(b.min_x - w, b.min_y - h, b.max_x + w,
                           b.max_y + 2 * h))
          .hits,
      ExpectedMembership(spec, updates, stored), &why);
  coordinator.Check(same, why);

  // --- metrics ------------------------------------------------------------
  std::vector<Metric> info = InfoMetrics(o);
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = EndToEndMetrics(o);
  } else {
    metrics = PerLayerMetrics(o, spec, *loop, streams.Fork());
    const std::string path =
        args.trace_dir + "/trace_" + spec.name + ".jsonl";
    std::vector<const SpanLog*> logs;
    for (const auto& r : o.results) logs.push_back(&r->spans);
    if (!WriteTrace(path, logs)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("trace %s\n", path.c_str());
    info.push_back({"compared_decomposed_reads",
                    static_cast<double>(o.Sum(&ThreadResult::compared)),
                    "count", o.Sum(&ThreadResult::sampled_ranges)});
  }

  conns.clear();
  if (server != nullptr) server->Stop();
  loop.reset();

  for (const auto& r : o.results) {
    for (const std::string& e : r->errors) {
      std::fprintf(stderr, "error: %s\n", e.c_str());
    }
  }
  for (const Metric& m : info) PrintMetric(m);
  for (const Metric& m : metrics) PrintMetric(m);
  const int64_t failed = o.Sum(&ThreadResult::failed);
  PrintResult(failed == 0, o.Sum(&ThreadResult::attempted), failed, metrics);
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

}  // namespace
}  // namespace wazi::perfbench

int main(int argc, char** argv) {
  wazi::perfbench::Args args;
  if (!wazi::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_engine --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-dir DIR]\n");
    return 2;
  }
  return wazi::perfbench::RunWorkload(args);
}
