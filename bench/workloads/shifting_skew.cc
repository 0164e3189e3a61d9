// Adversarial shifting-skew scenario: a balanced mixed phase, then both
// queries and inserts collapse into one corner of the domain while the
// repartition monitor watches the imbalance. A sentinel grid inserted up
// front is probed concurrently through both phases — a point lost or
// double-routed during a live router swap or per-cell migration shows up
// as a sentinel miss, which fails the scenario. Whether a migration
// actually triggers depends on scale (the JSON records
// migrations/moved/carried for the trajectory); correctness is gated,
// adaptivity is recorded.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "workload/query_generator.h"
#include "workload/region_generator.h"
#include "workloads/scenario.h"

namespace wazi::bench::workloads {
namespace {

// Affinely maps `r` from `from` into `to` — the skew-shift transform that
// collapses a workload into a corner of the domain.
Rect MapInto(const Rect& r, const Rect& from, const Rect& to) {
  const double sx = (to.max_x - to.min_x) / (from.max_x - from.min_x);
  const double sy = (to.max_y - to.min_y) / (from.max_y - from.min_y);
  return Rect::Of(to.min_x + (r.min_x - from.min_x) * sx,
                  to.min_y + (r.min_y - from.min_y) * sy,
                  to.min_x + (r.max_x - from.min_x) * sx,
                  to.min_y + (r.max_y - from.min_y) * sy);
}

// The sentinel-grid checker: an 8x8 grid of points across `bounds`,
// inserted up front and never removed, so every probe must find them for
// the rest of the run, across any number of migrations. A throttled
// validator thread probes them through point lookups AND range queries
// centred on them — a point lost or double-routed during a live router
// swap or per-cell migration shows up as a miss.
class SentinelGrid {
 public:
  // Inserts the grid into `loop`, flushes, and starts the validator.
  SentinelGrid(serve::ServeLoop* loop, const Rect& bounds);
  ~SentinelGrid() { Stop(); }

  SentinelGrid(const SentinelGrid&) = delete;
  SentinelGrid& operator=(const SentinelGrid&) = delete;

  // Stops the validator (idempotent) and returns the misses it counted.
  int64_t Stop();
  const std::vector<Point>& points() const { return points_; }

 private:
  std::vector<Point> points_;
  std::atomic<int64_t> misses_{0};
  std::atomic<bool> stop_{false};
  std::thread validator_;
};

SentinelGrid::SentinelGrid(serve::ServeLoop* loop, const Rect& b) {
  for (int gx = 0; gx < 8; ++gx) {
    for (int gy = 0; gy < 8; ++gy) {
      Point p;
      p.x = b.min_x + (b.max_x - b.min_x) * (0.5 + gx) / 8.0;
      p.y = b.min_y + (b.max_y - b.min_y) * (0.5 + gy) / 8.0;
      p.id = 900000000 + gx * 8 + gy;
      points_.push_back(p);
      loop->SubmitInsert(p);
    }
  }
  loop->Flush();
  const double rx = (b.max_x - b.min_x) * 0.01;
  const double ry = (b.max_y - b.min_y) * 0.01;
  validator_ = std::thread([this, loop, rx, ry] {
    size_t i = 0;
    while (!stop_.load(std::memory_order_relaxed)) {
      const Point& p = points_[i++ % points_.size()];
      if (!loop->PointLookup(p)) {
        misses_.fetch_add(1, std::memory_order_relaxed);
      }
      const serve::QueryResult res =
          loop->Range(Rect::Of(p.x - rx, p.y - ry, p.x + rx, p.y + ry));
      const bool seen =
          std::any_of(res.hits.begin(), res.hits.end(),
                      [&p](const Point& hit) { return hit.id == p.id; });
      if (!seen) misses_.fetch_add(1, std::memory_order_relaxed);
      // Throttled: a probe, not load — full-tilt domain-uniform queries
      // would perturb the measured QPS and dilute the skew signal the
      // repartition monitor watches.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
}

int64_t SentinelGrid::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (validator_.joinable()) validator_.join();
  return misses_.load();
}

class ShiftingSkewScenario : public Scenario {
 public:
  std::string id() const override { return "shifting_skew"; }
  std::string description() const override {
    return "workload collapses into a corner under the repartition "
           "monitor, sentinels probed across the migration";
  }
  std::string op_mix() const override {
    return "phase 1: 95r/5w balanced; phase 2: 80r/20w, all in a corner";
  }
  std::string stresses() const override {
    return "repartition monitor + per-cell migration, writer-gen "
           "cutover, sentinel visibility across router swaps";
  }

  Dataset GenerateData(const ScenarioConfig& cfg) const override {
    return GenerateRegion(Region::kCaliNev, cfg.points(), cfg.seed);
  }

  Workload GenerateQueries(const ScenarioConfig& cfg,
                           const Dataset& data) const override {
    QueryGenOptions qopts;
    qopts.num_queries = 1024;
    qopts.selectivity = kSelectivityMid2;
    qopts.seed = cfg.seed + 1;
    return GenerateCheckinWorkload(Region::kCaliNev, data.bounds, qopts);
  }

  serve::ServeOptions Options(const ScenarioConfig& cfg) const override {
    serve::ServeOptions opts = Scenario::Options(cfg);
    opts.num_shards = 5;  // stripes: lets incremental migrations carry
    opts.repartition.enabled = true;
    opts.repartition.poll_ms = 100;
    opts.repartition.max_imbalance = 1.4;
    opts.repartition.patience = 2;
    opts.repartition.min_queries = 256;
    opts.repartition.min_interval_ms = 500;
    return opts;
  }

 protected:
  bool SupportsNet() const override { return true; }

  void Drive(const ScenarioConfig& cfg, RunContext& ctx,
             std::vector<PhaseResult>* phases,
             std::vector<std::string>* failures) const override {
    serve::ServeLoop* loop = ctx.loop;
    const Rect& b = ctx.data->bounds;

    SentinelGrid sentinels(loop, b);
    sentinels_ = sentinels.points();

    {
      serve::ClientLoadOptions copts;
      copts.threads = cfg.client_threads();
      copts.write_pct = 5;
      copts.seconds = cfg.phase_seconds();
      const serve::ResultCacheStats before = loop->cache_stats();
      const serve::ClientLoadResult pre = ctx.run_load(*ctx.workload, copts);
      phases->push_back(
          PhaseFromLoad("balanced", pre, before, loop->cache_stats()));
    }

    // The shift: queries AND inserts land in the lower-left corner.
    const Rect corner =
        Rect::Of(b.min_x, b.min_y, b.min_x + (b.max_x - b.min_x) * 0.2,
                 b.min_y + (b.max_y - b.min_y) * 0.2);
    Workload skewed;
    skewed.name = ctx.workload->name + "/skewed";
    skewed.selectivity = ctx.workload->selectivity;
    skewed.queries.reserve(ctx.workload->queries.size());
    for (const Rect& q : ctx.workload->queries) {
      skewed.queries.push_back(MapInto(q, b, corner));
    }
    {
      serve::ClientLoadOptions copts;
      copts.threads = cfg.client_threads();
      copts.write_pct = 20;
      copts.seconds = cfg.phase_seconds() * 2;
      copts.insert_region = corner;
      const serve::ResultCacheStats before = loop->cache_stats();
      const serve::ClientLoadResult post = ctx.run_load(skewed, copts);
      phases->push_back(
          PhaseFromLoad("skewed", post, before, loop->cache_stats()));
    }

    // Grace window: a monitor trigger landing at the tail of the phase
    // may complete just after it — keep probing sentinels while a
    // pending migration finishes (smoke scale and above; the tiny-scale
    // unit-test runs never accumulate min_queries, which is fine — the
    // gate is correctness, adaptivity is recorded).
    if (cfg.phase_seconds() >= 0.25) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (loop->repartitions() == 0 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    }
    const int64_t misses = sentinels.Stop();
    if (misses > 0) {
      failures->push_back("sentinel probes failed during the shift: " +
                          std::to_string(misses) + " misses");
    }
  }

  void Check(const ScenarioConfig&, RunContext& ctx,
             std::vector<std::string>* failures,
             int64_t* checks) const override {
    // Every sentinel must be visible on the quiesced loop, whatever
    // topology the run ended on.
    for (const Point& p : sentinels_) {
      ++*checks;
      if (!ctx.loop->PointLookup(p)) {
        failures->push_back("sentinel " + std::to_string(p.id) +
                            " lost after quiesce");
        break;
      }
    }
  }

 private:
  mutable std::vector<Point> sentinels_;
};

}  // namespace

std::unique_ptr<Scenario> MakeShiftingSkewScenario() {
  return std::make_unique<ShiftingSkewScenario>();
}

}  // namespace wazi::bench::workloads
