#include "workloads.h"

#include <algorithm>

#include "common/rng.h"
#include "workload/query_generator.h"
#include "workload/region_generator.h"
#include "workloads/scenario.h"

namespace wazi::perfbench {
namespace {

// Dataset size of every workload. Three set-ups per run must fit the
// benchmark's time budget; a 250,000-point WaZI build takes about 1 s per
// instance on a 4-core x86 machine.
constexpr size_t kPoints = 250000;

// The data and the rectangles WaZI is built against come from this fixed
// seed, so every run builds the same index: the check-in generator puts
// Zipf-weighted venues at seed-dependent places, and with them range cost
// moved by up to 3x between seeds. The run's seed draws everything the
// clients send.
constexpr uint64_t kDataSeed = 42;

// churn: position updates per second (each one a remove plus an insert).
// About half the rate at which the system stops keeping up when the
// machine runs slow: on a shared 4-core VM that point fell from ~750,000
// updates/s to ~350,000 as the host's speed dropped by 40%.
constexpr double kChurnUpdateRate = 150000.0;
// rebalance: inserts per second into one 20% x 20% corner, by the same
// rule: migrations stretched from 1.5 s to 7 s at 30,000 inserts/s on the
// fast host, so about 18,000/s on the slow one.
constexpr double kRebalanceInsertRate = 8000.0;

// The base data's answer to every rectangle, from an x-sorted copy.
RectSet Answer(const std::vector<Point>& points,
               const std::vector<Rect>& rects) {
  std::vector<Point> by_x = points;
  std::sort(by_x.begin(), by_x.end(),
            [](const Point& a, const Point& b) { return a.x < b.x; });
  RectSet set;
  set.rects = rects;
  std::vector<Point> hits;
  for (const Rect& r : rects) {
    hits.clear();
    auto it = std::lower_bound(
        by_x.begin(), by_x.end(), r.min_x,
        [](const Point& p, double x) { return p.x < x; });
    for (; it != by_x.end() && it->x <= r.max_x; ++it) {
      if (r.Contains(*it)) hits.push_back(*it);
    }
    set.expected.push_back(
        Expected{static_cast<int64_t>(hits.size()), HitChecksum(hits)});
  }
  return set;
}

double Area(const Rect& r) { return (r.max_x - r.min_x) * (r.max_y - r.min_y); }

// The scenario library's generators and serving options for `id`
// (bench/workloads/), at this benchmark's size.
const bench::workloads::Scenario& Library(const std::string& id) {
  return *bench::workloads::FindScenario(id);
}

bench::workloads::ScenarioConfig LibraryConfig() {
  bench::workloads::ScenarioConfig cfg;
  cfg.seed = kDataSeed;
  cfg.n_points = kPoints;
  return cfg;
}

// The library's data, build rectangles and serving options for `id`, with
// reads over the build rectangles.
void FromLibrary(const std::string& id, WorkloadSpec* w) {
  const bench::workloads::Scenario& lib = Library(id);
  const bench::workloads::ScenarioConfig cfg = LibraryConfig();
  w->data = lib.GenerateData(cfg);
  w->build_workload = lib.GenerateQueries(cfg, w->data);
  w->options = lib.Options(cfg);
  w->segments.push_back(Answer(w->data.points, w->build_workload.queries));
}

void MakePaperReads(uint64_t seed, WorkloadSpec* w) {
  w->data = GenerateRegion(Region::kCaliNev, kPoints, kDataSeed);
  QueryGenOptions q;
  q.num_queries = 2000;
  q.selectivity = kSelectivityMid2;
  q.seed = kDataSeed + 1;
  w->build_workload = GenerateCheckinWorkload(Region::kCaliNev,
                                              w->data.bounds, q);
  w->options.num_shards = 1;
  w->options.num_threads = 1;
  w->options.auto_rebuild = false;  // a drift rebuild would move the numbers
  w->segments.push_back(Answer(w->data.points, w->build_workload.queries));
  w->point_reads = SamplePointQueries(w->data, 4096, seed);
}

void MakeChurn(uint64_t seed, WorkloadSpec* w) {
  FromLibrary("moving_objects", w);
  w->check = RangeCheck::kInside;
  // Further lattice draws of the same fleet: object i keeps its lattice
  // residue in every draw, so no two objects ever share coordinates.
  w->positions.push_back(w->data.points);
  Rng rng(seed);
  for (int k = 1; k < 4; ++k) {
    bench::workloads::ScenarioConfig next = LibraryConfig();
    next.seed = rng.NextU64();
    w->positions.push_back(
        Library("moving_objects").GenerateData(next).points);
  }
  w->update_rate = kChurnUpdateRate;
  // Point reads look up parked objects (odd ids), which never move.
  for (int i = 0; i < 4096; ++i) {
    w->point_reads.push_back(
        w->data.points[2 * rng.NextBelow(kPoints / 2) + 1]);
  }
}

void MakeRebalance(uint64_t seed, WorkloadSpec* w) {
  FromLibrary("shifting_skew", w);
  w->options.repartition.enabled = false;  // migrations happen on schedule
  // Keep every migration's journal events until the run reads them.
  w->options.obs.journal_capacity = size_t{1} << 16;
  w->check = RangeCheck::kAtLeast;
  const Rect& b = w->data.bounds;
  const double dx = (b.max_x - b.min_x) * 0.2, dy = (b.max_y - b.min_y) * 0.2;
  w->insert_regions = {
      b, Rect::Of(b.min_x, b.min_y, b.min_x + dx, b.min_y + dy),
      Rect::Of(b.max_x - dx, b.max_y - dy, b.max_x, b.max_y),
      Rect::Of(b.max_x - dx, b.min_y, b.max_x, b.min_y + dy)};
  // Segments 2-4 read uniform rectangles inside their corner, each as
  // large as a build rectangle (0.0256% of the whole domain).
  for (size_t s = 1; s < w->insert_regions.size(); ++s) {
    const Rect& corner = w->insert_regions[s];
    QueryGenOptions q;
    q.num_queries = w->build_workload.queries.size();
    q.selectivity = kSelectivityMid2 * Area(b) / Area(corner);
    q.seed = kDataSeed + s;
    w->segments.push_back(
        Answer(w->data.points, GenerateUniformWorkload(corner, q).queries));
  }
  w->insert_rate = kRebalanceInsertRate;
  for (int gx = 0; gx < 8; ++gx) {
    for (int gy = 0; gy < 8; ++gy) {
      w->sentinels.push_back(
          Point{b.min_x + (b.max_x - b.min_x) * (0.5 + gx) / 8.0,
                b.min_y + (b.max_y - b.min_y) * (0.5 + gy) / 8.0,
                kSentinelIdBase + gx * 8 + gy});
    }
  }
  w->point_reads = SamplePointQueries(w->data, 4096, seed);
}

void MakeWireHot(uint64_t seed, WorkloadSpec* w) {
  FromLibrary("ycsb_mix", w);
  w->hot_rects = w->build_workload.queries.size() / 10;
  w->point_reads = SamplePointQueries(w->data, 4096, seed);
  w->wire = true;
  w->wire_write_pct = 5;
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, WorkloadSpec* out) {
  WorkloadSpec w;
  w.name = name;
  if (name == "paper_reads") {
    MakePaperReads(seed, &w);
  } else if (name == "churn") {
    MakeChurn(seed, &w);
  } else if (name == "rebalance") {
    MakeRebalance(seed, &w);
  } else if (name == "wire_hot") {
    MakeWireHot(seed, &w);
  } else {
    return false;
  }
  const Rect& b = w.data.bounds;
  w.outside = Rect::Of(b.min_x, b.max_y + 0.001 * (b.max_y - b.min_y),
                       b.max_x, b.max_y + 0.5 * (b.max_y - b.min_y));
  *out = std::move(w);
  return true;
}

uint64_t HitChecksum(const std::vector<Point>& hits) {
  uint64_t sum = 0;
  for (const Point& p : hits) {
    sum += Rng(static_cast<uint64_t>(p.id)).NextU64();
  }
  return sum;
}

bool CheckRange(const WorkloadSpec& spec, int seg, size_t i,
                const std::vector<Point>& hits) {
  const RectSet& set = spec.segments[static_cast<size_t>(seg)];
  const Rect& rect = set.rects[i];
  const Expected& want = set.expected[i];
  switch (spec.check) {
    case RangeCheck::kExact:
      return static_cast<int64_t>(hits.size()) == want.count &&
             HitChecksum(hits) == want.checksum;
    case RangeCheck::kAtLeast:
      if (static_cast<int64_t>(hits.size()) < want.count) return false;
      break;
    case RangeCheck::kInside:
      break;
  }
  for (const Point& p : hits) {
    if (!rect.Contains(p)) return false;
  }
  return true;
}

}  // namespace wazi::perfbench
