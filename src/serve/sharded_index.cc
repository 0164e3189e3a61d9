#include "serve/sharded_index.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <string>

#include "index/knn.h"

namespace wazi::serve {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Equi-depth boundaries with workload-aware placement: `cuts - 1` values
// splitting `values` (sorted in place) into `cuts` buckets of equal count
// up to a small slack. Every boundary a query straddles doubles that
// query's traversals and fragments its page scans across two shards, so
// within a +-25%-of-a-bucket window around each exact quantile the cut
// is placed where it stabs the fewest workload intervals (the queries'
// extents in this dimension) — workload-awareness applied to the shard
// map itself, not just the per-shard layouts. Ties keep the exact
// quantile. Duplicates in the data can still make buckets uneven (all
// equal values land right of the boundary); the router tolerates empty
// cells.
std::vector<double> EquiDepthBounds(
    std::vector<double>* values, int cuts,
    const std::vector<std::pair<double, double>>& intervals) {
  std::vector<double> bounds;
  bounds.reserve(static_cast<size_t>(cuts - 1));
  std::sort(values->begin(), values->end());
  const size_t n = values->size();
  const size_t slack =
      intervals.empty() ? 0 : n / (static_cast<size_t>(cuts) * 4);
  for (int j = 1; j < cuts; ++j) {
    const size_t target = n * static_cast<size_t>(j) / static_cast<size_t>(cuts);
    size_t best_idx = target;
    if (slack > 0) {
      const size_t lo = target > slack ? target - slack : 0;
      const size_t hi = std::min(n - 1, target + slack);
      int64_t best_cost = std::numeric_limits<int64_t>::max();
      // ~17 candidate positions across the window; exhaustive scanning of
      // the window would be O(slack * |intervals|) for no extra benefit.
      const size_t step = std::max<size_t>(1, (hi - lo) / 16);
      for (size_t idx = lo; idx <= hi; idx += step) {
        const double v = (*values)[idx];
        int64_t stabs = 0;
        for (const auto& [ilo, ihi] : intervals) {
          if (ilo <= v && v <= ihi) ++stabs;
        }
        // Prefer the position closest to the exact quantile among equal
        // stab counts (keeps balance tight when the workload is
        // indifferent).
        const int64_t cost = stabs * static_cast<int64_t>(2 * slack + 1) +
                             static_cast<int64_t>(idx > target ? idx - target
                                                               : target - idx);
        if (cost < best_cost) {
          best_cost = cost;
          best_idx = idx;
        }
      }
    }
    bounds.push_back((*values)[best_idx]);
  }
  return bounds;
}

// Uniform boundaries over [lo, hi] — the no-data fallback.
std::vector<double> UniformBounds(double lo, double hi, int cuts) {
  std::vector<double> bounds;
  bounds.reserve(static_cast<size_t>(cuts - 1));
  for (int j = 1; j < cuts; ++j) {
    bounds.push_back(lo + (hi - lo) * static_cast<double>(j) /
                              static_cast<double>(cuts));
  }
  return bounds;
}

// Count of boundaries <= v, i.e. the bucket index of v in [0, |bounds|].
// Monotone in v, so interval endpoints map to an inclusive bucket range.
int BucketOf(const std::vector<double>& bounds, double v) {
  return static_cast<int>(
      std::upper_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
}

}  // namespace

void ShardRouter::Build(const std::vector<Point>& points, int num_shards,
                        const Rect& domain, const Workload* workload) {
  num_shards = std::max(1, num_shards);
  domain_ = domain;
  // rows x cols = num_shards, as square as the divisors allow, with the
  // extra splits on x (rows <= cols). Primes give 1xN stripes.
  rows_ = 1;
  for (int d = 1; d * d <= num_shards; ++d) {
    if (num_shards % d == 0) rows_ = d;
  }
  cols_ = num_shards / rows_;

  y_bounds_.clear();
  x_bounds_.assign(static_cast<size_t>(rows_), {});
  const bool have_data = !points.empty();
  const bool have_domain = !domain.empty();

  if (rows_ > 1) {
    if (have_data) {
      std::vector<double> ys;
      ys.reserve(points.size());
      for (const Point& p : points) ys.push_back(p.y);
      std::vector<std::pair<double, double>> intervals;
      if (workload != nullptr) {
        intervals.reserve(workload->queries.size());
        for (const Rect& q : workload->queries) {
          intervals.emplace_back(q.min_y, q.max_y);
        }
      }
      y_bounds_ = EquiDepthBounds(&ys, rows_, intervals);
    } else if (have_domain) {
      y_bounds_ = UniformBounds(domain.min_y, domain.max_y, rows_);
    } else {
      y_bounds_.assign(static_cast<size_t>(rows_ - 1), 0.0);
    }
  }
  if (cols_ > 1) {
    // Conditional x-quantiles: each row's columns are equi-depth over the
    // points that route into THAT row, so cells stay balanced even when x
    // and y are correlated (a marginal grid would not be).
    std::vector<std::vector<double>> row_xs(static_cast<size_t>(rows_));
    if (have_data) {
      for (const Point& p : points) {
        row_xs[static_cast<size_t>(RowOf(p.y))].push_back(p.x);
      }
    }
    for (int r = 0; r < rows_; ++r) {
      std::vector<double>& xs = row_xs[static_cast<size_t>(r)];
      if (!xs.empty()) {
        std::vector<std::pair<double, double>> intervals;
        if (workload != nullptr) {
          // Only queries overlapping this row band can straddle its
          // x-cuts.
          const double band_lo =
              r == 0 ? -kInf : y_bounds_[static_cast<size_t>(r - 1)];
          const double band_hi =
              r == rows_ - 1 ? kInf : y_bounds_[static_cast<size_t>(r)];
          for (const Rect& q : workload->queries) {
            if (q.max_y >= band_lo && q.min_y <= band_hi) {
              intervals.emplace_back(q.min_x, q.max_x);
            }
          }
        }
        x_bounds_[static_cast<size_t>(r)] = EquiDepthBounds(&xs, cols_,
                                                            intervals);
      } else if (have_domain) {
        x_bounds_[static_cast<size_t>(r)] =
            UniformBounds(domain.min_x, domain.max_x, cols_);
      } else {
        x_bounds_[static_cast<size_t>(r)].assign(
            static_cast<size_t>(cols_ - 1), 0.0);
      }
    }
  }
}

int ShardRouter::RowOf(double y) const { return BucketOf(y_bounds_, y); }

int ShardRouter::ColOf(int row, double x) const {
  if (cols_ == 1) return 0;
  return BucketOf(x_bounds_[static_cast<size_t>(row)], x);
}

int ShardRouter::ShardOf(const Point& p) const {
  const int r = RowOf(p.y);
  return r * cols_ + ColOf(r, p.x);
}

Rect ShardRouter::CellRect(int shard) const {
  const int r = shard / cols_;
  const int c = shard % cols_;
  const std::vector<double>& xb = x_bounds_.empty()
                                      ? y_bounds_  // unused when cols_ == 1
                                      : x_bounds_[static_cast<size_t>(r)];
  return Rect::Of(
      c == 0 ? -kInf : xb[static_cast<size_t>(c - 1)],
      r == 0 ? -kInf : y_bounds_[static_cast<size_t>(r - 1)],
      c == cols_ - 1 ? kInf : xb[static_cast<size_t>(c)],
      r == rows_ - 1 ? kInf : y_bounds_[static_cast<size_t>(r)]);
}

Rect ShardRouter::ClampedCellRect(int shard) const {
  if (domain_.empty()) return domain_;
  return CellRect(shard).Intersect(domain_);
}

void ShardRouter::Decompose(const Rect& query,
                            std::vector<ShardSubquery>* out) const {
  out->clear();
  if (query.empty()) return;
  const int r0 = RowOf(query.min_y);
  const int r1 = RowOf(query.max_y);
  for (int r = r0; r <= r1; ++r) {
    const int c0 = ColOf(r, query.min_x);
    const int c1 = ColOf(r, query.max_x);
    for (int c = c0; c <= c1; ++c) {
      const int shard = r * cols_ + c;
      // Non-empty by construction: monotone routing means every cell in
      // the [r0,r1]x[c0,c1] block overlaps the query.
      out->push_back(ShardSubquery{shard, query.Intersect(CellRect(shard))});
    }
  }
}

void ShardRouter::BuildMovedCuts(
    const ShardRouter& base, const std::vector<bool>& y_cut_moves,
    const std::vector<std::vector<bool>>& x_cut_moves,
    const std::vector<Point>& points, const Rect& domain,
    const Workload* workload) {
  rows_ = base.rows_;
  cols_ = base.cols_;
  domain_ = domain;
  y_bounds_ = base.y_bounds_;
  x_bounds_ = base.x_bounds_;

  // Rows whose band moves (adjacent to a moving y-cut): their x-cuts are
  // recut wholesale from the merged band below.
  std::vector<bool> row_changed(static_cast<size_t>(rows_), false);

  // --- y-cuts: maximal runs of moving boundaries --------------------
  // A run j0..j1 re-splits the band spanning rows j0..j1+1. The band's
  // outer boundaries are KEPT cuts (or the infinite edges), so every
  // replacement stays inside the band: the union of the affected rows'
  // regions is preserved.
  for (size_t j0 = 0; j0 < y_cut_moves.size();) {
    if (!y_cut_moves[j0]) {
      ++j0;
      continue;
    }
    size_t j1 = j0;
    while (j1 + 1 < y_cut_moves.size() && y_cut_moves[j1 + 1]) ++j1;
    for (size_t r = j0; r <= j1 + 1; ++r) row_changed[r] = true;

    // Band membership per BucketOf semantics: row r covers
    // [y_bounds[r-1], y_bounds[r]).
    const bool open_lo = j0 == 0;
    const bool open_hi = j1 + 1 >= y_bounds_.size();
    const double lo = open_lo ? 0.0 : base.y_bounds_[j0 - 1];
    const double hi = open_hi ? 0.0 : base.y_bounds_[j1 + 1];
    std::vector<double> ys;
    for (const Point& p : points) {
      if ((open_lo || p.y >= lo) && (open_hi || p.y < hi)) ys.push_back(p.y);
    }
    if (!ys.empty()) {
      std::vector<std::pair<double, double>> intervals;
      if (workload != nullptr) {
        intervals.reserve(workload->queries.size());
        for (const Rect& q : workload->queries) {
          intervals.emplace_back(q.min_y, q.max_y);
        }
      }
      const std::vector<double> cuts = EquiDepthBounds(
          &ys, static_cast<int>(j1 - j0) + 2, intervals);
      for (size_t j = j0; j <= j1; ++j) y_bounds_[j] = cuts[j - j0];
    }  // no points in the band: keep the old cuts (degenerate but sound)
    j0 = j1 + 1;
  }

  // --- x-cuts -------------------------------------------------------
  for (int r = 0; r < rows_; ++r) {
    const bool full_row = row_changed[static_cast<size_t>(r)];
    // Band bounds of row r under the NEW y-cuts (identical to the old
    // ones for rows outside every y-run).
    const bool row_open_lo = r == 0;
    const bool row_open_hi = r == rows_ - 1;
    const double band_lo = row_open_lo ? 0.0
                                       : y_bounds_[static_cast<size_t>(r - 1)];
    const double band_hi = row_open_hi ? 0.0
                                       : y_bounds_[static_cast<size_t>(r)];
    const auto in_row = [&](const Point& p) {
      return (row_open_lo || p.y >= band_lo) && (row_open_hi || p.y < band_hi);
    };
    const auto intervals_for_row = [&]() {
      std::vector<std::pair<double, double>> intervals;
      if (workload != nullptr) {
        for (const Rect& q : workload->queries) {
          const double qlo = row_open_lo ? -kInf : band_lo;
          const double qhi = row_open_hi ? kInf : band_hi;
          if (q.max_y >= qlo && q.min_y <= qhi) {
            intervals.emplace_back(q.min_x, q.max_x);
          }
        }
      }
      return intervals;
    };
    if (cols_ <= 1) continue;
    std::vector<double>& xb = x_bounds_[static_cast<size_t>(r)];
    if (full_row) {
      std::vector<double> xs;
      for (const Point& p : points) {
        if (in_row(p)) xs.push_back(p.x);
      }
      if (!xs.empty()) {
        const std::vector<std::pair<double, double>> intervals =
            intervals_for_row();
        xb = EquiDepthBounds(&xs, cols_, intervals);
      }
      continue;
    }
    // Unchanged band: re-place only the flagged runs, between their kept
    // neighbours.
    const std::vector<bool>& moves = x_cut_moves[static_cast<size_t>(r)];
    for (size_t c0 = 0; c0 < moves.size();) {
      if (!moves[c0]) {
        ++c0;
        continue;
      }
      size_t c1 = c0;
      while (c1 + 1 < moves.size() && moves[c1 + 1]) ++c1;
      const bool open_lo = c0 == 0;
      const bool open_hi = c1 + 1 >= xb.size();
      const double lo = open_lo ? 0.0 : base.x_bounds_[static_cast<size_t>(r)]
                                                      [c0 - 1];
      const double hi = open_hi ? 0.0 : base.x_bounds_[static_cast<size_t>(r)]
                                                      [c1 + 1];
      std::vector<double> xs;
      for (const Point& p : points) {
        if (in_row(p) && (open_lo || p.x >= lo) && (open_hi || p.x < hi)) {
          xs.push_back(p.x);
        }
      }
      if (!xs.empty()) {
        const std::vector<std::pair<double, double>> intervals =
            intervals_for_row();
        const std::vector<double> cuts = EquiDepthBounds(
            &xs, static_cast<int>(c1 - c0) + 2, intervals);
        for (size_t c = c0; c <= c1; ++c) xb[c] = cuts[c - c0];
      }
      c0 = c1 + 1;
    }
  }
}

double ShardRouter::MinDistanceSquared(const Point& p, int shard) const {
  const Rect cell = CellRect(shard);
  double dx = 0.0;
  if (p.x < cell.min_x) {
    dx = cell.min_x - p.x;
  } else if (p.x > cell.max_x) {
    dx = p.x - cell.max_x;
  }
  double dy = 0.0;
  if (p.y < cell.min_y) {
    dy = cell.min_y - p.y;
  } else if (p.y > cell.max_y) {
    dy = p.y - cell.max_y;
  }
  return dx * dx + dy * dy;
}

uint64_t ShardTopology::version() const {
  uint64_t sum = version_base;
  for (const auto& shard : shards) sum += shard->version();
  return sum;
}

size_t ShardTopology::num_points() const {
  size_t sum = 0;
  for (const auto& shard : shards) sum += shard->num_points();
  return sum;
}

ShardedVersionedIndex::ShardedVersionedIndex(IndexFactory factory,
                                             const Dataset& data,
                                             const Workload& workload,
                                             const BuildOptions& build_opts,
                                             ShardedIndexOptions opts)
    : factory_(std::move(factory)),
      build_opts_(build_opts),
      opts_(opts),
      data_name_(data.name) {
  if (opts_.registry != nullptr) {
    epoch_gauge_ = opts_.registry->GetGauge("serve_topology_epoch");
    shards_gauge_ = opts_.registry->GetGauge("serve_shards");
  }
  ShardRouter router;
  router.Build(data.points, opts_.num_shards, data.bounds, &workload);
  PublishTopology(BuildTopology(
      /*carry_from=*/nullptr, router,
      std::vector<bool>(static_cast<size_t>(router.num_shards()), true),
      data.points, workload, data.bounds, /*epoch=*/1));
}

ShardedVersionedIndex::~ShardedVersionedIndex() = default;

std::shared_ptr<ShardTopology> ShardedVersionedIndex::BuildTopology(
    const ShardTopology* carry_from, const ShardRouter& router,
    const std::vector<bool>& changed, const std::vector<Point>& points,
    const Workload& workload, const Rect& domain, uint64_t epoch) const {
  const int n = router.num_shards();
  auto topo = std::make_shared<ShardTopology>();
  topo->epoch = epoch;
  topo->domain = domain;
  topo->router = router;

  // Route the points through the new cuts. They land in changed cells
  // only: a carried cell's region did not move (the BuildMovedCuts
  // carrying invariant).
  const size_t num_changed = static_cast<size_t>(
      std::count(changed.begin(), changed.begin() + n, true));
  std::vector<Dataset> shard_data(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) {
    if (!changed[static_cast<size_t>(s)]) continue;
    Dataset& d = shard_data[static_cast<size_t>(s)];
    d.name = data_name_ + "/e" + std::to_string(epoch) + "/shard" +
             std::to_string(s);
    d.bounds = router.ClampedCellRect(s);
    d.points.reserve(points.size() / num_changed + 1);
  }
  for (const Point& p : points) {
    const int s = router.ShardOf(p);
    assert(changed[static_cast<size_t>(s)] &&
           "point routed into a carried cell");
    shard_data[static_cast<size_t>(s)].points.push_back(p);
  }

  // Each shard trains on the workload it will actually see: the queries
  // that overlap its cell, clipped to their per-shard sub-rectangles
  // (carried shards keep their index layout, but their rebuild-fallback
  // slice tracks the recent workload).
  topo->shard_workloads.resize(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) {
    Workload& w = topo->shard_workloads[static_cast<size_t>(s)];
    w.name = workload.name + "/e" + std::to_string(epoch) + "/shard" +
             std::to_string(s);
    w.selectivity = workload.selectivity;
    const Rect cell = router.CellRect(s);
    for (const Rect& q : workload.queries) {
      const Rect sub = q.Intersect(cell);
      if (!sub.empty()) w.queries.push_back(sub);
    }
  }

  topo->shards.reserve(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) {
    if (!changed[static_cast<size_t>(s)]) {
      // Carried: the live shard changes owners, untouched — no capture,
      // no rebuild, no dual-write replay.
      assert(carry_from != nullptr && "carried cell without a predecessor");
      topo->shards.push_back(carry_from->shards[static_cast<size_t>(s)]);
      continue;
    }
    // Per-shard journal/metric attribution: the shard keeps this identity
    // for its whole life, even if a later migration carries it into a
    // higher epoch.
    VersionedIndexOptions shard_opts = opts_.versioned;
    shard_opts.shard_id = s;
    shard_opts.epoch = epoch;
    topo->shards.push_back(std::make_shared<VersionedIndex>(
        factory_, shard_data[static_cast<size_t>(s)],
        topo->shard_workloads[static_cast<size_t>(s)], build_opts_,
        shard_opts));
  }
  return topo;
}

void ShardedVersionedIndex::PublishTopology(
    std::shared_ptr<ShardTopology> topo) {
  if (epoch_gauge_ != nullptr) {
    epoch_gauge_->Set(static_cast<int64_t>(topo->epoch));
  }
  if (shards_gauge_ != nullptr) shards_gauge_->Set(topo->num_shards());
  topology_.Store(std::move(topo));
}

const ShardTopology* ShardedVersionedIndex::TopoFor(
    const SnapshotSet* snaps, std::shared_ptr<ShardTopology>* owned) const {
  if (snaps != nullptr) return snaps->topology.get();
  *owned = topology_.Load();
  return owned->get();
}

const IndexSnapshot* ShardedVersionedIndex::SnapFor(
    const ShardTopology& topo, int s, const SnapshotSet* snaps,
    SnapshotRef* owned) {
  if (snaps != nullptr) return snaps->snaps[static_cast<size_t>(s)].get();
  *owned = topo.shards[static_cast<size_t>(s)]->Acquire();
  return owned->get();
}

void ShardedVersionedIndex::AcquireAll(SnapshotSet* out) const {
  out->topology = topology_.Load();
  out->snaps.clear();
  out->snaps.reserve(out->topology->shards.size());
  for (const auto& shard : out->topology->shards) {
    out->snaps.push_back(shard->Acquire());
  }
}

void ShardedVersionedIndex::RangeQuery(const Rect& query,
                                       std::vector<Point>* out,
                                       QueryStats* stats,
                                       std::vector<ShardQueryPart>* parts,
                                       uint64_t* version_mass,
                                       const SnapshotSet* snaps,
                                       uint64_t* epoch_out) const {
  // One topology pinned for the whole query: the decomposition and every
  // per-shard sub-query run against the SAME router/shard set even if a
  // repartition publishes a successor mid-query.
  std::shared_ptr<ShardTopology> owned_topo;
  const ShardTopology& topo = *TopoFor(snaps, &owned_topo);
  if (epoch_out != nullptr) *epoch_out = topo.epoch;
  // Scratch reused across calls: range queries are the serving hot path,
  // and a per-query allocation here is measurable against microsecond
  // queries (the vector is consumed within this call, so sharing one per
  // thread across instances is safe).
  static thread_local std::vector<ShardSubquery> subs;
  topo.router.Decompose(query, &subs);
  if (parts != nullptr) {
    parts->clear();
    parts->reserve(subs.size());
  }
  uint64_t vmass = 0;
  for (const ShardSubquery& sq : subs) {
    QueryStats local;
    SnapshotRef owned;
    const IndexSnapshot* snap = SnapFor(topo, sq.shard, snaps, &owned);
    snap->index().RangeQuery(sq.rect, out, &local);
    vmass += snap->version();
    // The cross-shard totals are the SUM of the per-shard counters.
    if (stats != nullptr) stats->Add(local);
    if (parts != nullptr) {
      parts->push_back(ShardQueryPart{sq.shard, sq.rect, snap->version(),
                                      local});
    }
  }
  if (version_mass != nullptr) *version_mass = vmass;
}

bool ShardedVersionedIndex::PointQuery(const Point& p, QueryStats* stats,
                                       uint64_t* version_mass,
                                       int* home_shard,
                                       const SnapshotSet* snaps,
                                       uint64_t* epoch_out) const {
  std::shared_ptr<ShardTopology> owned_topo;
  const ShardTopology& topo = *TopoFor(snaps, &owned_topo);
  if (epoch_out != nullptr) *epoch_out = topo.epoch;
  const int s = topo.router.ShardOf(p);
  if (home_shard != nullptr) *home_shard = s;
  QueryStats local;
  SnapshotRef owned;
  const IndexSnapshot* snap = SnapFor(topo, s, snaps, &owned);
  const bool found = snap->index().PointQuery(p, &local);
  if (stats != nullptr) stats->Add(local);
  if (version_mass != nullptr) *version_mass = snap->version();
  return found;
}

std::vector<Point> ShardedVersionedIndex::Knn(const Point& center, int k,
                                              QueryStats* stats,
                                              uint64_t* version_mass,
                                              const SnapshotSet* snaps,
                                              uint64_t* epoch_out) const {
  std::shared_ptr<ShardTopology> owned_topo;
  const ShardTopology& topo = *TopoFor(snaps, &owned_topo);
  if (epoch_out != nullptr) *epoch_out = topo.epoch;
  std::vector<Point> result;
  uint64_t vmass = 0;
  if (k > 0) {
    const size_t want = static_cast<size_t>(k);
    // Visit shards in increasing distance from the query point to their
    // cell; a shard can only contribute neighbours at least that far away.
    std::vector<std::pair<double, int>> order;
    order.reserve(topo.shards.size());
    for (int s = 0; s < topo.num_shards(); ++s) {
      order.emplace_back(topo.router.MinDistanceSquared(center, s), s);
    }
    std::sort(order.begin(), order.end());

    // Bounded merged result heap: the k best seen so far, max at front.
    const auto farther = [](const std::pair<double, Point>& a,
                            const std::pair<double, Point>& b) {
      return a.first < b.first;
    };
    std::vector<std::pair<double, Point>> heap;
    heap.reserve(want + 1);
    for (const auto& [min_d2, s] : order) {
      // Expansion bound: once k neighbours are closer than the next cell,
      // no unvisited shard can improve the result (ties still visited).
      if (heap.size() == want && min_d2 > heap.front().first) break;
      SnapshotRef owned;
      const IndexSnapshot* snap = SnapFor(topo, s, snaps, &owned);
      vmass += snap->version();
      QueryStats local;
      const KnnResult local_knn =
          KnnByRangeExpansion(snap->index(), center, want,
                              topo.router.ClampedCellRect(s), &local);
      if (stats != nullptr) stats->Add(local);
      for (const Point& p : local_knn.neighbors) {
        const double d2 = DistanceSquared(p, center);
        if (heap.size() < want) {
          heap.emplace_back(d2, p);
          std::push_heap(heap.begin(), heap.end(), farther);
        } else if (d2 < heap.front().first) {
          std::pop_heap(heap.begin(), heap.end(), farther);
          heap.back() = {d2, p};
          std::push_heap(heap.begin(), heap.end(), farther);
        }
      }
    }
    std::sort(heap.begin(), heap.end(), farther);
    result.reserve(heap.size());
    for (const auto& [d2, p] : heap) result.push_back(p);
  }
  if (version_mass != nullptr) *version_mass = vmass;
  return result;
}

void ShardedVersionedIndex::Project(const Rect& query,
                                    std::vector<ShardProjection>* parts,
                                    QueryStats* stats) const {
  parts->clear();
  std::shared_ptr<ShardTopology> topo = topology_.Load();
  std::vector<ShardSubquery> subs;
  topo->router.Decompose(query, &subs);
  parts->reserve(subs.size());
  for (const ShardSubquery& sq : subs) {
    ShardProjection part;
    part.shard = sq.shard;
    part.rect = sq.rect;
    part.topology = topo;
    part.snap = topo->shards[static_cast<size_t>(sq.shard)]->Acquire();
    QueryStats local;
    part.snap->index().Project(sq.rect, &part.proj, &local);
    if (stats != nullptr) stats->Add(local);
    parts->push_back(std::move(part));
  }
}

void ShardedVersionedIndex::ScanParts(const std::vector<ShardProjection>& parts,
                                      std::vector<Point>* out,
                                      QueryStats* stats) const {
  for (const ShardProjection& part : parts) {
    QueryStats local;
    part.snap->index().ScanProjection(part.proj, part.rect, out, &local);
    if (stats != nullptr) stats->Add(local);
  }
}

}  // namespace wazi::serve
