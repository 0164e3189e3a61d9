// Sharded serving engine: spatial partitioning of one logical index across
// N VersionedIndex shards so update throughput scales with cores.
//
// Partitioning is a rank-space tiling built from a point sample: the
// domain is cut into `rows` horizontal bands at equi-depth y-quantiles,
// and every band is cut independently into `cols` cells at equi-depth
// x-quantiles *of that band's points* (conditional quantiles). This yields
//   * exact load balance (each cell holds n/N points up to rounding) for
//     ANY data distribution, unlike a marginal-quantile grid;
//   * axis-aligned rectangular cells, so range and projection queries
//     decompose into per-shard sub-rectangles by pure interval clipping;
//   * Z-order-compatible cell enumeration (cells are visited band-major,
//     matching the coarse Z-curve sweep through rank space). Prime shard
//     counts degenerate to 1xN rank-space stripes.
//
// The tiling is no longer frozen at construction. The engine is
// snapshot-swapped at TWO levels:
//   1. per shard: each VersionedIndex publishes immutable IndexSnapshots
//      (left-right instance pair, drain-signalled reclamation);
//   2. per topology: the router TOGETHER WITH its shard set is one
//      immutable, epoch-versioned ShardTopology published behind an atomic
//      cell. A live repartition (see ServeLoop) builds a new topology from
//      current data/workload quantiles in the background and swaps it in;
//      queries that pinned the old epoch finish on the old generation's
//      shards (the topology shared_ptr keeps them alive), so readers never
//      block and never see a half-migrated router.
//
// Each shard is an independent VersionedIndex: its own left-right instance
// pair, its own snapshot cell, its own single-writer contract. Within one
// topology a point lives in exactly one shard (routing is a pure function
// of coordinates), so cross-shard queries union per-shard results with no
// deduplication:
//   * point lookups route to the single owning shard;
//   * range/projection queries run the clipped sub-rectangle on every
//     overlapping shard and sum the per-shard QueryStats;
//   * kNN runs a bounded best-first expansion: shards are visited in
//     increasing distance from the query point to their cell, each
//     contributing its local k nearest into a merged bounded max-heap, and
//     the sweep stops as soon as the next cell is farther than the current
//     k-th neighbour.
//
// Consistency model: per-shard snapshot consistency within a pinned
// topology. A cross-shard query acquires one topology (one atomic load),
// then each touched shard's live snapshot independently, so two shards may
// be observed at different versions (there is no global consistent cut —
// the same guarantee regime as a distributed store with per-partition
// linearizability). Clients must use globally unique ids across live
// points; per-shard id bookkeeping (and cross-generation migration replay)
// relies on it. The stress tests verify every sub-query against the exact
// membership of the per-shard snapshot it ran on, including across forced
// repartitions.

#ifndef WAZI_SERVE_SHARDED_INDEX_H_
#define WAZI_SERVE_SHARDED_INDEX_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "serve/index_snapshot.h"

namespace wazi::serve {

// One shard's share of a decomposed range query: the query rectangle
// clipped to the shard's cell (closed on both boundary sides; the slack on
// the shared edge is harmless because each point lives in exactly one
// shard).
struct ShardSubquery {
  int shard = 0;
  Rect rect;
};

// Maps points and query rectangles to shards. Immutable after Build; safe
// to share across any number of threads. Topology changes swap in a whole
// new router (inside a new ShardTopology) rather than mutating one.
class ShardRouter {
 public:
  // Single-shard router covering everything (the num_shards == 1 case).
  ShardRouter() = default;

  // Builds the equi-depth tiling described above from `points`.
  // `num_shards` is factored into rows x cols with rows <= cols as close
  // to square as divisors allow (primes become 1xN stripes). `domain` is
  // the dataset's domain rectangle; cells at the tiling's outer edge
  // extend beyond it to cover later out-of-domain inserts. When `workload`
  // is given, each cut slides within a small balance-slack window to the
  // position stabbed by the fewest workload queries (a straddled cut
  // doubles that query's traversals), keeping hot regions inside one
  // shard.
  void Build(const std::vector<Point>& points, int num_shards,
             const Rect& domain, const Workload* workload = nullptr);

  int num_shards() const { return rows_ * cols_; }
  int rows() const { return rows_; }
  int cols() const { return cols_; }

  // The owning shard of `p` (a pure function of p.x/p.y, so inserts and
  // removes of the same coordinates always route identically).
  int ShardOf(const Point& p) const;

  // The cell's closed cover rectangle. Outer cells extend to +-infinity so
  // that every representable point routes into some cell; Decompose and
  // MinDistanceSquared handle the infinite extents, but do NOT feed this
  // rect into code that assumes finite spans (use ClampedCellRect for
  // that).
  Rect CellRect(int shard) const;

  // CellRect clipped to the build-time domain (finite; used as the shard's
  // build dataset bounds and kNN expansion domain).
  Rect ClampedCellRect(int shard) const;

  // Appends the sub-rectangle of `query` for every overlapping shard, in
  // shard-id order. Clears `out` first. Every point of every shard that
  // lies inside `query` is inside exactly one emitted sub-rectangle.
  void Decompose(const Rect& query, std::vector<ShardSubquery>* out) const;

  // Squared distance from `p` to shard's cell (0 when inside); the
  // best-first kNN visit order.
  double MinDistanceSquared(const Point& p, int shard) const;

  // Builds this router as an INCREMENTAL modification of `base` (same
  // rows x cols grid): only the boundaries flagged in `y_cut_moves` /
  // `x_cut_moves` are re-placed — at equi-depth (workload-aware)
  // positions of `points`, which must be the points of the cells those
  // boundaries touch — every other boundary is copied verbatim. Rows
  // adjacent to a moving y-cut recut all their x-cuts from the merged
  // band. A moved boundary stays strictly between its nearest kept
  // neighbours, so the region covered by the changed cells is identical
  // before and after (the carrying invariant); cells none of whose
  // boundaries moved get bit-identical rects. Flag vectors sized
  // rows-1 and rows x (cols-1); empty point filters keep the old cuts.
  void BuildMovedCuts(const ShardRouter& base,
                      const std::vector<bool>& y_cut_moves,
                      const std::vector<std::vector<bool>>& x_cut_moves,
                      const std::vector<Point>& points, const Rect& domain,
                      const Workload* workload = nullptr);

 private:
  int RowOf(double y) const;
  int ColOf(int row, double x) const;

  int rows_ = 1;
  int cols_ = 1;
  Rect domain_ = Rect::Of(-std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::infinity());
  std::vector<double> y_bounds_;               // rows-1 internal boundaries
  std::vector<std::vector<double>> x_bounds_;  // per row: cols-1 boundaries
};

struct ShardedIndexOptions {
  int num_shards = 1;
  // Applied to every shard; the per-shard observability attribution
  // (shard_id, epoch) is stamped by BuildTopology, so callers set
  // only the shared fields (handles, stall deadline, track_points).
  VersionedIndexOptions versioned;
  // Optional metrics registry: when set, the facade publishes the current
  // topology's epoch and shard count as gauges (serve_topology_epoch,
  // serve_shards) on construction and every PublishTopology.
  obs::MetricsRegistry* registry = nullptr;
};

// One immutable generation of the shard map: the router plus the shard
// set it routes into, plus each shard's training workload slice. The
// topology object itself never changes after construction (`epoch`,
// `router` and the shard VECTOR are frozen); the VersionedIndex shards
// inside keep swapping their own per-shard snapshots as usual. Readers
// pin a topology with one atomic shared_ptr load; a repartition publishes
// a successor with epoch + 1 and lets the old generation drain.
//
// Shards are shared_ptr-owned because an INCREMENTAL migration CARRIES
// shards whose cell did not move: the successor topology references the
// same live VersionedIndex while the retiring topology (still pinned by
// in-flight readers) keeps its own reference. A carried shard's
// VersionedIndex is therefore never rebuilt, captured or dual-written —
// it just changes owners; a shard owned by exactly one topology dies
// with it (retire-by-last-reader, as before).
struct ShardTopology {
  uint64_t epoch = 1;
  // Facade-version offset so ShardedVersionedIndex::version() stays
  // monotone across repartitions (rebuilt shards restart at version 1;
  // carried shards keep counting, so the base only absorbs the retired
  // REBUILT shards' versions).
  uint64_t version_base = 0;
  ShardRouter router;
  Rect domain;
  std::vector<std::shared_ptr<VersionedIndex>> shards;
  std::vector<Workload> shard_workloads;

  int num_shards() const { return static_cast<int>(shards.size()); }
  // Sum of shard versions plus the cross-generation base.
  uint64_t version() const;
  // One shard's current published snapshot version: a single atomic load,
  // no snapshot acquisition. This is the cheap validity probe the result
  // cache stamps entries against (ResultCache::StampValid).
  uint64_t shard_version(int s) const {
    return shards[static_cast<size_t>(s)]->version();
  }
  // Sum of shard point-count mirrors (approximate while writers stream).
  size_t num_points() const;
};

// One shard's contribution to a cross-shard range query (returned so the
// serve layer can attribute drift observations to the shard that did the
// work). Shard ids are relative to the topology epoch the query ran on.
struct ShardQueryPart {
  int shard = 0;
  Rect rect;                     // the clipped sub-rectangle
  uint64_t snapshot_version = 0; // per-shard snapshot the sub-query ran on
  QueryStats stats;              // that sub-query's work counters
};

// One shard's projection (phase-split execution across shards). Holds the
// snapshot it was computed on so ScanParts is guaranteed to scan the same
// instance the spans refer to, and the topology so the shard outlives the
// projection even across a repartition.
struct ShardProjection {
  int shard = 0;
  Rect rect;
  Projection proj;
  std::shared_ptr<ShardTopology> topology;
  SnapshotRef snap;
};

// N VersionedIndex shards behind one query facade, with a swappable
// topology.
//
// Thread-safety contract: every query method may be called from any number
// of threads concurrently. Mutations go through shard(s)'s single-writer
// API — one writer thread PER SHARD of the CURRENT topology (that is the
// scaling point: per-shard writers make update throughput scale with
// cores). BuildTopology may run on any thread; PublishTopology must be
// serialized by the caller (ServeLoop's repartition coordinator).
class ShardedVersionedIndex {
 public:
  ShardedVersionedIndex(IndexFactory factory, const Dataset& data,
                        const Workload& workload,
                        const BuildOptions& build_opts,
                        ShardedIndexOptions opts = {});
  ~ShardedVersionedIndex();

  ShardedVersionedIndex(const ShardedVersionedIndex&) = delete;
  ShardedVersionedIndex& operator=(const ShardedVersionedIndex&) = delete;

  // --- topology (the second snapshot level) ---

  // Pins the current topology: the returned shared_ptr keeps its router
  // AND its shards alive across any concurrent repartition. One atomic
  // load; wait-free.
  std::shared_ptr<ShardTopology> AcquireTopology() const {
    return topology_.Load();
  }

  // Builds (but does not publish) a topology over `router` with this
  // facade's factory/build options. Every cell with changed[s] gets a
  // fresh VersionedIndex built from the `points` routed into it; every
  // other cell is CARRIED from `carry_from` (the successor references the
  // same VersionedIndex). `points` must route into changed cells only,
  // which holds when `router` is a BuildMovedCuts product of carry_from's
  // router and `points` are the changed cells' captured sets. With every
  // cell changed (the constructor, a full re-cut) `carry_from` may be
  // null. Workload slices are recomputed for every cell from `workload`;
  // version_base starts at 0 — the migration coordinator stamps it after
  // the old generation quiesces. Expensive — run it in the background
  // while the current topology keeps serving.
  std::shared_ptr<ShardTopology> BuildTopology(
      const ShardTopology* carry_from, const ShardRouter& router,
      const std::vector<bool>& changed, const std::vector<Point>& points,
      const Workload& workload, const Rect& domain, uint64_t epoch) const;

  // Atomically swaps the published topology. Readers acquire the new one
  // from here on; in-flight queries finish on whichever they pinned. The
  // caller owns the cutover protocol (dual writes, replay, retiring the
  // old generation's writers) — see ServeLoop.
  void PublishTopology(std::shared_ptr<ShardTopology> topo);

  uint64_t epoch() const { return AcquireTopology()->epoch; }

  // --- current-topology conveniences ---
  //
  // Each accessor loads the topology cell INDEPENDENTLY; returned
  // references stay valid until the NEXT PublishTopology (the cell itself
  // holds a reference). Do NOT compose them across a possible concurrent
  // repartition — e.g. `for (s = 0; s < num_shards(); ++s) shard(s)` may
  // index a smaller successor topology if a migration publishes between
  // the calls. Any multi-call inspection while the repartition monitor is
  // enabled (or TriggerRepartition may run) must pin one generation with
  // AcquireTopology and use the topology object directly.

  int num_shards() const { return AcquireTopology()->num_shards(); }
  const ShardRouter& router() const { return AcquireTopology()->router; }
  const Rect& domain() const { return AcquireTopology()->domain; }

  // The per-shard VersionedIndex. Queries through it see only that shard's
  // points; its mutation API is subject to the one-writer-per-shard rule.
  VersionedIndex& shard(int s) {
    return *AcquireTopology()->shards[static_cast<size_t>(s)];
  }
  const VersionedIndex& shard(int s) const {
    return *AcquireTopology()->shards[static_cast<size_t>(s)];
  }

  int ShardOf(const Point& p) const {
    return AcquireTopology()->router.ShardOf(p);
  }

  // The workload slice (queries clipped to the shard's cell) the shard was
  // built against; the serve layer's per-shard rebuild fallback.
  const Workload& shard_workload(int s) const {
    return AcquireTopology()->shard_workloads[static_cast<size_t>(s)];
  }

  // Facade version: the current topology's version_base plus the sum of
  // its shard versions. Monotone under any interleaving of per-shard
  // writers AND across repartitions (each publish stamps a base at least
  // the retiring generation's final version). Introspection only — there
  // is no global snapshot this number identifies.
  uint64_t version() const { return AcquireTopology()->version(); }

  // Sum of shard point counts (atomic mirrors): exact once writers are
  // quiesced, approximate while they stream.
  size_t num_points() const { return AcquireTopology()->num_points(); }

  // A pinned topology plus one pre-acquired snapshot per shard of THAT
  // topology (index == shard id within it). Lets a batch executor pay the
  // topology load and the per-shard atomic acquires once per block instead
  // of once per query, and pins the epoch: every query run against the set
  // executes on this topology even if a repartition swaps the published
  // one mid-batch. Members are declared topology-first so the snapshots
  // release before the topology on destruction. SnapshotRefs carry the
  // acquiring thread's epoch stamp, so a set is thread-bound: acquire,
  // query, and destroy it on one thread (workers may read through a
  // dispatcher-held set while the dispatcher blocks on their completion).
  struct SnapshotSet {
    std::shared_ptr<ShardTopology> topology;
    std::vector<SnapshotRef> snaps;

    // Version of the pinned (pre-acquired) snapshot of shard `s` — the
    // instance queries against this set actually run on. No atomics: the
    // set already owns the snapshot.
    uint64_t shard_version(int s) const {
      return snaps[static_cast<size_t>(s)]->version();
    }
  };

  // Fills `out` with the current topology and every shard's live snapshot
  // (cleared first). Each entry stays valid (and its shard unchanged) for
  // as long as the caller holds it, but holding it also stalls that
  // shard's writer like any other parked snapshot — hold per batch block,
  // not indefinitely.
  void AcquireAll(SnapshotSet* out) const;

  // --- cross-shard queries (any thread) ---
  //
  // All methods pin ONE topology for their whole execution (the given
  // set's, else a fresh acquire) and sum per-shard work counters into
  // `*stats` (never only the last shard's); `stats` may be null to discard
  // them. `version_mass`, when non-null, receives the sum of the versions
  // of every per-shard snapshot the query ran on (with one shard this is
  // exactly the snapshot version; comparable only between queries pinned
  // to the same epoch and shard set). `epoch_out`, when non-null, receives
  // the pinned topology's epoch. `snaps`, when non-null, must come from
  // AcquireAll on this index; the query then runs on those snapshots
  // without touching the publication cells.

  // Appends all points inside `query` to `out`, decomposed into per-shard
  // sub-rectangles. `parts`, when non-null, is cleared and filled with one
  // entry per touched shard (sub-rectangle, snapshot version, counters).
  void RangeQuery(const Rect& query, std::vector<Point>* out,
                  QueryStats* stats = nullptr,
                  std::vector<ShardQueryPart>* parts = nullptr,
                  uint64_t* version_mass = nullptr,
                  const SnapshotSet* snaps = nullptr,
                  uint64_t* epoch_out = nullptr) const;

  // True iff a point with identical coordinates is stored; runs on the
  // single owning shard. `home_shard`, when non-null, receives it
  // (relative to the pinned epoch).
  bool PointQuery(const Point& p, QueryStats* stats = nullptr,
                  uint64_t* version_mass = nullptr,
                  int* home_shard = nullptr,
                  const SnapshotSet* snaps = nullptr,
                  uint64_t* epoch_out = nullptr) const;

  // The k nearest neighbours of `center` by Euclidean distance, sorted by
  // increasing distance, merged across shards via bounded best-first
  // expansion (see file header). Like the PR-1 engine, neighbours are
  // searched within the pinned topology's domain: a point inserted OUTSIDE
  // it is served by range/point queries but may be missed here when fewer
  // than k points exist near the center (the per-shard expansion certifies
  // completion against the clamped cell). A repartition recomputes the
  // domain from the migrated points, so such strays are folded in at the
  // next topology swap.
  std::vector<Point> Knn(const Point& center, int k,
                         QueryStats* stats = nullptr,
                         uint64_t* version_mass = nullptr,
                         const SnapshotSet* snaps = nullptr,
                         uint64_t* epoch_out = nullptr) const;

  // Phase-split execution across shards: per-shard projections over the
  // clipped sub-rectangles (Project), then a filter of those spans against
  // the same per-shard snapshots (ScanParts). Parts pin their topology, so
  // ScanParts is safe even across a repartition between the phases.
  void Project(const Rect& query, std::vector<ShardProjection>* parts,
               QueryStats* stats = nullptr) const;
  void ScanParts(const std::vector<ShardProjection>& parts,
                 std::vector<Point>* out, QueryStats* stats = nullptr) const;

 private:
  // The topology to run a query on: the caller's pinned set when given,
  // else a fresh acquire whose ownership lands in `*owned`.
  const ShardTopology* TopoFor(const SnapshotSet* snaps,
                               std::shared_ptr<ShardTopology>* owned) const;
  // The snapshot to query shard `s` (of `topo`) on: the caller's
  // pre-acquired set when given, else a fresh Acquire() whose ownership
  // lands in `*owned`.
  static const IndexSnapshot* SnapFor(
      const ShardTopology& topo, int s, const SnapshotSet* snaps,
      SnapshotRef* owned);

  IndexFactory factory_;
  BuildOptions build_opts_;
  ShardedIndexOptions opts_;
  std::string data_name_;
  // Registry handles (null without opts_.registry).
  obs::Gauge* epoch_gauge_ = nullptr;
  obs::Gauge* shards_gauge_ = nullptr;
  AtomicCell<ShardTopology> topology_;
};

}  // namespace wazi::serve

#endif  // WAZI_SERVE_SHARDED_INDEX_H_
