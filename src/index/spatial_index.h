// Common interface implemented by WaZI, the Base Z-index, and every
// baseline, so tests, benches and examples can treat all indexes
// uniformly.
//
// Query execution is split into two phases mirroring the paper's Fig. 9
// analysis:
//  * Project(): traverse the search structure and emit the point spans
//    (pages / slices / runs) that must be examined;
//  * ScanProjection(): filter those spans against the query rectangle.
// RangeQuery() is the fused path used for end-to-end latency.

#ifndef WAZI_INDEX_SPATIAL_INDEX_H_
#define WAZI_INDEX_SPATIAL_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/geometry.h"
#include "storage/page_store.h"
#include "workload/dataset.h"

namespace wazi {

// Build-time knobs; one struct for all indexes so harness plumbing stays
// trivial. Index-specific fields are ignored by the others.
struct BuildOptions {
  // Leaf node / page capacity L (paper default: 256).
  int leaf_capacity = 256;
  uint64_t seed = 42;

  // --- WaZI (greedy builder) ---
  // Number of candidate split points sampled per node (kappa).
  int kappa = 32;
  // Skip-cost factor alpha in Eq. 5; the paper uses 1e-5 when look-ahead
  // skipping is enabled and a larger constant without it (alpha_noskip is
  // used by the WaZI-SK ablation variant).
  double alpha = 1e-5;
  double alpha_noskip = 0.5;
  // Use RFDE estimators for counts (the "learned" path). When false, the
  // builder computes exact counts from the data and workload (slow;
  // used by tests and ablations).
  bool use_estimators = true;
  // Snap half the greedy candidates to workload query-corner coordinates
  // (DESIGN.md §4.4); false reverts to the paper's uniform-only sampling.
  bool corner_candidates = true;
  // RFDE forest shape.
  int rfde_trees = 8;
  size_t rfde_subsample = 64 * 1024;
  int rfde_leaf_size = 16;

  // --- Flood ---
  // Candidate column counts are multiples of sqrt(n/L); layouts are
  // evaluated on this many sampled queries.
  size_t flood_sample_queries = 200;

  // --- QUASII ---
  // Number of times the training workload is replayed to converge cracks.
  int quasii_passes = 2;

  // --- Rank-space SFC baselines ---
  int rank_bits = 16;
  // PGM epsilon for Zpgm.
  int pgm_epsilon = 32;
};

// Per-query work counters (Fig. 13's ablation metrics). Accumulated across
// queries; callers reset between measurement blocks.
struct QueryStats {
  int64_t bbs_checked = 0;    // leaf bounding boxes compared to the query
  int64_t pages_scanned = 0;  // pages whose points were filtered
  int64_t points_scanned = 0; // points compared against the query
  int64_t results = 0;        // points reported
  // Result-cache outcomes (src/serve/result_cache.h); always zero on the
  // research path, where no cache sits in front of the index.
  int64_t cache_hits = 0;     // queries answered from a validated entry
  int64_t cache_misses = 0;   // cacheable queries that had to execute
  // Leaf-kernel work shape (common/simd.h): full vector batches vs points
  // filtered by the scalar remainder. Distinguishes a dispatch regression
  // (simd_batches collapses, scalar_tail absorbs the scan) from a data
  // regression (both scale up with points_scanned).
  int64_t simd_batches = 0;
  int64_t scalar_tail = 0;
  int64_t excess_points() const { return points_scanned - results; }

  void Reset() { *this = QueryStats{}; }

  // Folds another counter block in (per-thread aggregation in src/serve/).
  void Add(const QueryStats& o) {
    bbs_checked += o.bbs_checked;
    pages_scanned += o.pages_scanned;
    points_scanned += o.points_scanned;
    results += o.results;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    simd_batches += o.simd_batches;
    scalar_tail += o.scalar_tail;
  }
};

// A projection: the spans of stored points that a query must filter.
using Projection = std::vector<Span>;

class SpatialIndex {
 public:
  virtual ~SpatialIndex() = default;

  virtual std::string name() const = 0;

  // Builds the index over `data`, optionally using `workload` (query-aware
  // indexes). Implementations must be rebuildable (Build twice is fine).
  virtual void Build(const Dataset& data, const Workload& workload,
                     const BuildOptions& opts) = 0;

  // Query entry points. Each call's work counters are accumulated into
  // `*stats`; passing nullptr routes them to the built-in accumulator
  // (`stats()`), which is a single-threaded convenience only. Concurrent
  // readers MUST pass their own QueryStats — with an explicit out-param the
  // const query path touches no shared mutable state, so any number of
  // threads may query one index concurrently (src/serve/ relies on this).

  // Appends all points inside `query` to `out`.
  void RangeQuery(const Rect& query, std::vector<Point>* out,
                  QueryStats* stats = nullptr) const {
    DoRangeQuery(query, out, ResolveStats(stats));
  }

  // Phase-split execution (Fig. 9).
  void Project(const Rect& query, Projection* proj,
               QueryStats* stats = nullptr) const {
    DoProject(query, proj, ResolveStats(stats));
  }
  void ScanProjection(const Projection& proj, const Rect& query,
                      std::vector<Point>* out,
                      QueryStats* stats = nullptr) const {
    DoScanProjection(proj, query, out, ResolveStats(stats));
  }

  // True iff a point with identical coordinates is stored.
  bool PointQuery(const Point& p, QueryStats* stats = nullptr) const {
    return DoPointQuery(p, ResolveStats(stats));
  }

  // Returns false when the index does not support updates. Updates are
  // NOT thread-safe with respect to queries; src/serve/ applies them to a
  // CloneForUpdate() copy that no reader can see until it is published.
  virtual bool Insert(const Point& p);
  virtual bool Remove(const Point& p);

  // A private copy for the serve writer to update while readers keep
  // querying this instance: the writer applies a batch to the clone and
  // publishes it in this instance's place, so the clone must not write
  // any storage it shares with this one. nullptr (the default) means
  // "build a fresh instance from the authoritative point set instead",
  // the path for indexes without cheap updates (including the R-trees,
  // whose Insert works but degrades the packed layout). Safe to call
  // while other threads query this instance.
  virtual std::unique_ptr<SpatialIndex> CloneForUpdate() const {
    return nullptr;
  }

  virtual size_t SizeBytes() const = 0;

  // The built-in accumulator fed by stats-less calls above.
  QueryStats& stats() const { return stats_; }

 protected:
  // Per-index implementations. `stats` is never null; implementations must
  // route every counter update through it and must not touch `stats_`, so
  // that readers supplying private counters are data-race free.
  //
  // Default DoScanProjection filters spans; DoProject must be overridden by
  // every index (the default would have to route through RangeQuery and
  // yield no spans, which would break Fig. 9 — hence pure virtual).
  virtual void DoRangeQuery(const Rect& query, std::vector<Point>* out,
                            QueryStats* stats) const = 0;
  virtual void DoProject(const Rect& query, Projection* proj,
                         QueryStats* stats) const = 0;
  virtual void DoScanProjection(const Projection& proj, const Rect& query,
                                std::vector<Point>* out,
                                QueryStats* stats) const;
  virtual bool DoPointQuery(const Point& p, QueryStats* stats) const = 0;

  QueryStats* ResolveStats(QueryStats* stats) const {
    return stats != nullptr ? stats : &stats_;
  }

  mutable QueryStats stats_;
};

// Factory used by benches/examples; implemented in baselines/registry.cc.
std::unique_ptr<SpatialIndex> MakeIndex(const std::string& name);
// All registered index names (canonical order used in the paper's plots).
std::vector<std::string> AllIndexNames();
// The six-index set used in the detailed experiments (Fig. 6-12).
std::vector<std::string> MainIndexNames();

}  // namespace wazi

#endif  // WAZI_INDEX_SPATIAL_INDEX_H_
