// Multi-threaded query execution over a ShardedVersionedIndex: a batch of
// range / point / kNN requests splits into up to num_threads blocks; the
// calling thread runs the first and a ThreadPool of num_threads - 1
// workers the rest. Each block resolves its queries through the shard
// router (single-shard point lookups, per-shard sub-rectangle ranges,
// cross-shard kNN merges), with work counters accumulated into per-block
// (cache-line padded) QueryStats.

#ifndef WAZI_SERVE_QUERY_ENGINE_H_
#define WAZI_SERVE_QUERY_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_annotations.h"
#include "index/spatial_index.h"
#include "obs/metrics.h"
#include "serve/sharded_index.h"
#include "serve/thread_pool.h"

namespace wazi::serve {

class ResultCache;

struct QueryRequest {
  enum class Type { kRange, kPoint, kKnn };
  Type type = Type::kRange;
  Rect rect;    // kRange
  Point point;  // kPoint target / kKnn center
  int k = 0;    // kKnn

  static QueryRequest Range(const Rect& r) {
    QueryRequest q;
    q.type = Type::kRange;
    q.rect = r;
    return q;
  }
  static QueryRequest PointLookup(const Point& p) {
    QueryRequest q;
    q.type = Type::kPoint;
    q.point = p;
    return q;
  }
  static QueryRequest Knn(const Point& center, int k) {
    QueryRequest q;
    q.type = Type::kKnn;
    q.point = center;
    q.k = k;
    return q;
  }
};

struct QueryResult {
  std::vector<Point> hits;  // range hits / kNN neighbors (sorted)
  bool found = false;       // point lookup outcome
  // Sum of the versions of the per-shard snapshots this query ran on. With
  // one shard this is exactly the snapshot version; with more it is a
  // version mass, comparable only between queries touching the same shard
  // set at the same epoch (cross-shard queries have no single global
  // version — shards swap snapshots independently).
  uint64_t snapshot_version = 0;
  // Epoch of the topology the query was pinned to. A batch pins one
  // topology per executor block, so results within a block share it;
  // a live repartition bumps it between blocks/queries.
  uint64_t epoch = 0;
};

class QueryEngine {
 public:
  // `index` must outlive the engine. A batch executes on `num_threads`
  // threads (clamped to >= 1): the caller plus num_threads - 1 pool
  // workers, so an engine at 1 starts no thread at all. `cache`, when
  // non-null, memoizes range results (probed and refreshed on every path
  // through the engine; see serve/result_cache.h for the stamp-validation
  // protocol). `registry`, when given, hosts the per-type query counters
  // (serve_{range,point,knn}_queries_total); a standalone engine owns a
  // private registry so the counting code stays branch-free.
  QueryEngine(const ShardedVersionedIndex* index, int num_threads,
              ResultCache* cache = nullptr,
              obs::MetricsRegistry* registry = nullptr);

  // Executes requests[i] into (*results)[i]: the caller runs the first
  // block and the pool the others; returns when the whole batch is done.
  // Each block pins the topology and acquires every shard's snapshot once
  // (AcquireAll), so one batch may straddle snapshot swaps — or a whole
  // live repartition — across blocks (each result records the epoch and
  // version mass it ran on) but never within a block. Safe to call from
  // multiple threads; concurrent batches share the pool's workers but
  // each returns as soon as ITS OWN blocks finish (per-batch latch, not
  // pool-wide idle), and no caller ever waits on another caller's block.
  void ExecuteBatch(const std::vector<QueryRequest>& requests,
                    std::vector<QueryResult>* results);

  // The admission path: executes the whole batch against ONE pre-acquired
  // snapshot set (`snaps` must come from AcquireAll on this engine's
  // index). Every worker block shares `snaps` instead of acquiring its
  // own, so the batch is epoch-pinned end to end — one topology load and
  // one snapshot acquire per shard for the entire admitted batch, even
  // if a repartition publishes or shards swap snapshots mid-flight.
  void ExecuteBatchOn(const std::vector<QueryRequest>& requests,
                      std::vector<QueryResult>* results,
                      const ShardedVersionedIndex::SnapshotSet& snaps);

  // Executes one request on the calling thread (external client threads
  // drive the engine through this). `stats` must be a caller-owned counter
  // block when called concurrently; it may be null to discard the counters.
  // Counters from every shard a query touches are summed in.
  QueryResult Execute(const QueryRequest& request, QueryStats* stats) const;

  // THE range path: probes the result cache (when wired), executes on a
  // miss, and refreshes the entry — the single implementation behind both
  // ServeLoop::Range and the engine's batch execution, so the stamp
  // protocol and hit/miss accounting cannot drift between them. `parts`,
  // when non-null, receives the per-shard attribution of an executed
  // query and is CLEARED on a cache hit (a hit does no shard work, so
  // there is nothing to attribute). `snaps` as in the facade's queries.
  QueryResult ExecuteRange(const Rect& rect, QueryStats* stats,
                           const ShardedVersionedIndex::SnapshotSet* snaps,
                           std::vector<ShardQueryPart>* parts) const;

  // Sum of the counters accumulated by every completed ExecuteBatch /
  // ExecuteBatchOn call.
  QueryStats aggregated_stats() const EXCLUDES(stats_mu_);
  void ResetStats() EXCLUDES(stats_mu_);

  int num_threads() const { return num_threads_; }

 private:
  QueryResult ExecuteOn(const QueryRequest& request, QueryStats* stats,
                        const ShardedVersionedIndex::SnapshotSet* snaps) const;
  // Adds the kernel-shape counter growth since (batches_before,
  // tail_before) to the registry mirrors.
  void MirrorKernelShape(const QueryStats& st, int64_t batches_before,
                         int64_t tail_before) const;
  // Shared batch driver: runs block 0 on the caller and hands the rest to
  // the pool; blocks run on `shared_snaps` when given, else each acquires
  // its own set.
  void RunBatch(const std::vector<QueryRequest>& requests,
                std::vector<QueryResult>* results,
                const ShardedVersionedIndex::SnapshotSet* shared_snaps)
      EXCLUDES(stats_mu_);

  const ShardedVersionedIndex* index_;
  ResultCache* cache_;  // may be null / disabled
  std::unique_ptr<obs::MetricsRegistry> own_registry_;
  obs::Counter* range_queries_ = nullptr;
  obs::Counter* point_queries_ = nullptr;
  obs::Counter* knn_queries_ = nullptr;
  // Leaf-kernel work shape (QueryStats::simd_batches/scalar_tail) mirrored
  // into the registry per executed query.
  obs::Counter* simd_batches_ = nullptr;
  obs::Counter* scalar_tail_ = nullptr;
  // Threads one batch executes on: the caller plus the pool's
  // num_threads_ - 1 workers.
  const int num_threads_;
  ThreadPool pool_;
  // Batch counters are accumulated in per-block (cache-line padded) locals
  // during execution and folded in here once the batch completes, so
  // concurrent ExecuteBatch calls never share a counter block.
  mutable Mutex stats_mu_;
  QueryStats batch_stats_ GUARDED_BY(stats_mu_);
};

}  // namespace wazi::serve

#endif  // WAZI_SERVE_QUERY_ENGINE_H_
