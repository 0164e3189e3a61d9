#include "serve/query_engine.h"

#include <algorithm>
#include <latch>
#include <memory>

#include "serve/result_cache.h"

namespace wazi::serve {

namespace {

struct alignas(64) PaddedStats {
  QueryStats stats;
};

}  // namespace

QueryEngine::QueryEngine(const ShardedVersionedIndex* index, int num_threads,
                         ResultCache* cache, obs::MetricsRegistry* registry)
    : index_(index),
      cache_(cache),
      num_threads_(std::max(1, num_threads)),
      pool_(num_threads_ - 1) {
  if (registry == nullptr) {
    own_registry_ = std::make_unique<obs::MetricsRegistry>();
    registry = own_registry_.get();
  }
  range_queries_ = registry->GetCounter("serve_range_queries_total");
  point_queries_ = registry->GetCounter("serve_point_queries_total");
  knn_queries_ = registry->GetCounter("serve_knn_queries_total");
  simd_batches_ = registry->GetCounter("serve_simd_batches_total");
  scalar_tail_ = registry->GetCounter("serve_scalar_tail_total");
}

void QueryEngine::MirrorKernelShape(const QueryStats& st,
                                    int64_t batches_before,
                                    int64_t tail_before) const {
  const int64_t batches = st.simd_batches - batches_before;
  const int64_t tail = st.scalar_tail - tail_before;
  if (batches > 0) simd_batches_->Add(batches);
  if (tail > 0) scalar_tail_->Add(tail);
}

void QueryEngine::ExecuteBatch(const std::vector<QueryRequest>& requests,
                               std::vector<QueryResult>* results) {
  RunBatch(requests, results, /*shared_snaps=*/nullptr);
}

void QueryEngine::ExecuteBatchOn(
    const std::vector<QueryRequest>& requests,
    std::vector<QueryResult>* results,
    const ShardedVersionedIndex::SnapshotSet& snaps) {
  RunBatch(requests, results, &snaps);
}

void QueryEngine::RunBatch(
    const std::vector<QueryRequest>& requests,
    std::vector<QueryResult>* results,
    const ShardedVersionedIndex::SnapshotSet* shared_snaps) {
  const size_t n = requests.size();
  results->clear();
  results->resize(n);
  if (n == 0) return;
  const size_t workers = std::min(n, static_cast<size_t>(num_threads_));
  const size_t block = (n + workers - 1) / workers;
  const size_t blocks = (n + block - 1) / block;
  // Per-block counters local to this batch: concurrent ExecuteBatch calls
  // from different client threads never share a counter slot.
  std::vector<PaddedStats> block_stats(blocks);
  auto run_block = [this, &requests, results, &block_stats, shared_snaps,
                    n, block](size_t b) {
    const size_t begin = b * block;
    const size_t end = std::min(n, begin + block);
    QueryStats* stats = &block_stats[b].stats;
    // One acquire per shard per block (not per query) — or zero when the
    // caller pinned a set for the whole batch (the admission path): the
    // block runs on a consistent per-shard snapshot set, and the atomic
    // refcount traffic on the publication cells stays off the per-query
    // path.
    ShardedVersionedIndex::SnapshotSet local_snaps;
    const ShardedVersionedIndex::SnapshotSet* snaps = shared_snaps;
    if (snaps == nullptr) {
      index_->AcquireAll(&local_snaps);
      snaps = &local_snaps;
    }
    for (size_t i = begin; i < end; ++i) {
      (*results)[i] = ExecuteOn(requests[i], stats, snaps);
    }
  };
  // Blocks 1..blocks-1 go to the pool; the caller runs block 0 itself, so
  // a one-block batch (every batch at num_threads = 1) never leaves the
  // calling thread. The per-batch latch counts only the pool's blocks,
  // NOT ThreadPool::Wait: Wait is a pool-global idle barrier, and the pool
  // is shared between direct ExecuteBatch callers and the admission
  // dispatcher — waiting for global idle would extend every batch's
  // latency by every OTHER in-flight batch under sustained traffic.
  std::latch done(static_cast<ptrdiff_t>(blocks - 1));
  for (size_t b = 1; b < blocks; ++b) {
    pool_.Submit([&run_block, &done, b] {
      run_block(b);
      done.count_down();
    });
  }
  run_block(0);
  done.wait();
  MutexLock lock(&stats_mu_);
  for (const PaddedStats& ps : block_stats) batch_stats_.Add(ps.stats);
}

QueryResult QueryEngine::Execute(const QueryRequest& request,
                                 QueryStats* stats) const {
  return ExecuteOn(request, stats, /*snaps=*/nullptr);
}

QueryResult QueryEngine::ExecuteOn(
    const QueryRequest& request, QueryStats* stats,
    const ShardedVersionedIndex::SnapshotSet* snaps) const {
  QueryResult result;
  // Kernel-shape counters mirror into the registry even when the caller
  // discards its stats, so the OPERATIONS.md dispatch probe always sees
  // production traffic.
  QueryStats local;
  QueryStats* st = stats != nullptr ? stats : &local;
  const int64_t batches_before = st->simd_batches;
  const int64_t tail_before = st->scalar_tail;
  switch (request.type) {
    case QueryRequest::Type::kRange:
      // ExecuteRange mirrors its own kernel shape.
      return ExecuteRange(request.rect, stats, snaps, /*parts=*/nullptr);
    case QueryRequest::Type::kPoint:
      point_queries_->Add(1);
      result.found = index_->PointQuery(request.point, st,
                                        &result.snapshot_version,
                                        /*home_shard=*/nullptr, snaps,
                                        &result.epoch);
      break;
    case QueryRequest::Type::kKnn:
      knn_queries_->Add(1);
      result.hits = index_->Knn(request.point, request.k, st,
                                &result.snapshot_version, snaps,
                                &result.epoch);
      break;
  }
  MirrorKernelShape(*st, batches_before, tail_before);
  return result;
}

QueryResult QueryEngine::ExecuteRange(
    const Rect& rect, QueryStats* stats,
    const ShardedVersionedIndex::SnapshotSet* snaps,
    std::vector<ShardQueryPart>* parts) const {
  QueryResult result;
  range_queries_->Add(1);
  QueryStats local;
  QueryStats* st = stats != nullptr ? stats : &local;
  const int64_t batches_before = st->simd_batches;
  const int64_t tail_before = st->scalar_tail;
  const bool cached = cache_ != nullptr && cache_->enabled();
  if (cached) {
    // Pin the topology the probe validates against. With a caller
    // SnapshotSet the validation runs against its pre-acquired snapshots
    // (a hit is exactly the result an execution on the set would
    // produce); without one it runs against the live shard versions,
    // equivalent to executing at probe time.
    std::shared_ptr<ShardTopology> owned_topo;
    const ShardTopology* topo =
        snaps != nullptr ? snaps->topology.get()
                         : (owned_topo = index_->AcquireTopology()).get();
    if (cache_->Lookup(rect, *topo, snaps, &result.hits,
                       &result.snapshot_version)) {
      result.epoch = topo->epoch;
      if (parts != nullptr) parts->clear();  // no shard did work
      if (stats != nullptr) {
        ++stats->cache_hits;
        stats->results += static_cast<int64_t>(result.hits.size());
      }
      return result;
    }
  }
  // The insert needs the per-shard attribution even when the caller does
  // not; scratch is consumed before returning (serving hot path — no
  // per-query allocation).
  static thread_local std::vector<ShardQueryPart> scratch;
  std::vector<ShardQueryPart>* use_parts =
      parts != nullptr ? parts : (cached ? &scratch : nullptr);
  index_->RangeQuery(rect, &result.hits, st, use_parts,
                     &result.snapshot_version, snaps, &result.epoch);
  if (cached) {
    cache_->Insert(rect, result.hits, result.epoch, *use_parts);
    if (stats != nullptr) ++stats->cache_misses;
  }
  MirrorKernelShape(*st, batches_before, tail_before);
  return result;
}

QueryStats QueryEngine::aggregated_stats() const {
  MutexLock lock(&stats_mu_);
  return batch_stats_;
}

void QueryEngine::ResetStats() {
  MutexLock lock(&stats_mu_);
  batch_stats_.Reset();
}

}  // namespace wazi::serve
