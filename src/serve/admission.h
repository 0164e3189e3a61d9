// Batched query admission: the pipelining layer between clients and the
// query engine.
//
// The direct entry points (ServeLoop::Range et al.) execute each query on
// the calling thread, paying one topology load plus one snapshot acquire
// per touched shard PER QUERY. Under many concurrent clients that atomic
// refcount traffic on the publication cells — and the per-query fan-out
// bookkeeping — is pure overhead: queries arriving within microseconds of
// each other could all run on the same pinned snapshot set.
//
// The AdmissionQueue coalesces concurrent submissions into bounded
// batches:
//
//   client ──Submit()──► pending queue ──► dispatcher thread
//                                            │  takes what is pending
//                                            │  when it wakes (up to
//                                            │  batch_limit)
//                                            ▼
//                                          group by query type
//                                            ▼
//                                          AcquireAll() ONCE
//                                            ▼
//                                          QueryEngine::ExecuteBatchOn()
//                                            │  block 0 on this thread,
//                                            │  the rest on the pool
//                                            ▼
//                                          fulfil the clients' futures
//
// Each dispatched batch runs under a single epoch-pinned SnapshotSet
// acquisition: one topology load and one snapshot acquire per shard for
// the whole batch, shared by every engine worker (the direct batch path
// acquires per worker block; a repartition can therefore never straddle
// an admitted batch). Requests are grouped by query type before execution
// so each worker block runs a homogeneous instruction stream; results are
// scattered back to the submission order through the clients' futures.
// The dispatcher executes the batch's first block itself, so at the
// engine's num_threads = 1 a batch never leaves the dispatcher thread: no
// pool hand-off, no latch wake.
//
// Batches form by dispatching when idle: a query submitted to an idle
// dispatcher runs at once as a batch of one, and the queries that arrive
// while a batch executes form the next batch. Under load the batch size
// therefore follows the arrival rate times the execution time, with no
// linger to pay for it. `window_us` > 0 adds a linger: the dispatcher
// waits up to that long for a batch to fill to `batch_limit` — trading
// up to ~window_us of latency per query for larger batches.
//
// Thread-safety: Submit/SubmitBatch from any number of threads. Stop (or
// destruction) drains every pending query before returning — no future is
// ever abandoned.

#ifndef WAZI_SERVE_ADMISSION_H_
#define WAZI_SERVE_ADMISSION_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "obs/trace_journal.h"
#include "serve/query_engine.h"

namespace wazi::serve {

struct AdmissionOptions {
  // Max queries per dispatched batch; a full batch dispatches without
  // waiting out the window.
  size_t batch_limit = 64;
  // Max time the dispatcher lingers for a batch to fill, measured from
  // when it picks up the first pending query. 0 (the default) dispatches
  // whatever is pending when the dispatcher is idle; set > 0 only to
  // trade latency for larger batches.
  int64_t window_us = 0;
};

// Monotone counters. stats() returns a mutually CONSISTENT snapshot:
// all fields are published under one mutex (a single sequence point), so
// an observer can rely on the invariants admitted >= dispatched,
// batches <= dispatched, max_batch <= dispatched, and batches > 0
// whenever dispatched > 0 — independently-read atomics used to allow
// e.g. `dispatched > admitted` between the reads.
struct AdmissionStats {
  int64_t admitted = 0;    // queries accepted by Submit/SubmitBatch
  int64_t dispatched = 0;  // queries handed to the engine
  int64_t batches = 0;     // dispatched batches (inline post-Stop
                           // executions count as batches of one)
  int64_t max_batch = 0;   // largest single batch
  double mean_batch() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(dispatched) /
                              static_cast<double>(batches);
  }
};

class AdmissionQueue {
 public:
  // `engine` and `index` must outlive the queue (ServeLoop owns all
  // three). The dispatcher thread starts immediately. `registry` hosts
  // the admission counters (serve_admission_*; a private registry backs
  // them when null), `journal` (optional) receives one
  // kAdmissionDispatch event per batch, and `trace_sample_every` samples
  // every Nth submitted query into a full submit→admit→execute→resolve
  // span (latency histogram serve_query_latency_ns + kQueryTrace event).
  // 0 disables sampling: the submit path then does one integer compare
  // and never reads a clock.
  AdmissionQueue(QueryEngine* engine, const ShardedVersionedIndex* index,
                 AdmissionOptions opts,
                 obs::MetricsRegistry* registry = nullptr,
                 obs::TraceJournal* journal = nullptr,
                 uint32_t trace_sample_every = 0);
  ~AdmissionQueue();

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  // Enqueues one query; the future resolves once its batch executes.
  // After Stop, falls back to inline execution on the calling thread (the
  // future is already resolved when returned).
  std::future<QueryResult> Submit(const QueryRequest& request)
      EXCLUDES(mu_, stats_mu_);

  // Enqueues a block of queries as one unit (they may still be split
  // across dispatch batches by batch_limit, or merged with concurrent
  // submitters' queries). futures[i] corresponds to requests[i].
  std::vector<std::future<QueryResult>> SubmitBatch(
      const std::vector<QueryRequest>& requests) EXCLUDES(mu_, stats_mu_);

  // Drains every pending query and joins the dispatcher: when Stop
  // returns, every future ever handed out has resolved. Idempotent; the
  // destructor calls it. Later submits execute inline.
  void Stop() EXCLUDES(mu_);

  AdmissionStats stats() const EXCLUDES(stats_mu_);

 private:
  struct Pending {
    QueryRequest request;
    std::promise<QueryResult> promise;
    // Non-zero iff this query was sampled for tracing: the steady-clock
    // submit stamp the dispatcher computes its spans against.
    int64_t submit_ns = 0;
  };

  void DispatcherLoop() EXCLUDES(mu_);
  // Groups, executes (one AcquireAll for the whole batch), and fulfils.
  void DispatchBatch(std::vector<Pending>* batch) EXCLUDES(mu_, stats_mu_);
  // Folds one executed batch of `n` queries into stats_ (one seq point);
  // returns the updated max_batch so callers need not re-lock to read it.
  int64_t CountDispatched(size_t n) EXCLUDES(stats_mu_);
  // True every trace_sample_every-th call (false forever at rate 0).
  bool SampleThisQuery();

  QueryEngine* engine_;
  const ShardedVersionedIndex* index_;
  AdmissionOptions opts_;

  Mutex mu_;
  CondVar cv_;  // dispatcher: pending work / stop
  std::deque<Pending> pending_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  Mutex join_mu_;  // serializes concurrent Stop() callers' join

  // All four counters move together under stats_mu_ — stats() is one
  // sequence point, never a torn mix of before/after a dispatch. Lock
  // order where both are held: mu_ then stats_mu_ (Submit counts the
  // admission while still holding mu_, so the dispatcher cannot dispatch
  // a query before it is counted as admitted).
  mutable Mutex stats_mu_ ACQUIRED_AFTER(mu_);
  AdmissionStats stats_ GUARDED_BY(stats_mu_);

  // Registry mirrors of stats_, updated under stats_mu_ so the exported
  // values keep the same invariants as the snapshot accessor (the
  // pointers are set once in the constructor; PT_GUARDED_BY holds their
  // Add/Set calls to the same sequence-point discipline).
  std::unique_ptr<obs::MetricsRegistry> own_registry_;
  obs::Counter* admitted_ctr_ PT_GUARDED_BY(stats_mu_) = nullptr;
  obs::Counter* dispatched_ctr_ PT_GUARDED_BY(stats_mu_) = nullptr;
  obs::Counter* batches_ctr_ PT_GUARDED_BY(stats_mu_) = nullptr;
  obs::Gauge* max_batch_gauge_ PT_GUARDED_BY(stats_mu_) = nullptr;
  obs::Histogram* latency_hist_ = nullptr;  // sampled end-to-end spans
  obs::TraceJournal* journal_ = nullptr;
  const uint32_t trace_sample_every_;
  std::atomic<uint32_t> sample_tick_{0};
  std::thread dispatcher_;
};

}  // namespace wazi::serve

#endif  // WAZI_SERVE_ADMISSION_H_
