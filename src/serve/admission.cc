#include "serve/admission.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace wazi::serve {

AdmissionQueue::AdmissionQueue(QueryEngine* engine,
                               const ShardedVersionedIndex* index,
                               AdmissionOptions opts,
                               obs::MetricsRegistry* registry,
                               obs::TraceJournal* journal,
                               uint32_t trace_sample_every)
    : engine_(engine),
      index_(index),
      opts_(opts),
      journal_(journal),
      trace_sample_every_(trace_sample_every) {
  opts_.batch_limit = std::max<size_t>(1, opts_.batch_limit);
  if (registry == nullptr) {
    own_registry_ = std::make_unique<obs::MetricsRegistry>();
    registry = own_registry_.get();
  }
  admitted_ctr_ = registry->GetCounter("serve_admission_admitted_total");
  dispatched_ctr_ = registry->GetCounter("serve_admission_dispatched_total");
  batches_ctr_ = registry->GetCounter("serve_admission_batches_total");
  max_batch_gauge_ = registry->GetGauge("serve_admission_max_batch");
  latency_hist_ = registry->GetHistogram("serve_query_latency_ns");
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
}

bool AdmissionQueue::SampleThisQuery() {
  // Rate 0 is the production default and must cost nothing: one compare,
  // no atomics, no clock.
  if (trace_sample_every_ == 0) return false;
  return sample_tick_.fetch_add(1, std::memory_order_relaxed) %
             trace_sample_every_ ==
         0;
}

AdmissionQueue::~AdmissionQueue() { Stop(); }

std::future<QueryResult> AdmissionQueue::Submit(const QueryRequest& request) {
  Pending p;
  p.request = request;
  if (SampleThisQuery()) p.submit_ns = obs::TraceJournal::NowNs();
  std::future<QueryResult> future = p.promise.get_future();
  bool notify = false;
  {
    MutexLock lock(&mu_);
    if (stop_) {
      // Late submit: keep the contract (a resolved future) without the
      // dispatcher. Inline execution is the degenerate batch of one,
      // counted as such so the stats invariants keep holding after Stop.
      lock.Unlock();
      {
        MutexLock stats_lock(&stats_mu_);
        ++stats_.admitted;
        admitted_ctr_->Add(1);
      }
      // Dispatched BEFORE the future resolves — same ordering contract as
      // DispatchBatch: a client that observes its result must also
      // observe it in stats(), even on this inline path.
      QueryStats stats;
      QueryResult result = engine_->Execute(request, &stats);
      CountDispatched(1);
      p.promise.set_value(std::move(result));
      return future;
    }
    pending_.push_back(std::move(p));
    // Counted before mu_ drops so stats() never observes a query as
    // dispatched but not yet admitted (the dispatcher cannot even see it
    // until mu_ releases).
    {
      MutexLock stats_lock(&stats_mu_);
      ++stats_.admitted;
      admitted_ctr_->Add(1);
    }
    // Wake the dispatcher on new work (empty -> non-empty) or a full
    // batch; arrivals in between are taken (without a futex wake each)
    // when the dispatcher next drains the queue.
    notify = pending_.size() == 1 || pending_.size() >= opts_.batch_limit;
  }
  if (notify) cv_.NotifyOne();
  return future;
}

std::vector<std::future<QueryResult>> AdmissionQueue::SubmitBatch(
    const std::vector<QueryRequest>& requests) {
  std::vector<std::future<QueryResult>> futures;
  futures.reserve(requests.size());
  bool notify = false;
  {
    MutexLock lock(&mu_);
    if (stop_) {
      lock.Unlock();
      for (const QueryRequest& request : requests) {
        {
          MutexLock stats_lock(&stats_mu_);
          ++stats_.admitted;
          admitted_ctr_->Add(1);
        }
        std::promise<QueryResult> promise;
        futures.push_back(promise.get_future());
        // Count before resolving (the DispatchBatch ordering contract).
        QueryStats stats;
        QueryResult result = engine_->Execute(request, &stats);
        CountDispatched(1);
        promise.set_value(std::move(result));
      }
      return futures;
    }
    const bool was_empty = pending_.empty();
    for (const QueryRequest& request : requests) {
      Pending p;
      p.request = request;
      if (SampleThisQuery()) p.submit_ns = obs::TraceJournal::NowNs();
      futures.push_back(p.promise.get_future());
      pending_.push_back(std::move(p));
    }
    {
      MutexLock stats_lock(&stats_mu_);
      stats_.admitted += static_cast<int64_t>(requests.size());
      admitted_ctr_->Add(static_cast<int64_t>(requests.size()));
    }
    notify = !requests.empty() &&
             (was_empty || pending_.size() >= opts_.batch_limit);
  }
  if (notify) cv_.NotifyOne();
  return futures;
}

void AdmissionQueue::Stop() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  // Synchronous drain: the dispatcher exits only once pending_ is empty,
  // so after the join every future ever handed out has resolved.
  MutexLock join_lock(&join_mu_);
  if (dispatcher_.joinable()) dispatcher_.join();
}

AdmissionStats AdmissionQueue::stats() const {
  // One sequence point: every field of the returned snapshot comes from
  // the same instant, so the struct's documented invariants hold.
  MutexLock lock(&stats_mu_);
  return stats_;
}

int64_t AdmissionQueue::CountDispatched(size_t n) {
  MutexLock lock(&stats_mu_);
  stats_.dispatched += static_cast<int64_t>(n);
  ++stats_.batches;
  stats_.max_batch = std::max(stats_.max_batch, static_cast<int64_t>(n));
  // Registry mirrors move under the same sequence point, so exported
  // values obey the same invariants as the stats() snapshot.
  dispatched_ctr_->Add(static_cast<int64_t>(n));
  batches_ctr_->Add(1);
  max_batch_gauge_->Set(stats_.max_batch);
  return stats_.max_batch;
}

void AdmissionQueue::DispatcherLoop() {
  MutexLock lock(&mu_);
  for (;;) {
    while (!stop_ && pending_.empty()) cv_.Wait(mu_);
    if (pending_.empty()) {
      if (stop_) return;  // drained
      continue;
    }
    // With a window set, linger for the batch to fill — bounded by
    // window_us from the moment the first query was picked up. Skipped by
    // default (window 0: take what is pending now), when stopping (drain
    // fast) or when already full.
    if (opts_.window_us > 0 && !stop_ &&
        pending_.size() < opts_.batch_limit) {
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::microseconds(opts_.window_us);
      while (!stop_ && pending_.size() < opts_.batch_limit) {
        if (cv_.WaitUntil(mu_, deadline) == std::cv_status::timeout) break;
      }
    }
    std::vector<Pending> batch;
    const size_t take = std::min(pending_.size(), opts_.batch_limit);
    batch.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(pending_.front()));
      pending_.pop_front();
    }
    lock.Unlock();
    DispatchBatch(&batch);
    lock.Lock();
  }
}

void AdmissionQueue::DispatchBatch(std::vector<Pending>* batch) {
  const size_t n = batch->size();
  // Group by query type: each engine worker block then executes a
  // homogeneous run (ranges together, then points, then kNN) instead of
  // interleaving code paths. Stable, so same-type queries keep their
  // submission order; `order` maps execution slots back to submitters.
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return static_cast<int>((*batch)[a].request.type) <
           static_cast<int>((*batch)[b].request.type);
  });
  std::vector<QueryRequest> requests;
  requests.reserve(n);
  for (const size_t i : order) requests.push_back((*batch)[i].request);

  // Clock reads only when a sampled query is aboard: the common batch at
  // sample rate 0 never touches the clock.
  bool any_sampled = false;
  for (const Pending& p : *batch) {
    if (p.submit_ns != 0) {
      any_sampled = true;
      break;
    }
  }
  const int64_t admit_ns = any_sampled ? obs::TraceJournal::NowNs() : 0;

  // THE admission win: one topology pin + one snapshot acquire per shard
  // for the whole batch. Held only for the batch's execution, so it
  // stalls writers no longer than any other per-block reader.
  ShardedVersionedIndex::SnapshotSet snaps;
  index_->AcquireAll(&snaps);
  std::vector<QueryResult> results;
  engine_->ExecuteBatchOn(requests, &results, snaps);

  // Counters before the futures resolve: a client that observes its
  // result (future.get()) must also observe it in stats().
  const int64_t max_batch = CountDispatched(n);
  if (journal_ != nullptr) {
    journal_->Record(obs::TraceEventKind::kAdmissionDispatch, /*epoch=*/0,
                     /*shard=*/-1, static_cast<int64_t>(n), max_batch);
  }
  for (size_t slot = 0; slot < n; ++slot) {
    (*batch)[order[slot]].promise.set_value(std::move(results[slot]));
  }
  if (any_sampled) {
    // resolve stamp taken once the whole batch's futures are fulfilled:
    // the span a client actually experiences on future.get().
    const int64_t resolve_ns = obs::TraceJournal::NowNs();
    for (const Pending& p : *batch) {
      if (p.submit_ns == 0) continue;
      const int64_t wait = admit_ns - p.submit_ns;
      const int64_t exec = resolve_ns - admit_ns;
      latency_hist_->Record(resolve_ns - p.submit_ns);
      if (journal_ != nullptr) {
        journal_->Record(obs::TraceEventKind::kQueryTrace, /*epoch=*/0,
                         /*shard=*/-1, wait, exec, /*admitted=*/1);
      }
    }
  }
}

}  // namespace wazi::serve
