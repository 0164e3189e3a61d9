#include "serve/serve_loop.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

namespace wazi::serve {

ServeLoop::ServeLoop(IndexFactory factory, const Dataset& data,
                     const Workload& workload, const BuildOptions& build_opts,
                     ServeOptions opts)
    : opts_(opts),
      journal_(opts.obs.journal_capacity),
      index_(std::move(factory), data, workload, build_opts,
             MakeIndexOptions()),
      cache_(opts.cache, &metrics_, &journal_),
      engine_(&index_, opts.num_threads, &cache_, &metrics_),
      admission_(std::make_unique<AdmissionQueue>(
          &engine_, &index_, opts.admission, &metrics_, &journal_,
          opts.obs.trace_sample_every)),
      repartition_monitor_(opts.repartition) {
  rebuilds_ctr_ = metrics_.GetCounter("serve_drift_rebuilds_total");
  stall_ctr_ = metrics_.GetCounter("serve_stall_copies_total");
  migrations_ctr_ = metrics_.GetCounter("serve_migrations_total");
  migrations_incr_ctr_ =
      metrics_.GetCounter("serve_migrations_incremental_total");
  moved_points_ctr_ = metrics_.GetCounter("serve_moved_points_total");
  last_moved_gauge_ = metrics_.GetGauge("serve_last_moved_shards");
  last_carried_gauge_ = metrics_.GetGauge("serve_last_carried_shards");
  // Same handles the engine registers: the direct Knn/PointLookup paths
  // bypass the engine, so the loop counts those itself.
  point_queries_ctr_ = metrics_.GetCounter("serve_point_queries_total");
  knn_queries_ctr_ = metrics_.GetCounter("serve_knn_queries_total");
  simd_batches_ctr_ = metrics_.GetCounter("serve_simd_batches_total");
  scalar_tail_ctr_ = metrics_.GetCounter("serve_scalar_tail_total");
  latency_hist_ = metrics_.GetHistogram("serve_query_latency_ns");
  const std::shared_ptr<ShardTopology> topo = index_.AcquireTopology();
  writer_gen_.Store(StartWriters(
      topo, std::vector<bool>(static_cast<size_t>(topo->num_shards()), true)));
  if (opts_.repartition.enabled) {
    monitor_thread_ = std::thread([this] { MonitorLoop(); });
  }
}

ServeLoop::~ServeLoop() { Stop(); }

ShardedIndexOptions ServeLoop::MakeIndexOptions() {
  // Shared per-shard options; the topology builders stamp the per-shard
  // (shard_id, epoch) attribution on top.
  VersionedIndexOptions vopts;
  vopts.track_points = opts_.track_points;
  vopts.writer_stall_ms = opts_.writer_stall_ms;
  vopts.stall_counter = metrics_.GetCounter("serve_stall_copies_total");
  vopts.publish_counter =
      metrics_.GetCounter("serve_snapshot_publishes_total");
  vopts.zombie_gauge = metrics_.GetGauge("serve_zombie_instances");
  vopts.journal = &journal_;
  // Only the result cache reads the publish history.
  vopts.publish_history = opts_.cache.capacity_bytes > 0;
  ShardedIndexOptions sopts;
  sopts.num_shards = opts_.num_shards;
  sopts.versioned = vopts;
  sopts.registry = &metrics_;
  return sopts;
}

bool ServeLoop::SampleThisQuery() {
  // Rate 0 is the production default and must cost nothing: one integer
  // compare, no atomics, no clock.
  if (opts_.obs.trace_sample_every == 0) return false;
  return sample_tick_.fetch_add(1, std::memory_order_relaxed) %
             opts_.obs.trace_sample_every ==
         0;
}

void ServeLoop::FinishMigration(uint64_t new_epoch, int64_t moved_shards,
                                int64_t carried_shards,
                                int64_t moved_points) {
  const bool incremental = carried_shards > 0;
  {
    MutexLock lock(&mig_mu_);
    ++mig_.migrations;
    if (incremental) ++mig_.incremental;
    mig_.last_moved_shards = moved_shards;
    mig_.last_carried_shards = carried_shards;
    mig_.last_moved_points = moved_points;
    mig_.total_moved_points += moved_points;
    // Registry mirrors and the repartitions() atomic move under the same
    // sequence point, so no observer ever sees e.g. the exported
    // migrations counter ahead of migration_stats().
    migrations_ctr_->Add(1);
    if (incremental) migrations_incr_ctr_->Add(1);
    moved_points_ctr_->Add(moved_points);
    last_moved_gauge_->Set(moved_shards);
    last_carried_gauge_->Set(carried_shards);
    // release: pairs with the acquire read in migration_stats(), so the
    // counters updated above are visible once the bump is observed.
    repartitions_.fetch_add(1, std::memory_order_release);
  }
  journal_.Record(obs::TraceEventKind::kMigrationRetire, new_epoch,
                  /*shard=*/-1, moved_shards, carried_shards, moved_points);
}

std::shared_ptr<ServeLoop::WriterGen> ServeLoop::StartWriters(
    std::shared_ptr<ShardTopology> topo, const std::vector<bool>& changed) {
  auto gen = std::make_shared<WriterGen>();
  gen->epoch = topo->epoch;
  gen->topo = std::move(topo);
  const int n = gen->topo->num_shards();
  gen->writers.reserve(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) {
    gen->writers.push_back(std::make_unique<ShardWriter>(opts_.drift));
    ShardWriter& w = *gen->writers.back();
    // Pre-thread initialization: nothing else can reach this shard yet,
    // so the guards are uncontended — hold them anyway and keep the
    // field contracts unconditional.
    {
      MutexLock lock(&w.monitor_mu);
      w.recent.resize(opts_.recent_window);
    }
    if (!changed[static_cast<size_t>(s)]) {
      MutexLock lock(&w.queue_mu);
      w.gate = true;
    }
  }
  // Threads last: WriterLoop touches gen->writers[s] and gen->topo. Each
  // thread keeps its generation alive; the cycle breaks at join time.
  for (int s = 0; s < n; ++s) {
    gen->writers[static_cast<size_t>(s)]->thread =
        std::thread([this, gen, s] { WriterLoop(gen, s); });
  }
  return gen;
}

QueryResult ServeLoop::Range(const Rect& query, QueryStats* stats) {
  const int64_t trace_start_ns =
      SampleThisQuery() ? obs::TraceJournal::NowNs() : 0;
  // Reused per thread: client threads call Range at full rate and the
  // parts are consumed before returning.
  static thread_local std::vector<ShardQueryPart> parts;
  // One shared range path with the batch engine (cache probe, execute on
  // miss, refresh the entry); `stats` is filled there, so the loop below
  // only attributes drift — adding part.stats again would double count.
  const QueryResult result = engine_.ExecuteRange(query, stats,
                                                  /*snaps=*/nullptr, &parts);
  // parts is empty on a cache hit: no drift/stab feed — the cache
  // absorbed the work, so the load signals keep measuring what shards
  // actually do (and the hit path skips the generation load entirely).
  if (!parts.empty()) {
    const std::shared_ptr<WriterGen> gen = writer_gen_.Load();
    for (const ShardQueryPart& part : parts) {
      // Each shard observes the work IT did on the sub-rectangle IT
      // served, so a drifting region only retrains the shards that cover
      // it. Shard ids are relative to the pinned epoch; ObserveShard
      // drops the sample if a repartition retired that generation
      // meanwhile.
      ObserveShard(*gen, result.epoch, part.shard, &part.rect, part.stats);
    }
  }
  if (trace_start_ns != 0) {
    const int64_t span_ns = obs::TraceJournal::NowNs() - trace_start_ns;
    latency_hist_->Record(span_ns);
    journal_.Record(obs::TraceEventKind::kQueryTrace, result.epoch,
                    /*shard=*/-1, /*wait_ns=*/0, span_ns, /*admitted=*/0);
  }
  return result;
}

bool ServeLoop::PointLookup(const Point& p, QueryStats* stats) {
  // Point lookups carry no rectangle and touch O(1) work; they do not feed
  // the drift monitors.
  point_queries_ctr_->Add(1);
  QueryStats qs;
  const bool found = index_.PointQuery(p, &qs);
  if (qs.simd_batches > 0) simd_batches_ctr_->Add(qs.simd_batches);
  if (qs.scalar_tail > 0) scalar_tail_ctr_->Add(qs.scalar_tail);
  if (stats != nullptr) stats->Add(qs);
  return found;
}

QueryResult ServeLoop::Knn(const Point& center, int k, QueryStats* stats) {
  knn_queries_ctr_->Add(1);
  QueryStats qs;
  QueryResult result;
  result.hits = index_.Knn(center, k, &qs, &result.snapshot_version, nullptr,
                           &result.epoch);
  if (qs.simd_batches > 0) simd_batches_ctr_->Add(qs.simd_batches);
  if (qs.scalar_tail > 0) scalar_tail_ctr_->Add(qs.scalar_tail);
  // kNN work is attributed to the center's home shard (the expansion
  // usually stays inside it); no rectangle feeds the recent ring.
  const std::shared_ptr<WriterGen> gen = writer_gen_.Load();
  if (gen->epoch == result.epoch) {
    ObserveShard(*gen, result.epoch, gen->topo->router.ShardOf(center),
                 nullptr, qs);
  }
  if (stats != nullptr) stats->Add(qs);
  return result;
}

void ServeLoop::ExecuteBatch(const std::vector<QueryRequest>& requests,
                             std::vector<QueryResult>* results) {
  engine_.ExecuteBatch(requests, results);
}

std::future<QueryResult> ServeLoop::SubmitQuery(const QueryRequest& request) {
  return admission_->Submit(request);
}

std::vector<std::future<QueryResult>> ServeLoop::SubmitBatch(
    const std::vector<QueryRequest>& requests) {
  return admission_->SubmitBatch(requests);
}

void ServeLoop::Submit(const Point& p, bool insert) {
  const UpdateOp op = insert ? UpdateOp::Insert(p) : UpdateOp::Remove(p);
  for (;;) {
    const std::shared_ptr<WriterGen> gen = writer_gen_.Load();
    if (EnqueueTo(*gen, op, opts_.writer_batch_limit)) return;
    // Cutover raced us: this shard is closed and its final delta already
    // replayed. Wait for the successor generation to be installed (a short
    // window — the coordinator is replaying the final chunk).
    std::this_thread::yield();
  }
}

void ServeLoop::SubmitInsert(const Point& p) { Submit(p, /*insert=*/true); }

void ServeLoop::SubmitRemove(const Point& p) { Submit(p, /*insert=*/false); }

bool ServeLoop::EnqueueTo(WriterGen& gen, const UpdateOp& op,
                          size_t batch_limit) {
  ShardWriter& w =
      *gen.writers[static_cast<size_t>(gen.topo->router.ShardOf(op.point))];
  bool notify = false;
  {
    MutexLock lock(&w.queue_mu);
    if (w.closed) return false;
    w.queue.push_back(op);
    ++w.submitted;
    // Dual-write window of a live migration: the op ALSO lands in the
    // delta log that replays into the next generation.
    if (w.dual_write) w.delta.push_back(op);
    // Wake the writer when there is NEW work (empty -> non-empty) or a
    // full batch is ready; ops in between land in the coalescing window
    // without a futex wake per op.
    notify = w.queue.size() == 1 || w.queue.size() >= batch_limit;
  }
  if (notify) w.queue_cv.NotifyOne();
  return true;
}

void ServeLoop::TriggerRebuild() {
  const std::shared_ptr<WriterGen> gen = writer_gen_.Load();
  for (const auto& w : gen->writers) {
    {
      MutexLock lock(&w->queue_mu);
      w->rebuild_requested = true;
    }
    w->queue_cv.NotifyOne();
  }
}

void ServeLoop::Flush() {
  // Re-check across topology swaps: a migration moves pending ops into the
  // successor generation's queues, so "everything submitted so far" is
  // only drained once a full pass completes on a stable generation whose
  // topology is also the PUBLISHED one — mid-cutover the writer generation
  // is installed before the topology, and returning in that window would
  // leave flushed updates invisible to fresh queries (they would still pin
  // the old, closed generation).
  for (;;) {
    const std::shared_ptr<WriterGen> gen = writer_gen_.Load();
    for (const auto& w : gen->writers) {
      MutexLock lock(&w->queue_mu);
      while (w->applied != w->submitted) w->flush_cv.Wait(w->queue_mu);
    }
    if (writer_gen_.Load() == gen && index_.epoch() == gen->epoch) return;
    std::this_thread::yield();
  }
}

bool ServeLoop::TriggerRepartition(int new_num_shards) {
  MutexLock lock(&repartition_mu_);
  // acquire: pairs with Stop()'s release-store of stopping_.
  if (stopping_.load(std::memory_order_acquire)) return false;
  RepartitionLocked(new_num_shards);
  repartition_monitor_.ResetAfterRepartition(std::chrono::steady_clock::now());
  return true;
}

ServeLoop::MigrationPlan ServeLoop::PlanMigration(
    const WriterGen& gen, int new_num_shards,
    const std::vector<ShardLoad>* window_loads, uint64_t window_epoch) const {
  const ShardTopology& topo = *gen.topo;
  const int n = topo.num_shards();
  MigrationPlan plan;
  plan.num_shards = new_num_shards > 0 ? new_num_shards : n;
  // The per-cell path applies only when the caller leaves the count to the
  // coordinator: an explicit count, even the current one, re-cuts all.
  if (new_num_shards <= 0) {
    // Stab inputs must match what armed the trigger: the monitor judges
    // per-interval DELTAS, so when its window samples are available (and
    // still describe THIS generation — a concurrent TriggerRepartition may
    // have swapped it since they were taken) the planner uses those, not
    // the generation's lifetime totals, which would dilute a late-breaking
    // query skew under a long balanced history (plan finds nothing →
    // silent full re-cut) or keep a formerly-hot cell dirty forever.
    // Manual triggers have no window and fall back to the per-generation
    // totals. Item counts are always read fresh from the mirrors.
    const bool use_window = window_loads != nullptr &&
                            window_epoch == gen.epoch &&
                            window_loads->size() == static_cast<size_t>(n);
    std::vector<ShardLoad> loads(static_cast<size_t>(n));
    for (int s = 0; s < n; ++s) {
      ShardLoad& load = loads[static_cast<size_t>(s)];
      load.items = topo.shards[static_cast<size_t>(s)]->num_points();
      load.query_stabs =
          use_window
              ? (*window_loads)[static_cast<size_t>(s)].query_stabs
              : gen.writers[static_cast<size_t>(s)]
                    // relaxed: pure statistic sampled for planning.
                    ->query_stabs.load(std::memory_order_relaxed);
    }
    plan.cells = PlanIncrementalRecut(topo.router.rows(), topo.router.cols(),
                                      loads, opts_.repartition);
  }
  // Everything else — an explicit count, one shard, a balanced tiling, or
  // nearly every cell moving — is the plan with every cell changed (of
  // both generations: their counts may differ) and the router re-cut.
  plan.recut_all = !plan.cells.feasible;
  if (plan.recut_all) {
    plan.cells.changed.assign(
        static_cast<size_t>(std::max(n, plan.num_shards)), true);
  }
  return plan;
}

Workload ServeLoop::MigrationWorkload(const WriterGen& gen) {
  // Router inputs: the recently served per-shard rectangles (the live
  // workload), falling back to the old generation's training slices when
  // traffic has been thin.
  const ShardTopology& topo = *gen.topo;
  Workload recent;
  recent.name = "repartition/e" + std::to_string(topo.epoch + 1);
  for (int s = 0; s < topo.num_shards(); ++s) {
    ShardWriter& w = *gen.writers[static_cast<size_t>(s)];
    recent.selectivity =
        topo.shard_workloads[static_cast<size_t>(s)].selectivity;
    MutexLock lock(&w.monitor_mu);
    for (size_t i = 0; i < w.recent_count; ++i) {
      recent.queries.push_back(w.recent[i]);
    }
  }
  if (recent.queries.size() < 32) {
    for (const Workload& sw : topo.shard_workloads) {
      recent.queries.insert(recent.queries.end(), sw.queries.begin(),
                            sw.queries.end());
    }
  }
  return recent;
}

void ServeLoop::BeginDualWriteAndCapture(WriterGen& gen,
                                         const std::vector<bool>& changed) {
  // From each participating shard's next submit on, ops are logged to its
  // delta as well as applied to the old generation. The capture target
  // pins everything submitted BEFORE dual-write began: those ops are only
  // visible through the captured point set, everything later is (also) in
  // a delta.
  for (size_t s = 0; s < gen.writers.size(); ++s) {
    if (!changed[s]) continue;
    ShardWriter& w = *gen.writers[s];
    {
      MutexLock lock(&w.queue_mu);
      w.dual_write = true;
      w.capture_target = w.submitted;
      w.capture_requested = true;
      w.capture_done = false;
      w.captured.clear();
    }
    w.queue_cv.NotifyOne();
  }
}

std::vector<Point> ServeLoop::AwaitCaptures(WriterGen& gen,
                                            const std::vector<bool>& changed) {
  // Each participating old writer copies its authoritative point set once
  // it has applied through its capture target. Bounded by writer
  // progress, which is bounded by writer_stall_ms even under a parked
  // reader snapshot (copy-on-stall).
  std::vector<Point> points;
  for (size_t s = 0; s < gen.writers.size(); ++s) {
    if (!changed[s]) continue;
    ShardWriter& w = *gen.writers[s];
    MutexLock lock(&w.queue_mu);
    while (!w.capture_done) w.capture_cv.Wait(w.queue_mu);
    points.insert(points.end(), w.captured.begin(), w.captured.end());
    w.captured.clear();
    w.captured.shrink_to_fit();
    w.capture_done = false;
  }
  return points;
}

size_t ServeLoop::DrainDeltas(WriterGen& old_gen, WriterGen& new_gen,
                              const std::vector<bool>& changed,
                              size_t batch_limit) {
  // Drain delta chunks into the new generation (routed through the NEW
  // router) while the old generation still accepts submits, so the final
  // stop-accepting window of the cutover only has a small chunk left to
  // replay. Per-coordinate order is preserved: identical coordinates
  // always route to the same old shard, whose delta is FIFO.
  std::vector<UpdateOp> chunk;
  size_t total_ops = 0;
  for (int round = 0; round < 8; ++round) {
    size_t moved_ops = 0;
    for (size_t s = 0; s < old_gen.writers.size(); ++s) {
      if (!changed[s]) continue;
      ShardWriter& w = *old_gen.writers[s];
      chunk.clear();
      {
        MutexLock lock(&w.queue_mu);
        chunk.swap(w.delta);
      }
      for (const UpdateOp& op : chunk) {
        EnqueueTo(new_gen, op, batch_limit);
      }
      moved_ops += chunk.size();
    }
    total_ops += moved_ops;
    if (moved_ops <= batch_limit) break;
  }
  return total_ops;
}

void ServeLoop::RepartitionLocked(int new_num_shards,
                                  const std::vector<ShardLoad>* window_loads,
                                  uint64_t window_epoch) {
  const std::shared_ptr<WriterGen> old_gen = writer_gen_.Load();
  const ShardTopology& old_topo = *old_gen->topo;
  const uint64_t target_epoch = old_topo.epoch + 1;

  // --- PLAN ----------------------------------------------------------------
  const MigrationPlan plan =
      PlanMigration(*old_gen, new_num_shards, window_loads, window_epoch);
  const std::vector<bool>& changed = plan.cells.changed;
  const int n_new = plan.num_shards;
  const int moved_shards =
      static_cast<int>(std::count(changed.begin(), changed.begin() + n_new,
                                  true));
  const int carried_shards = n_new - moved_shards;
  journal_.Record(obs::TraceEventKind::kMigrationPlan, target_epoch,
                  /*shard=*/-1, moved_shards, carried_shards,
                  /*incremental=*/carried_shards > 0 ? 1 : 0);

  // --- DUAL-WRITE + CAPTURE (changed shards only) -------------------------
  // Carried shards never dual-write: their live VersionedIndex moves to
  // the new generation as-is, so every op applied to them is carried too.
  BeginDualWriteAndCapture(*old_gen, changed);
  std::vector<Point> points = AwaitCaptures(*old_gen, changed);
  journal_.Record(obs::TraceEventKind::kMigrationCapture, target_epoch,
                  /*shard=*/-1, static_cast<int64_t>(points.size()));

  // --- BUILD (changed shards only) ----------------------------------------
  // Router inputs: the captured points and the recent live workload. A
  // full re-cut places every boundary afresh; a per-cell plan re-places
  // only the moved ones, between their kept neighbours. The old
  // generation keeps serving reads and writes throughout.
  const Workload recent = MigrationWorkload(*old_gen);
  Rect domain = old_topo.domain;
  for (const Point& p : points) domain.Expand(p);
  ShardRouter router;
  if (plan.recut_all) {
    router.Build(points, n_new, domain, &recent);
  } else {
    router.BuildMovedCuts(old_topo.router, plan.cells.y_cut_moves,
                          plan.cells.x_cut_moves, points, domain, &recent);
  }
  std::shared_ptr<ShardTopology> new_topo = index_.BuildTopology(
      &old_topo, router, changed, points, recent, domain, target_epoch);
  const int64_t moved_points = static_cast<int64_t>(points.size());
  points.clear();
  points.shrink_to_fit();
  const std::shared_ptr<WriterGen> new_gen = StartWriters(new_topo, changed);

  // --- CATCH-UP (changed shards' deltas) ----------------------------------
  const size_t drained =
      DrainDeltas(*old_gen, *new_gen, changed, opts_.writer_batch_limit);
  journal_.Record(obs::TraceEventKind::kMigrationCatchUp, target_epoch,
                  /*shard=*/-1, static_cast<int64_t>(drained));

  // --- CUTOVER -------------------------------------------------------------
  // ALL old shards close — carried ones too, so a submitter that loaded
  // the old generation before the swap can never reach an old queue after
  // its drain (it retries into the successor instead) — and hand over
  // their final delta chunks (empty for carried shards).
  std::vector<UpdateOp> final_ops;
  for (const auto& w : old_gen->writers) {
    {
      MutexLock lock(&w->queue_mu);
      w->closed = true;
      w->dual_write = false;
      final_ops.insert(final_ops.end(), w->delta.begin(), w->delta.end());
      w->delta.clear();
    }
    w->queue_cv.NotifyAll();
  }
  // Replay the final chunks BEFORE opening the new generation to direct
  // submits, so per-coordinate op order spans the generations correctly.
  for (const UpdateOp& op : final_ops) {
    EnqueueTo(*new_gen, op, opts_.writer_batch_limit);
  }
  std::vector<uint64_t> replay_targets(new_gen->writers.size(), 0);
  for (size_t s = 0; s < new_gen->writers.size(); ++s) {
    if (!changed[s]) continue;
    MutexLock lock(&new_gen->writers[s]->queue_mu);
    replay_targets[s] = new_gen->writers[s]->submitted;
  }
  // Open the flood gates: submits route to the new generation from here.
  // Carried shards' ops queue behind their (still closed) gate.
  writer_gen_.Store(new_gen);

  // Old writers drain — including the carried shards' writers, whose
  // queued tail applies to the SHARED VersionedIndex here, before the
  // gate opens (per-coordinate order across the hand-off)...
  for (const auto& w : old_gen->writers) {
    MutexLock lock(&w->queue_mu);
    while (w->applied != w->submitted) w->flush_cv.Wait(w->queue_mu);
  }
  // ...which freezes the old generation's final state. Version base:
  // carried shards keep their (still advancing) version counters, so the
  // base absorbs only the retiring REBUILT shards' versions — the facade
  // version stays monotone and tight across the swap (with every cell
  // changed this is exactly old_topo.version()).
  uint64_t version_base = old_topo.version_base;
  for (size_t s = 0; s < old_topo.shards.size(); ++s) {
    if (changed[s]) version_base += old_topo.shards[s]->version();
  }
  new_topo->version_base = version_base;
  // Single-writer hand-off complete: open the carried shards' gates.
  for (size_t s = 0; s < new_gen->writers.size(); ++s) {
    if (changed[s]) continue;
    {
      MutexLock lock(&new_gen->writers[s]->queue_mu);
      new_gen->writers[s]->gate = false;
    }
    new_gen->writers[s]->queue_cv.NotifyAll();
  }
  // Rebuilt shards catch up through the replay before readers see the new
  // topology: a query re-issued right after the swap observes at least
  // everything the old generation's final state served.
  for (size_t s = 0; s < new_gen->writers.size(); ++s) {
    ShardWriter& w = *new_gen->writers[s];
    MutexLock lock(&w.queue_mu);
    while (w.applied < replay_targets[s]) w.flush_cv.Wait(w.queue_mu);
  }
  index_.PublishTopology(new_topo);
  journal_.Record(obs::TraceEventKind::kMigrationCutover, target_epoch,
                  /*shard=*/-1, static_cast<int64_t>(final_ops.size()));

  // --- RETIRE --------------------------------------------------------------
  for (const auto& w : old_gen->writers) {
    {
      MutexLock lock(&w->queue_mu);
      w->stop = true;
    }
    w->queue_cv.NotifyAll();
  }
  for (const auto& w : old_gen->writers) {
    if (w->thread.joinable()) w->thread.join();
  }
  // The old topology itself is reclaimed once the last reader that pinned
  // it lets go; carried shards survive through the new topology's
  // reference.
  FinishMigration(target_epoch, moved_shards, carried_shards, moved_points);
}

MigrationStats ServeLoop::migration_stats() const {
  // One sequence point: every coordinator field is copied under the same
  // mutex FinishMigration publishes under, so the snapshot can never be a
  // torn mix of before/after a migration. stall_copies is a live counter
  // owned by the shard writers, not the coordinator; it rides along as a
  // point-in-time read.
  MigrationStats stats;
  {
    MutexLock lock(&mig_mu_);
    stats = mig_;
  }
  stats.stall_copies = stall_ctr_->value();
  return stats;
}

void ServeLoop::MonitorLoop() {
  const auto poll = std::chrono::milliseconds(opts_.repartition.poll_ms);
  // Stab counters are cumulative per generation; the monitor judges the
  // per-interval DELTA so a workload shift shows up immediately instead of
  // being diluted by a long balanced history.
  uint64_t last_epoch = 0;
  std::vector<int64_t> last_stabs;
  MutexLock lk(&monitor_mu_);
  // acquire on every stopping_ check in this loop: pairs with Stop()'s
  // release-store, so the monitor also observes whatever Stop() published
  // before raising the flag.
  while (!stopping_.load(std::memory_order_acquire)) {
    // Sleep out one poll interval unless Stop() interrupts it.
    const auto deadline = std::chrono::steady_clock::now() + poll;
    while (!stopping_.load(std::memory_order_acquire)) {  // see above
      if (monitor_cv_.WaitUntil(monitor_mu_, deadline) ==
          std::cv_status::timeout) {
        break;
      }
    }
    if (stopping_.load(std::memory_order_acquire)) break;  // see above
    lk.Unlock();

    const std::shared_ptr<WriterGen> gen = writer_gen_.Load();
    if (gen->epoch != last_epoch) {
      last_epoch = gen->epoch;
      last_stabs.assign(gen->writers.size(), 0);
    }
    std::vector<ShardLoad> loads(gen->writers.size());
    for (size_t s = 0; s < gen->writers.size(); ++s) {
      ShardLoad& load = loads[s];
      load.items = gen->topo->shards[s]->num_points();
      // relaxed: cumulative statistic; the monitor diffs it per interval.
      const int64_t stabs =
          gen->writers[s]->query_stabs.load(std::memory_order_relaxed);
      load.query_stabs = stabs - last_stabs[s];
      last_stabs[s] = stabs;
      MutexLock lock(&gen->writers[s]->queue_mu);
      load.queue_depth = gen->writers[s]->queue.size();
    }
    {
      MutexLock lock(&repartition_mu_);
      if (!stopping_.load(std::memory_order_acquire)) {  // see above
        const auto now = std::chrono::steady_clock::now();
        const bool go = repartition_monitor_.Observe(loads, now);
        // relaxed: observability gauge, no data published through it.
        last_imbalance_.store(repartition_monitor_.imbalance(),
                              std::memory_order_relaxed);
        if (go) {
          // 0 = re-cut at the current count; a matured auto-tune streak
          // recommends the new count, executed as a full migration. The
          // window samples ride along so the per-cell planner judges
          // the same per-interval stab deltas that armed the trigger.
          RepartitionLocked(repartition_monitor_.recommended_shards(),
                            &loads, gen->epoch);
          repartition_monitor_.ResetAfterRepartition(
              std::chrono::steady_clock::now());
        }
      }
    }
    lk.Lock();
  }
}

void ServeLoop::Stop() {
  // release: pairs with the acquire loads in the monitor loop and
  // TriggerRepartition, ordering prior teardown state before the flag.
  stopping_.store(true, std::memory_order_release);
  // Drain the admission pipeline first: its dispatcher only reads
  // snapshots, but every pending future must resolve before the engine
  // and writers are torn down.
  admission_->Stop();
  // The empty lock scope closes the classic lost-wakeup race: without it
  // the monitor thread can check stopping_ (false), then Stop() stores
  // true and notifies into the void, then the monitor blocks and sleeps
  // out a full poll interval. Passing through monitor_mu_ after the store
  // guarantees the monitor is either before its check (sees stopping_) or
  // already waiting (receives the notify).
  { MutexLock lock(&monitor_mu_); }
  monitor_cv_.NotifyAll();
  if (monitor_thread_.joinable()) monitor_thread_.join();
  // Barrier: any in-flight TriggerRepartition finishes before the writers
  // are torn down; later calls observe stopping_ and bail.
  { MutexLock lock(&repartition_mu_); }
  const std::shared_ptr<WriterGen> gen = writer_gen_.Load();
  for (const auto& w : gen->writers) {
    {
      MutexLock lock(&w->queue_mu);
      if (w->stop) continue;
      w->stop = true;
    }
    w->queue_cv.NotifyAll();
  }
  for (const auto& w : gen->writers) {
    if (w->thread.joinable()) w->thread.join();
  }
}

double ServeLoop::drift_ratio() {
  double worst = 0.0;
  const std::shared_ptr<WriterGen> gen = writer_gen_.Load();
  for (const auto& w : gen->writers) {
    MutexLock lock(&w->monitor_mu);
    worst = std::max(worst, w->monitor.drift_ratio());
  }
  return worst;
}

void ServeLoop::WriterLoop(std::shared_ptr<WriterGen> gen, int s) {
  ShardWriter& w = *gen->writers[static_cast<size_t>(s)];
  VersionedIndex& shard = *gen->topo->shards[static_cast<size_t>(s)];
  const auto poll = std::chrono::milliseconds(opts_.drift_poll_ms);
  for (;;) {
    std::vector<UpdateOp> batch;
    bool rebuild = false;
    bool stopping = false;
    bool migrating = false;
    {
      MutexLock lock(&w.queue_mu);
      const auto wake_deadline = std::chrono::steady_clock::now() + poll;
      while (!(w.stop || (!w.gate && (w.rebuild_requested ||
                                      w.capture_requested ||
                                      !w.queue.empty())))) {
        if (w.queue_cv.WaitUntil(w.queue_mu, wake_deadline) ==
            std::cv_status::timeout) {
          break;
        }
      }
      // Carried-shard hand-off: while gated, nothing applies — the OLD
      // generation's writer still owns the shared VersionedIndex; ops
      // queue up until the coordinator opens the gate after the old
      // drain. (stop while gated cannot happen in a correct shutdown —
      // Stop barriers on the migration — but fall through rather than
      // risk a hang.)
      if (w.gate && !w.stop) continue;
      if (!w.queue.empty() && w.queue.size() < opts_.writer_batch_limit &&
          !w.stop && !w.rebuild_requested && !w.capture_requested &&
          opts_.writer_coalesce_ms > 0) {
        // Group commit: linger briefly so a fast submit stream lands in one
        // batch (one snapshot publish) instead of one publish per op.
        const auto linger_deadline =
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(opts_.writer_coalesce_ms);
        while (!(w.stop || w.rebuild_requested || w.capture_requested ||
                 w.queue.size() >= opts_.writer_batch_limit)) {
          if (w.queue_cv.WaitUntil(w.queue_mu, linger_deadline) ==
              std::cv_status::timeout) {
            break;
          }
        }
      }
      stopping = w.stop;
      if (stopping && w.queue.empty() && !w.rebuild_requested &&
          !w.capture_requested) {
        break;
      }
      const size_t take = std::min(w.queue.size(), opts_.writer_batch_limit);
      batch.assign(w.queue.begin(), w.queue.begin() + take);
      w.queue.erase(w.queue.begin(), w.queue.begin() + take);
      rebuild = w.rebuild_requested;
      w.rebuild_requested = false;
      migrating = w.dual_write || w.closed;
    }

    if (!batch.empty()) {
      shard.ApplyBatch(batch);
      {
        MutexLock lock(&w.queue_mu);
        w.applied += batch.size();
      }
      w.flush_cv.NotifyAll();
    } else if (!migrating) {
      // Idle wake-up: free any copy-on-stall zombie whose parked reader
      // has let go (ApplyBatch reaps on its own, but an idle shard would
      // otherwise hold the duplicate instance until destruction). Never
      // during a migration: a CLOSED carried-shard writer co-exists with
      // its successor until retire, and only one of them may touch the
      // VersionedIndex (the successor, once its gate opens).
      shard.ReapRetired();
    }

    // Migration capture: once everything submitted before dual-write began
    // has been applied, hand the coordinator a copy of the authoritative
    // point set (this thread is the shard's writer, so reading data() here
    // honors the single-writer contract). Later ops may already be folded
    // in — harmless, they are also in the delta and replay idempotently.
    bool do_capture = false;
    {
      MutexLock lock(&w.queue_mu);
      do_capture = w.capture_requested && w.applied >= w.capture_target;
    }
    if (do_capture) {
      std::vector<Point> snapshot = shard.data().points;
      {
        MutexLock lock(&w.queue_mu);
        w.captured = std::move(snapshot);
        w.capture_requested = false;
        w.capture_done = true;
      }
      w.capture_cv.NotifyAll();
    }

    // Drift rebuilds pause during a migration: the generation is about to
    // be replaced, so re-levelling it is wasted work.
    if (!rebuild && opts_.auto_rebuild && !stopping && !migrating) {
      MutexLock lock(&w.monitor_mu);
      rebuild = w.monitor.rebuild_recommended();
    }
    if (rebuild && !migrating) {
      Workload recent;
      {
        MutexLock lock(&w.monitor_mu);
        recent = RecentWorkloadLocked(w, *gen, s);
      }
      // Per-shard rebuild: only this shard's left-right pair re-levels;
      // every other shard keeps serving its current snapshots.
      shard.Rebuild(recent);
      {
        MutexLock lock(&w.monitor_mu);
        w.monitor.ResetAfterRebuild();
      }
      rebuilds_ctr_->Add(1);
      journal_.Record(obs::TraceEventKind::kDriftRebuild, gen->epoch, s,
                      rebuilds_ctr_->value());
    }
  }
}

void ServeLoop::ObserveShard(WriterGen& gen, uint64_t epoch, int s,
                             const Rect* rect, const QueryStats& stats) {
  // A repartition may have retired the generation this query pinned (or
  // installed a successor the query has not seen): shard ids only mean
  // something within their own epoch, so drop cross-epoch samples.
  if (gen.epoch != epoch || s < 0 ||
      s >= static_cast<int>(gen.writers.size())) {
    return;
  }
  ShardWriter& w = *gen.writers[static_cast<size_t>(s)];
  w.query_stabs.fetch_add(1, std::memory_order_relaxed);  // statistic
  // try_lock == sampling: under heavy reader contention most observations
  // are dropped instead of serializing the hot path on this mutex. The
  // manual try_lock/unlock pair (instead of a scoped guard) is the form
  // the analysis tracks through TRY_ACQUIRE.
  if (!w.monitor_mu.try_lock()) return;
  w.monitor.Observe(stats.points_scanned, stats.results);
  if (rect != nullptr && !w.recent.empty()) {
    w.recent[w.recent_next] = *rect;
    w.recent_next = (w.recent_next + 1) % w.recent.size();
    if (w.recent_count < w.recent.size()) ++w.recent_count;
  }
  w.monitor_mu.unlock();
}

Workload ServeLoop::RecentWorkloadLocked(const ShardWriter& w,
                                         const WriterGen& gen, int s) {
  const Workload& built =
      gen.topo->shard_workloads[static_cast<size_t>(s)];
  // Too few live observations to characterize the shard's workload — fall
  // back to the slice of the build-time workload that overlaps its cell.
  if (w.recent_count < 32) return built;
  Workload recent;
  recent.name = "recent/e" + std::to_string(gen.epoch) + "/shard" +
                std::to_string(s);
  recent.selectivity = built.selectivity;
  recent.queries.reserve(w.recent_count);
  for (size_t i = 0; i < w.recent_count; ++i) {
    recent.queries.push_back(w.recent[i]);
  }
  return recent;
}

}  // namespace wazi::serve
