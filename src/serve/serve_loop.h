// The serving front end: glues the sharded snapshot-swapped index, the
// query engine, per-shard drift monitors and the repartition coordinator
// into one online system.
//
//   * Any number of client threads issue range / point / kNN queries; each
//     runs wait-free on the current per-shard snapshots of the current
//     topology (point lookups touch one shard, ranges their overlapping
//     shards, kNN a best-first shard sweep). Clients that can tolerate a
//     small coalescing window instead SubmitQuery/SubmitBatch: an
//     AdmissionQueue groups concurrent submissions by type and executes
//     each batch under ONE epoch-pinned snapshot-set acquisition.
//   * Hot range results are served from a snapshot-stamped ResultCache
//     when enabled: entries carry {topology epoch, per-shard snapshot
//     versions} and self-invalidate the moment any stamped shard swaps a
//     snapshot or a repartition bumps the epoch — no invalidation hooks
//     in the write path (see serve/result_cache.h).
//   * Updates are enqueued from any thread, ROUTED to the owning shard,
//     and applied by that shard's OWN background writer thread in batches,
//     each batch ending in a snapshot swap of just that shard — so update
//     throughput scales with cores instead of being capped at one writer.
//   * Every served range query feeds the drift monitor of each shard that
//     did work (sampled under contention via try_lock) and that shard's
//     ring of recent sub-rectangles. When a shard's monitor reports drift,
//     ITS writer rebuilds ITS index against the shard-local recent
//     workload and swaps it in — per-shard rebuilds instead of
//     stop-the-world, so the other shards keep serving untouched.
//   * The shard TOPOLOGY itself is workload-adaptive: a RepartitionMonitor
//     watches per-shard load (item counts, query stabs, update-queue
//     depths) and, when the imbalance crosses a threshold, the loop
//     executes a live migration — readers never block, writers stall only
//     for the final hand-off. A migration captures and rebuilds only the
//     cells whose cut boundaries move; every other shard is CARRIED into
//     the new generation live (same VersionedIndex, new owner), turning
//     migration cost from O(total points) into O(points in changed
//     cells). The monitor can also recommend a new shard COUNT
//     (auto_shard_count: grow on uniformly hot writer queues, shrink on
//     idle slivers) — a count change re-cuts every cell. See the cutover
//     state machine below and docs/ARCHITECTURE.md.
//
// Repartition cutover state machine (coordinator = the monitor thread or
// a TriggerRepartition caller; one migration at a time). The PLAN marks
// which cells change: those PlanIncrementalRecut picks when its plan is
// feasible at the current count, else every cell (a full re-cut).
// CARRIED (unchanged) shards skip dual-write/capture/build entirely:
//
//   STEADY ──► DUAL-WRITE: every CHANGED shard's writer queue starts
//              logging submitted ops to a per-shard delta log (ops keep
//              applying to the old generation as usual).
//   CAPTURE:   each CHANGED old shard's writer, once it has applied
//              everything submitted before dual-write began, hands the
//              coordinator a copy of its authoritative point set.
//              captured ∪ delta now covers every op ever submitted to a
//              changed cell (overlap is fine — replay is idempotent per
//              SanitizeOps). Carried cells' ops keep applying to their
//              live shard, which moves to the new generation as-is.
//   BUILD:     the coordinator cuts the new router (every cell changed:
//              fresh quantiles of all captured points; otherwise only the
//              flagged boundaries re-place, between their kept
//              neighbours) and builds the CHANGED cells' VersionedIndex
//              shards in the background. The old generation keeps
//              serving reads AND writes.
//   CATCH-UP:  changed shards' delta chunks drain into the new
//              generation's writer queues (routed through the NEW router)
//              until the backlog is small.
//   CUTOVER:   ALL old shards close (submitters retry), the final delta
//              chunks replay, the writer generation swaps (submitters
//              proceed into new queues; carried shards' NEW writers are
//              GATED — they queue but do not apply), old writers drain
//              (carried shards' final ops land through their old writer),
//              the gates open (single-writer hand-off complete), new
//              writers flush the replay, and the epoch-versioned topology
//              publishes — from here readers acquire the new generation;
//              queries that pinned the old epoch finish on the old
//              topology (carried shards serve both pins; they are the
//              same object).
//   RETIRE:    old writer threads stop and join; the old topology is
//              reclaimed when its last pinned reader releases it —
//              carried shards survive through the new topology's
//              reference.

#ifndef WAZI_SERVE_SERVE_LOOP_H_
#define WAZI_SERVE_SERVE_LOOP_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "core/drift_monitor.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace_journal.h"
#include "serve/admission.h"
#include "serve/query_engine.h"
#include "serve/repartition.h"
#include "serve/result_cache.h"
#include "serve/sharded_index.h"

namespace wazi::serve {

struct ServeOptions {
  // Number of index shards, each with its own background writer. 1 keeps
  // the PR-1 single-writer topology. A repartition may later change the
  // count (TriggerRepartition's new_num_shards).
  int num_shards = 1;
  // Worker threads of the batch query engine.
  int num_threads = 4;
  // Max update ops applied per per-shard snapshot publish.
  size_t writer_batch_limit = 256;
  // Group commit: once a writer wakes with a non-full queue it lingers
  // this long collecting more ops before applying, so a fast submit
  // stream amortizes snapshot publishes instead of swapping per op.
  // Bounds update visibility staleness; 0 restores apply-immediately.
  int writer_coalesce_ms = 2;
  // Writer wake-up period for drift checks when no updates arrive.
  int drift_poll_ms = 20;
  DriftMonitorOptions drift;
  // Rebuild a shard in the background when its drift monitor recommends it.
  bool auto_rebuild = true;
  // Snapshots carry their exact point membership (testing only; O(shard)
  // copy per publish).
  bool track_points = false;
  // Copy-on-stall deadline per shard writer: a reader parking a snapshot
  // past this many ms no longer stalls that shard's writer (or a
  // migration's capture phase) — the writer retires the parked instance
  // and builds a fresh one from the authoritative set instead. <= 0
  // restores wait-forever. See VersionedIndexOptions::writer_stall_ms.
  int writer_stall_ms = 250;
  // Capacity of each shard's recent-query ring that seeds drift-triggered
  // rebuilds and repartition router cuts.
  size_t recent_window = 2048;
  // Topology-level adaptation (monitor thread + automatic migrations).
  RepartitionOptions repartition;
  // Batched query admission (SubmitQuery/SubmitBatch): coalescing window
  // and batch bound for the pipelined entry points. The direct entry
  // points (Range/PointLookup/Knn) never pay these.
  AdmissionOptions admission;
  // Snapshot-stamped hot-result cache, probed by Range, SubmitQuery/
  // SubmitBatch and ExecuteBatch. capacity_bytes == 0 (default) disables
  // it.
  ResultCacheOptions cache;
  // Observability: trace-journal capacity and per-query trace sampling
  // rate (see obs/obs.h). The metrics registry itself has no knobs.
  obs::ObsOptions obs;
};

// Counters of the live-migration coordinator; all monotone except the
// last_* fields, which describe the most recent completed migration.
// migration_stats() returns a mutually CONSISTENT snapshot: every field
// except stall_copies is published under one mutex at the end of each
// migration (a single sequence point), so an observer can rely on e.g.
// incremental <= migrations and last_moved_points <= total_moved_points —
// independently-read atomics used to allow torn mixes mid-publication.
struct MigrationStats {
  int64_t migrations = 0;        // completed migrations (== repartitions())
  int64_t incremental = 0;       // of those, per-cell (carried) migrations
  int64_t last_moved_shards = 0;   // shards rebuilt by the last migration
  int64_t last_carried_shards = 0; // shards carried by the last migration
  int64_t last_moved_points = 0;   // points captured+rebuilt last time
  int64_t total_moved_points = 0;  // across all migrations
  int64_t stall_copies = 0;        // writer copy-on-stall fallbacks (all
                                   // shards, incl. retired generations)
};

// Thread-safety: queries, SubmitInsert/SubmitRemove, TriggerRebuild and
// TriggerRepartition may be called from any thread. Client threads must be
// joined before the ServeLoop is destroyed.
class ServeLoop {
 public:
  ServeLoop(IndexFactory factory, const Dataset& data,
            const Workload& workload, const BuildOptions& build_opts,
            ServeOptions opts = {});
  ~ServeLoop();

  ServeLoop(const ServeLoop&) = delete;
  ServeLoop& operator=(const ServeLoop&) = delete;

  // --- queries (any thread; executed on the calling thread) ---
  // Pass a caller-owned `stats` to keep the counters; they feed the drift
  // monitors either way. Counters of every shard a query touches are
  // summed.
  QueryResult Range(const Rect& query, QueryStats* stats = nullptr);
  bool PointLookup(const Point& p, QueryStats* stats = nullptr);
  QueryResult Knn(const Point& center, int k, QueryStats* stats = nullptr);
  // Fan a batch out across the engine's worker pool.
  void ExecuteBatch(const std::vector<QueryRequest>& requests,
                    std::vector<QueryResult>* results);

  // --- pipelined admission (any thread) ---
  // Enqueues the query for coalesced execution: concurrent submissions
  // are grouped by type and executed as one batch under a single
  // epoch-pinned snapshot-set acquisition (see serve/admission.h). The
  // future resolves when the batch completes: a query submitted while a
  // batch executes waits for that batch, plus ~admission.window_us when a
  // window is set. Prefer these over Range() when clients submit
  // concurrently or in bulk.
  std::future<QueryResult> SubmitQuery(const QueryRequest& request);
  std::vector<std::future<QueryResult>> SubmitBatch(
      const std::vector<QueryRequest>& requests);

  // --- updates (any thread; routed to the owning shard's writer) ---
  void SubmitInsert(const Point& p);
  void SubmitRemove(const Point& p);
  // Ask every current shard's writer for an immediate background rebuild +
  // swap (per-shard layout re-levelling; the topology stays put).
  void TriggerRebuild();
  // Blocks until every update submitted so far has been applied and is
  // visible to fresh queries (all shards; re-checked across any concurrent
  // topology swap).
  void Flush();

  // --- topology adaptation ---
  // Executes one live migration to a freshly cut topology, on the calling
  // thread. With `new_num_shards` == 0 (keep the count) the plan is
  // PER-CELL whenever feasible: only shards whose cut boundaries move are
  // captured and rebuilt, the rest are carried into the new topology live
  // (see the state machine above). An explicit count — even the current
  // one — or an infeasible plan (one shard, balanced tiling, nearly
  // everything moving) re-cuts every cell: the explicit full re-level.
  // Returns false without migrating when the loop is stopping.
  // Serialized: concurrent calls run one migration after another. Reader
  // backpressure on the capture phase is bounded by writer_stall_ms.
  bool TriggerRepartition(int new_num_shards = 0)
      EXCLUDES(repartition_mu_);

  // Stops the repartition monitor and all writer threads after draining
  // pending updates (idempotent; the destructor calls it).
  void Stop() EXCLUDES(repartition_mu_, monitor_mu_);

  // --- introspection ---
  // Facade version (monotone, incl. across repartitions; see
  // ShardedVersionedIndex).
  uint64_t version() const { return index_.version(); }
  int num_shards() const { return index_.num_shards(); }
  // Current topology epoch (starts at 1; +1 per completed repartition).
  uint64_t epoch() const { return index_.epoch(); }
  // Completed live migrations.
  int64_t repartitions() const {
    return repartitions_.load(std::memory_order_acquire);
  }
  // Migration-coordinator counters: incremental vs full migrations,
  // moved/carried shards and moved points of the last migration, and the
  // writer copy-on-stall fallback count. One sequence point (see
  // MigrationStats above).
  MigrationStats migration_stats() const EXCLUDES(mig_mu_);
  // max/mean combined shard load of the monitor's last sample (1.0 =
  // balanced; only meaningful when the monitor is enabled).
  double imbalance() const {
    return last_imbalance_.load(std::memory_order_relaxed);
  }
  // Total drift rebuilds across all shards, including retired generations
  // (monotone; view over serve_drift_rebuilds_total).
  int64_t rebuilds() const { return rebuilds_ctr_->value(); }
  // The unified metrics registry every serve-layer counter publishes
  // through (see docs/OBSERVABILITY.md for the catalog) and the
  // serve-event trace journal. Snapshot with metrics().Snapshot() /
  // journal().Tail(n); export with obs/exporters.h.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  obs::TraceJournal& journal() { return journal_; }
  const obs::TraceJournal& journal() const { return journal_; }
  // Worst (max) per-shard drift ratio of the current generation.
  double drift_ratio();
  ShardedVersionedIndex& sharded_index() { return index_; }
  // Single-shard convenience used by tests written against the PR-1
  // topology. Loud on misuse: with more shards this would silently expose
  // only shard 0 (and mutating through it would race that shard's
  // writer) — go through sharded_index().shard(s) instead. One pinned
  // topology for the check AND the access, so the pair cannot straddle a
  // concurrent repartition.
  VersionedIndex& versioned_index() {
    const std::shared_ptr<ShardTopology> topo = index_.AcquireTopology();
    assert(topo->num_shards() == 1 &&
           "versioned_index() is single-shard only; use sharded_index()");
    return *topo->shards[0];
  }
  QueryEngine& engine() { return engine_; }
  // The hot-result cache (disabled unless opts.cache.capacity_bytes > 0;
  // stats() readable either way) and the admission pipeline's counters.
  ResultCache& result_cache() { return cache_; }
  ResultCacheStats cache_stats() const { return cache_.stats(); }
  AdmissionStats admission_stats() const { return admission_->stats(); }

 private:
  // Everything one shard's writer owns: its update queue, its drift state,
  // its migration hand-off state, and the thread itself. unique_ptr keeps
  // addresses stable in the vector.
  struct ShardWriter {
    explicit ShardWriter(const DriftMonitorOptions& opts) : monitor(opts) {}

    Mutex queue_mu;
    CondVar queue_cv;  // writer: ops pending / stop
    CondVar flush_cv;  // waiters: applied advanced
    std::vector<UpdateOp> queue GUARDED_BY(queue_mu);
    uint64_t submitted GUARDED_BY(queue_mu) = 0;
    uint64_t applied GUARDED_BY(queue_mu) = 0;
    bool rebuild_requested GUARDED_BY(queue_mu) = false;
    bool stop GUARDED_BY(queue_mu) = false;

    // --- migration state (all under queue_mu) ---
    // Dual-write: ops also append to `delta` for replay into the next
    // generation.
    bool dual_write GUARDED_BY(queue_mu) = false;
    std::vector<UpdateOp> delta GUARDED_BY(queue_mu);
    // Cutover passed this shard: it accepts no more ops; submitters retry
    // against the (about-to-be-installed) next writer generation.
    bool closed GUARDED_BY(queue_mu) = false;
    // Carried-shard hand-off gate: this writer (of the NEW generation)
    // shares its VersionedIndex with its old-generation counterpart and
    // must not touch it until the old writer has drained — ops queue up
    // but nothing applies while gated. The coordinator clears the gate
    // right after the old generation quiesces (single-writer hand-off;
    // also preserves per-coordinate op order across the generations).
    bool gate GUARDED_BY(queue_mu) = false;
    // Capture hand-off: once `applied >= capture_target`, the writer
    // copies its shard's authoritative point set into `captured`.
    bool capture_requested GUARDED_BY(queue_mu) = false;
    uint64_t capture_target GUARDED_BY(queue_mu) = 0;
    bool capture_done GUARDED_BY(queue_mu) = false;
    std::vector<Point> captured GUARDED_BY(queue_mu);
    CondVar capture_cv;

    // Drift state, shared by all client threads (try_lock sampling).
    Mutex monitor_mu;
    DriftMonitor monitor GUARDED_BY(monitor_mu);
    // Ring of served per-shard sub-rectangles.
    std::vector<Rect> recent GUARDED_BY(monitor_mu);
    size_t recent_next GUARDED_BY(monitor_mu) = 0;
    size_t recent_count GUARDED_BY(monitor_mu) = 0;

    // Sub-queries served by this shard this epoch (repartition monitor
    // input; incremented lock-free on the query path).
    std::atomic<int64_t> query_stabs{0};
    std::thread thread;
  };

  // One generation of writers, bound to one topology epoch. The submit
  // path loads the current generation from an atomic cell; a migration
  // installs a successor and retires this one.
  struct WriterGen {
    uint64_t epoch = 1;
    std::shared_ptr<ShardTopology> topo;
    std::vector<std::unique_ptr<ShardWriter>> writers;
  };

  // Creates writers (threads running) for `topo`. Writers of shards with
  // changed[s] == false (carried by a migration) start with their
  // hand-off gate closed.
  std::shared_ptr<WriterGen> StartWriters(std::shared_ptr<ShardTopology> topo,
                                          const std::vector<bool>& changed);
  void WriterLoop(std::shared_ptr<WriterGen> gen, int s);
  void Submit(const Point& p, bool insert);
  // Enqueues `op` to its owning shard of `gen`. Returns false (op not
  // enqueued) when that shard is closed by a cutover: Submit retries on
  // the successor generation; the migration replay path targets the new
  // generation, which is never closed while the coordinator runs.
  static bool EnqueueTo(WriterGen& gen, const UpdateOp& op,
                        size_t batch_limit);
  // Feeds one served sub-query into `gen`'s shard-s drift/stab state.
  // `epoch` is the epoch the query pinned; samples from other generations
  // are dropped (shard ids only mean something within their own epoch).
  // The caller loads the generation once per query, not once per part.
  static void ObserveShard(WriterGen& gen, uint64_t epoch, int s,
                           const Rect* rect, const QueryStats& stats);
  // Recent per-shard rectangles of `w` (== *gen.writers[s]) as a
  // workload; falls back to the shard's build-time slice. The caller
  // already holds w.monitor_mu — REQUIRES makes that compiler-checked.
  static Workload RecentWorkloadLocked(const ShardWriter& w,
                                       const WriterGen& gen, int s)
      REQUIRES(w.monitor_mu);
  // The recent recorded rectangles of EVERY shard, merged (router-cut
  // input of a migration); falls back to the old generation's training
  // slices when live traffic has been thin.
  static Workload MigrationWorkload(const WriterGen& gen);
  // One migration's plan. A per-cell plan (PlanIncrementalRecut) changes
  // some cells, re-places only their cut boundaries and carries the
  // rest; a full re-cut (recut_all) changes every cell of both
  // generations — cells.changed then covers max(old, new) shard ids — and
  // cuts the router afresh. Only a full re-cut may change the count.
  struct MigrationPlan {
    int num_shards = 0;
    bool recut_all = false;
    IncrementalPlan cells;  // changed mask by shard id (+ the cut moves)
  };
  // Plans a migration of `gen` to `new_num_shards` (0 = keep the count).
  // Stab inputs come from `window_loads` when they match gen's epoch; a
  // manual TriggerRepartition has no sampling window and falls back to
  // the generation's cumulative stab totals (items are always read fresh
  // from the authoritative mirrors).
  MigrationPlan PlanMigration(const WriterGen& gen, int new_num_shards,
                              const std::vector<ShardLoad>* window_loads,
                              uint64_t window_epoch) const;
  // Migration phase steps; only shards with changed[s] participate.
  static void BeginDualWriteAndCapture(WriterGen& gen,
                                       const std::vector<bool>& changed);
  static std::vector<Point> AwaitCaptures(WriterGen& gen,
                                          const std::vector<bool>& changed);
  // Returns the total number of delta ops replayed into `new_gen` (the
  // kMigrationCatchUp attribution).
  static size_t DrainDeltas(WriterGen& old_gen, WriterGen& new_gen,
                            const std::vector<bool>& changed,
                            size_t batch_limit);
  // One migration (caller holds repartition_mu_): plan → capture changed
  // cells → cut the router and build changed shards → catch up → gated
  // cutover → retire. `window_loads`, when given, are the monitor's
  // per-interval load samples (stab DELTAS, not lifetime totals) for the
  // generation with epoch `window_epoch` — the planner prefers them so a
  // late-breaking query skew is not diluted by the generation's balanced
  // history.
  void RepartitionLocked(int new_num_shards,
                         const std::vector<ShardLoad>* window_loads = nullptr,
                         uint64_t window_epoch = 0)
      REQUIRES(repartition_mu_);
  void MonitorLoop() EXCLUDES(monitor_mu_, repartition_mu_);
  // Builds the sharded-index options with the obs handles wired in
  // (called from the ctor init list — metrics_/journal_ are initialized
  // by then; see the member order below).
  ShardedIndexOptions MakeIndexOptions();
  // Folds one completed migration into mig_ + the registry mirrors, all
  // under mig_mu_ (the single sequence point migration_stats() relies
  // on), and emits the kMigrationRetire journal event. A migration that
  // carried any shard counts as incremental.
  void FinishMigration(uint64_t new_epoch, int64_t moved_shards,
                       int64_t carried_shards, int64_t moved_points)
      EXCLUDES(mig_mu_);
  // True every obs.trace_sample_every-th direct query (false at rate 0).
  bool SampleThisQuery();

  ServeOptions opts_;
  // Before index_: every shard's VersionedIndex holds handles into the
  // registry (stall counter, publish counter, zombie gauge) and a pointer
  // to the journal, and cache_/engine_/admission_ register through them
  // too. Destroyed LAST of the serve members, so no handle ever dangles.
  obs::MetricsRegistry metrics_;
  obs::TraceJournal journal_;
  ShardedVersionedIndex index_;
  ResultCache cache_;    // before engine_: the engine probes it
  QueryEngine engine_;
  // After engine_/index_ (it holds pointers to both) and destroyed before
  // them; Stop() drains it before tearing the writers down.
  std::unique_ptr<AdmissionQueue> admission_;
  AtomicCell<WriterGen> writer_gen_;

  // Serializes migrations and Stop's writer teardown.
  Mutex repartition_mu_;
  std::atomic<bool> stopping_{false};
  // repartitions_ stays a bare atomic for the cheap repartitions()
  // accessor; it is bumped inside FinishMigration's mig_mu_ block, so it
  // never runs ahead of mig_.migrations.
  std::atomic<int64_t> repartitions_{0};
  // Every MigrationStats field except stall_copies, published as one
  // block at the end of each migration — the single sequence point
  // migration_stats() snapshots under.
  mutable Mutex mig_mu_ ACQUIRED_AFTER(repartition_mu_);
  MigrationStats mig_ GUARDED_BY(mig_mu_);
  std::atomic<double> last_imbalance_{1.0};
  // Registry handles the loop updates directly (the shard/cache/engine/
  // admission handles live in those components).
  obs::Counter* rebuilds_ctr_ = nullptr;
  obs::Counter* stall_ctr_ = nullptr;  // migration_stats().stall_copies
  obs::Counter* migrations_ctr_ = nullptr;
  obs::Counter* migrations_incr_ctr_ = nullptr;
  obs::Counter* moved_points_ctr_ = nullptr;
  obs::Gauge* last_moved_gauge_ = nullptr;
  obs::Gauge* last_carried_gauge_ = nullptr;
  obs::Counter* point_queries_ctr_ = nullptr;  // direct-path lookups
  obs::Counter* knn_queries_ctr_ = nullptr;    // direct-path kNN
  obs::Counter* simd_batches_ctr_ = nullptr;   // direct-path kernel shape
  obs::Counter* scalar_tail_ctr_ = nullptr;
  obs::Histogram* latency_hist_ = nullptr;     // sampled direct spans
  std::atomic<uint32_t> sample_tick_{0};
  RepartitionMonitor repartition_monitor_;
  Mutex monitor_mu_;  // monitor thread wake/stop
  CondVar monitor_cv_;
  std::thread monitor_thread_;
};

}  // namespace wazi::serve

#endif  // WAZI_SERVE_SERVE_LOOP_H_
