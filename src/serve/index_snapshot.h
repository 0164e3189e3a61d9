// Snapshot-swapped index versioning: the concurrency backbone of the
// serving engine.
//
// A VersionedIndex owns two instances of one index type built over the
// same data (a left-right pair). Exactly one instance is published at a
// time, wrapped in an immutable IndexSnapshot behind an atomic raw
// pointer. Readers call Acquire() and run any number of queries on the
// snapshot without further synchronization — the query path of
// SpatialIndex is const and takes explicit QueryStats, so concurrent reads
// are data-race free. Snapshot lifetime is epoch-based (serve/epoch.h):
// Acquire stamps the reader's per-thread epoch slot (a store to memory the
// reader owns — no contended refcount), and a superseded snapshot parks on
// the domain's limbo list until every stamped reader has moved past its
// retire epoch.
//
// A single writer applies batched Insert/Remove ops to the *unpublished*
// instance, publishes it with a new version, and lets the previous
// snapshot drain. Drain is signalled by the retired snapshot's destructor
// (release-store on a drain flag observed with an acquire-load by the
// writer), which now runs from epoch reclamation instead of a refcount
// hitting zero, so the writer never mutates an instance a reader could
// still be scanning — and the synchronization is explicit enough for
// ThreadSanitizer to verify. Indexes that do not support updates
// (SupportsUpdates() == false) fall back to a full rebuild of the shadow
// instance from the authoritative point set.
//
// Writer backpressure is bounded: a reader that PARKS a snapshot (holds
// it across many queries, or indefinitely) blocks the writer's next
// publish only up to `writer_stall_ms`. Past that deadline the writer
// stops waiting, retires the parked instance to a zombie list (readers
// keep scanning it untouched; it is destroyed once its snapshot finally
// drains) and builds a fresh replacement instance from the authoritative
// point set — copy-on-stall. The stall therefore costs one O(shard)
// build instead of unbounded writer (and migration-capture) delay.

#ifndef WAZI_SERVE_INDEX_SNAPSHOT_H_
#define WAZI_SERVE_INDEX_SNAPSHOT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "index/spatial_index.h"
#include "obs/metrics.h"
#include "obs/trace_journal.h"
#include "serve/epoch.h"
#include "workload/dataset.h"

// ThreadSanitizer cannot see through the lock-bit protocol inside
// libstdc++'s std::atomic<std::shared_ptr> (plain pointer accesses guarded
// by an embedded spin bit), so sanitizer builds swap the publication slot's
// primitive for a mutex with identical semantics.
#if defined(__SANITIZE_THREAD__)
#define WAZI_SERVE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define WAZI_SERVE_TSAN 1
#endif
#endif
#ifndef WAZI_SERVE_TSAN
#define WAZI_SERVE_TSAN 0
#endif

#if WAZI_SERVE_TSAN
#include <mutex>
#endif

namespace wazi::serve {

// Creates an (unbuilt) instance of the index type being served.
using IndexFactory = std::function<std::unique_ptr<SpatialIndex>()>;

struct UpdateOp {
  enum class Kind { kInsert, kRemove };
  Kind kind = Kind::kInsert;
  Point point;

  static UpdateOp Insert(const Point& p) { return {Kind::kInsert, p}; }
  static UpdateOp Remove(const Point& p) { return {Kind::kRemove, p}; }
};

// Drain token shared between a snapshot and the instance it wraps: the
// snapshot's destructor release-stores true; the writer acquire-loads it
// before mutating (or destroying) the instance. shared_ptr-owned so a
// copy-on-stall retirement can hand the token to the zombie instance
// without the flag's storage moving under the parked snapshot.
using DrainFlag = std::shared_ptr<std::atomic<bool>>;

// One published index version. Immutable; any thread holding a
// SnapshotRef to it may query `index()` concurrently with all others.
class IndexSnapshot {
 public:
  IndexSnapshot(const SpatialIndex* index, uint64_t version,
                std::shared_ptr<const std::vector<Point>> points,
                DrainFlag drained)
      : index_(index),
        version_(version),
        points_(std::move(points)),
        drained_(std::move(drained)) {}

  ~IndexSnapshot() {
    // Runs from epoch reclamation once no stamped reader can still reach
    // the snapshot; tells the writer the wrapped instance is safe to
    // mutate again.
    if (drained_ != nullptr) drained_->store(true, std::memory_order_release);
  }

  IndexSnapshot(const IndexSnapshot&) = delete;
  IndexSnapshot& operator=(const IndexSnapshot&) = delete;

  const SpatialIndex& index() const { return *index_; }
  uint64_t version() const { return version_; }

  // The exact point membership this snapshot serves. Null unless the
  // owning VersionedIndex was configured with track_points (used by the
  // concurrent stress test to verify results against brute force).
  const std::shared_ptr<const std::vector<Point>>& points() const {
    return points_;
  }

 private:
  const SpatialIndex* index_;
  uint64_t version_;
  std::shared_ptr<const std::vector<Point>> points_;
  DrainFlag drained_;
};

// A reader's lease on one published snapshot: a raw pointer kept alive by
// the epoch Guard riding along, shaped like the shared_ptr it replaced so
// call sites (`snap->index()`, `if (snap)`) read the same. Thread-bound
// and move-only — acquire, query, and release on one thread; hold per
// query block, don't park (a parked ref triggers the writer's
// copy-on-stall fallback, exactly as a parked shared_ptr did).
class SnapshotRef {
 public:
  SnapshotRef() = default;
  SnapshotRef(const IndexSnapshot* snap, EpochDomain::Guard guard)
      : snap_(snap), guard_(std::move(guard)) {}
  SnapshotRef(SnapshotRef&&) noexcept = default;
  SnapshotRef& operator=(SnapshotRef&&) noexcept = default;
  SnapshotRef(const SnapshotRef&) = delete;
  SnapshotRef& operator=(const SnapshotRef&) = delete;

  const IndexSnapshot* get() const { return snap_; }
  const IndexSnapshot* operator->() const { return snap_; }
  const IndexSnapshot& operator*() const { return *snap_; }
  explicit operator bool() const { return snap_ != nullptr; }

  void Release() {
    snap_ = nullptr;
    guard_.Release();
  }
  // shared_ptr-style spelling, so call sites written against the old
  // refcounted Acquire() keep reading naturally.
  void reset() { Release(); }

 private:
  const IndexSnapshot* snap_ = nullptr;
  EpochDomain::Guard guard_;
};

// A publication slot: one writer stores, many readers load. Lock-free
// atomic<shared_ptr> in production builds; a mutex under TSan (see above).
// Used for the serving engine's topology level (ShardedVersionedIndex
// publishes a ShardTopology through one); the per-shard snapshot level
// publishes through a plain atomic pointer under epoch reclamation.
template <typename T>
class AtomicCell {
 public:
  std::shared_ptr<T> Load() const {
#if WAZI_SERVE_TSAN
    wazi::MutexLock lock(&mu_);
    return ptr_;
#else
    // acquire: pairs with Store's release so a reader that sees the new
    // pointer also sees the pointee fully constructed.
    return ptr_.load(std::memory_order_acquire);
#endif
  }

  void Store(std::shared_ptr<T> value) {
#if WAZI_SERVE_TSAN
    std::shared_ptr<T> old;  // destroy outside the lock
    {
      wazi::MutexLock lock(&mu_);
      old.swap(ptr_);
      ptr_ = std::move(value);
    }
#else
    // release: publishes the fully built value to acquire-loads above.
    ptr_.store(std::move(value), std::memory_order_release);
#endif
  }

 private:
#if WAZI_SERVE_TSAN
  mutable wazi::Mutex mu_;
  std::shared_ptr<T> ptr_ GUARDED_BY(mu_);
#else
  std::atomic<std::shared_ptr<T>> ptr_;
#endif
};

struct VersionedIndexOptions {
  // When true, every snapshot carries an immutable copy of the point set
  // it serves (O(n) copy per publish — testing/verification only).
  bool track_points = false;
  // Keep the publish history UnchangedWithin reads (the result cache's
  // rect-precise revalidation). ServeLoop sets it iff its cache is
  // enabled; off, publishes record nothing and UnchangedWithin answers
  // false for any version gap.
  bool publish_history = false;
  // Copy-on-stall deadline: how long the writer waits for a retired
  // snapshot to drain before it stops waiting, retires the parked
  // instance (readers keep it until their snapshot releases) and builds a
  // fresh replacement from the authoritative point set. Bounds the writer
  // stall a parked reader can cause — including a migration's capture
  // phase — at the price of an O(shard) build per fallback. <= 0 waits
  // forever (the pre-fallback behaviour).
  int writer_stall_ms = 250;
  // Registry-backed observability handles (obs/metrics.h), all optional:
  // nullptr simply skips the publication (standalone / test construction
  // stays dependency-free). ServeLoop wires every shard of every
  // generation to ITS registry handles, so the counters aggregate across
  // shards and survive migrations.
  obs::Counter* stall_counter = nullptr;     // copy-on-stall fallbacks
  obs::Counter* publish_counter = nullptr;   // snapshot publishes (swaps)
  obs::Gauge* zombie_gauge = nullptr;        // instances parked as zombies
  // When set, snapshot swaps / stall retirements are journaled with this
  // shard attribution (the shard id and topology epoch the VersionedIndex
  // was born into — carried shards keep their birth attribution).
  obs::TraceJournal* journal = nullptr;
  int shard_id = -1;
  uint64_t epoch = 0;
  // Reclamation domain for retired snapshots/instances. Defaults to the
  // process-wide EpochDomain::Global() (VersionedIndex resolves null to it
  // at construction); tests inject a private domain for exact limbo
  // accounting.
  EpochDomain* epoch_domain = nullptr;
};

// Thread-safety contract: Acquire()/version() from any thread; everything
// else (ApplyBatch, Rebuild, data accessors) from ONE writer thread. No
// new Acquire() may race destruction, but destruction no longer waits for
// outstanding refs: the live snapshot, both instances, and any zombies
// retire to the epoch domain's limbo, which frees them once the last
// stamped reader moves on.
class VersionedIndex {
 public:
  VersionedIndex(IndexFactory factory, const Dataset& data,
                 const Workload& workload, const BuildOptions& build_opts,
                 VersionedIndexOptions opts = {});
  ~VersionedIndex();

  VersionedIndex(const VersionedIndex&) = delete;
  VersionedIndex& operator=(const VersionedIndex&) = delete;

  // Wait-free on the reader's side of the swap: one store to the reader's
  // own padded epoch slot plus one atomic pointer load — no shared
  // refcount RMW. The stamp must land before the pointer load (see
  // serve/epoch.h for the ordering argument).
  SnapshotRef Acquire() const {
    EpochDomain::Guard guard = opts_.epoch_domain->Enter();
    return SnapshotRef(live_.load(std::memory_order_seq_cst),
                       std::move(guard));
  }

  // acquire: pairs with PublishShadow's release-store, so a reader that
  // observes version v also observes the batches applied up to v.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  // Query-domain rectangle (immutable after construction; safe anywhere).
  const Rect& domain() const { return domain_; }

  // Publishes the history keeps (when publish_history is on).
  static constexpr uint64_t kPublishHistoryDepth = 64;

  // True iff no publish with a version in (min(a, b), max(a, b)] can have
  // changed the result of a range query over `rect` (closed): the history
  // still holds every such publish, none was a rebuild, and none of their
  // ops' points lies inside `rect`. False when the history is off or no
  // longer reaches back that far. Any thread; a and b must be versions
  // this index has published (e.g. read through version() or a
  // snapshot).
  bool UnchangedWithin(const Rect& rect, uint64_t a, uint64_t b) const;

  // --- single-writer API ---

  // Applies `ops` to the authoritative point set and the shadow instance,
  // then publishes the shadow as the new live snapshot. Blocks until the
  // snapshot that previously wrapped the shadow instance has drained —
  // writer backpressure bounded by the longest reader-held snapshot, so
  // readers must hold snapshots per query (or query block), not park them.
  void ApplyBatch(const std::vector<UpdateOp>& ops);

  // Rebuilds the shadow instance from the authoritative point set against
  // `workload` (the drift-triggered re-optimization path) and publishes it.
  void Rebuild(const Workload& workload);

  // Point count of the authoritative set, readable from ANY thread (an
  // atomic mirror updated by the writer after each batch): exact once the
  // writer is quiesced, at most one batch stale while it streams. The
  // repartition monitor samples this for per-shard item counts.
  size_t num_points() const {
    return num_points_.load(std::memory_order_relaxed);
  }
  // Copy-on-stall fallbacks taken by this shard's writer (any thread).
  int64_t stall_copies() const {
    return stall_copies_.load(std::memory_order_relaxed);
  }
  // Pumps the epoch domain (freeing reclaimable limbo snapshots, which
  // flips their drain flags) and then frees instances retired by
  // copy-on-stall whose parked snapshot has since drained. Runs
  // automatically before every batch/rebuild; call it from the writer's
  // idle wake-ups too, or a fallback taken on a shard that then goes idle
  // would hold its O(shard) duplicate until destruction. Writer thread
  // only. Cheap when there is nothing to do.
  void ReapRetired() {
    opts_.epoch_domain->Reclaim();
    ReapZombies();
  }
  // The reclamation domain this index retires into.
  EpochDomain* epoch_domain() const { return opts_.epoch_domain; }
  // Authoritative state, writer thread only.
  const Dataset& data() const { return data_; }

 private:
  // An instance retired by copy-on-stall: destroyed (writer thread) once
  // its snapshot's drain flag flips.
  struct ZombieInstance {
    std::unique_ptr<SpatialIndex> index;
    DrainFlag drained;
  };
  // Waits (up to opts_.writer_stall_ms) for the shadow instance's last
  // snapshot to drain, then brings the instance up to date with every
  // batch it missed (or rebuilds it outright if a rebuild superseded
  // those batches). On a stall timeout the parked instance moves to
  // zombies_ and a fresh instance takes the slot (built from data_ unless
  // catch_up is false — then the caller builds it). Pass catch_up = false
  // when the caller rebuilds the instance from data_ anyway.
  SpatialIndex* AcquireShadow(bool catch_up = true);
  // Destroys every retired instance whose snapshot has drained.
  void ReapZombies();
  // Wraps the shadow in a new snapshot and swaps it live. `ops` are the
  // batch's effective ops for the publish history; nullptr records the
  // publish as changing everything (a build or rebuild).
  void PublishShadow(const std::vector<UpdateOp>* ops);
  // Drops ops that would desynchronize the id-keyed authoritative set from
  // the coordinate-keyed index instances: duplicate-id inserts, removes of
  // absent ids, removes with stale coordinates.
  std::vector<UpdateOp> SanitizeOps(const std::vector<UpdateOp>& ops);
  // Applies ops to the authoritative point set (id-keyed removal).
  void ApplyToData(const std::vector<UpdateOp>& ops);
  static void ApplyToInstance(SpatialIndex* index,
                              const std::vector<UpdateOp>& ops);

  IndexFactory factory_;
  BuildOptions build_opts_;
  VersionedIndexOptions opts_;
  Rect domain_;

  Dataset data_;             // authoritative point set
  Workload last_workload_;   // workload of the most recent (re)build
  std::unordered_map<int64_t, size_t> pos_by_id_;  // id -> index in data_

  std::unique_ptr<SpatialIndex> inst_[2];
  DrainFlag drained_[2];  // instance safe to mutate again
  uint64_t applied_through_[2] = {0, 0};  // last version each instance has
  // Instances parked past the stall deadline, awaiting their drain.
  std::vector<ZombieInstance> zombies_;
  std::atomic<int64_t> stall_copies_{0};
  uint64_t last_rebuild_version_ = 0;
  // Batches newer than min(applied_through_), so the shadow can catch up.
  std::deque<std::pair<uint64_t, std::vector<UpdateOp>>> recent_batches_;
  int live_slot_ = 0;
  bool supports_updates_ = false;

  std::atomic<size_t> num_points_{0};  // mirror of data_.points.size()
  std::atomic<uint64_t> version_{0};
  // The publication slot. Raw pointer + epoch reclamation: the pointed-to
  // snapshot is owned by whichever of {this, the domain's limbo list}
  // currently holds it, never by readers.
  std::atomic<const IndexSnapshot*> live_{nullptr};

  // One publish as UnchangedWithin sees it.
  struct PublishRecord {
    uint64_t version = 0;     // 0 = slot never written
    bool everything = false;  // a build/rebuild: any rect may have changed
    Rect bounds;              // bounding box of `points` (early-out)
    std::vector<Point> points;  // every op's position
  };
  // Ring of the last kPublishHistoryDepth publishes, slot = version %
  // depth. Written by the writer before the version it records becomes
  // visible, read by any thread.
  struct PublishHistory {
    Mutex mu;
    std::array<PublishRecord, kPublishHistoryDepth> ring GUARDED_BY(mu);
  };
  // Set at construction iff opts_.publish_history, never reseated.
  std::unique_ptr<PublishHistory> history_;
};

}  // namespace wazi::serve

#endif  // WAZI_SERVE_INDEX_SNAPSHOT_H_
