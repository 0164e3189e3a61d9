// Snapshot-swapped index versioning: the concurrency backbone of the
// serving engine.
//
// A VersionedIndex holds ONE index instance per shard, wrapped in an
// immutable IndexSnapshot behind an atomic raw pointer. The snapshot
// owns its instance. Readers call Acquire() and run any number of
// queries on the snapshot without further synchronization: the query
// path of SpatialIndex is const and takes explicit QueryStats, so
// concurrent reads are data-race free. Snapshot lifetime is epoch-based
// (serve/epoch.h): Acquire stamps the reader's per-thread epoch slot (a
// store to memory the reader owns, no contended refcount), and a
// superseded snapshot parks on the domain's limbo list until every
// stamped reader has moved past its retire epoch.
//
// A single writer publishes each batch of Insert/Remove ops in four
// steps: clone -> apply -> publish -> retire.
//   1. clone:   SpatialIndex::CloneForUpdate() on the live instance. A
//               Z-index clone shares every point page and copies only its
//               node array, leaf directory and page table (O(leaves));
//               the first write to a shared page copies that page alone
//               (storage/page_store.h).
//   2. apply:   the batch goes to the clone, which no reader can reach.
//   3. publish: one seq_cst exchange swaps a snapshot of the clone live.
//   4. retire:  the old snapshot, and the instance it owns, go to the
//               epoch domain, which frees them once no stamped reader can
//               still reach them.
// Nothing the writer writes is ever visible to a reader before the
// exchange, and nothing a reader can see is ever written again, so the
// writer never waits for a reader. A reader that parks a snapshot costs
// memory only: the pages and directory that snapshot pins. Indexes
// without a clone hook (CloneForUpdate() == nullptr) publish a fresh
// instance built from the authoritative point set instead.

#ifndef WAZI_SERVE_INDEX_SNAPSHOT_H_
#define WAZI_SERVE_INDEX_SNAPSHOT_H_

#include <algorithm>
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

// One published index version. Immutable, and the sole owner of its
// instance; any thread holding a SnapshotRef to it may query `index()`
// concurrently with all others.
class IndexSnapshot {
 public:
  IndexSnapshot(std::unique_ptr<const SpatialIndex> index, uint64_t version,
                std::shared_ptr<const std::vector<Point>> points)
      : index_(std::move(index)),
        version_(version),
        points_(std::move(points)) {}

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
  std::unique_ptr<const SpatialIndex> index_;
  uint64_t version_;
  std::shared_ptr<const std::vector<Point>> points_;
};

// A reader's lease on one published snapshot: a raw pointer kept alive by
// the epoch Guard riding along, shaped like the shared_ptr it replaced so
// call sites (`snap->index()`, `if (snap)`) read the same. Thread-bound
// and move-only: acquire, query, and release on one thread. Hold it per
// query block; a parked ref never blocks the writer, but it pins every
// snapshot retired after its stamp in limbo until it is released.
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
  // Registry-backed observability handles (obs/metrics.h), all optional:
  // nullptr simply skips the publication (standalone / test construction
  // stays dependency-free). ServeLoop wires every shard of every
  // generation to ITS registry handles, so the counters aggregate across
  // shards and survive migrations.
  obs::Counter* publish_counter = nullptr;  // snapshot publishes (swaps)
  obs::Counter* dropped_counter = nullptr;  // ops ApplyToData dropped
  // Limbo size of epoch_domain, set after every reclamation pump.
  obs::Gauge* limbo_gauge = nullptr;
  // When set, snapshot swaps are journaled with this
  // shard attribution (the shard id and topology epoch the VersionedIndex
  // was born into — carried shards keep their birth attribution).
  obs::TraceJournal* journal = nullptr;
  int shard_id = -1;
  uint64_t epoch = 0;
  // Reclamation domain for retired snapshots. Defaults to the
  // process-wide EpochDomain::Global() (VersionedIndex resolves null to it
  // at construction); tests inject a private domain for exact limbo
  // accounting.
  EpochDomain* epoch_domain = nullptr;
};

// Thread-safety contract: Acquire()/version() from any thread; everything
// else (ApplyBatch, Rebuild, data accessors) from ONE writer thread. No
// new Acquire() may race destruction, but destruction never waits for
// outstanding refs: the live snapshot retires to the epoch domain's
// limbo, which frees it once the last stamped reader moves on.
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

  // acquire: pairs with Publish's release-store, so a reader that
  // observes version v also observes the batches applied up to v.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  // Query-domain rectangle (immutable after construction; safe anywhere).
  const Rect& domain() const { return domain_; }

  // What the publish history keeps (when publish_history is on): the
  // latest kPublishHistoryDepth ops (a rebuild counts as one) or the
  // latest kPublishHistoryMinPublishes publishes, whichever reaches
  // further back. The op bound covers an idle writer that publishes every
  // op on its own; the publish floor covers a writer that group-commits a
  // stream in batches of up to writer_batch_limit ops.
  static constexpr uint64_t kPublishHistoryDepth = 512;
  static constexpr uint64_t kPublishHistoryMinPublishes = 64;

  // True iff no publish with a version in (min(a, b), max(a, b)] can have
  // changed the result of a range query over `rect` (closed): the history
  // still holds every such publish, none was a rebuild, and none of their
  // ops' points lies inside `rect`. False when the history is off or no
  // longer reaches back that far. Any thread; a and b must be versions
  // this index has published (e.g. read through version() or a
  // snapshot).
  bool UnchangedWithin(const Rect& rect, uint64_t a, uint64_t b) const;

  // --- single-writer API ---

  // Applies `ops` to the authoritative point set and to a clone of the
  // live instance, then publishes the clone as the new live snapshot and
  // retires the old one. Never waits for readers. Ops that would
  // desynchronize the point set from the instance are dropped (and
  // counted in dropped_counter), see ApplyToData.
  void ApplyBatch(const std::vector<UpdateOp>& ops);

  // Builds a fresh instance from the authoritative point set against
  // `workload` (the drift-triggered re-optimization path) and publishes it.
  void Rebuild(const Workload& workload);

  // Point count of the authoritative set, readable from ANY thread (an
  // atomic mirror updated by the writer after each batch): exact once the
  // writer is quiesced, at most one batch stale while it streams. The
  // repartition monitor samples this for per-shard item counts.
  size_t num_points() const {
    return num_points_.load(std::memory_order_relaxed);
  }
  // Pumps the epoch domain, freeing every retired snapshot no stamped
  // reader can still reach, and sets limbo_gauge. Runs after every
  // publish; call it from the writer's idle wake-ups too, so a shard that
  // goes idle does not hold its last retired snapshots until the next
  // write. Any thread. Cheap when there is nothing to do.
  void Reclaim();
  // The reclamation domain this index retires into.
  EpochDomain* epoch_domain() const { return opts_.epoch_domain; }
  // Authoritative state, writer thread only.
  const Dataset& data() const { return data_; }

 private:
  // Builds a new instance from data_ against last_workload_.
  std::unique_ptr<SpatialIndex> BuildFresh() const;
  // Wraps `next` in a new snapshot, swaps it live and retires the old
  // one. `ops` are the batch's effective ops for the publish history;
  // nullptr records the publish as changing everything (a build or
  // rebuild).
  void Publish(std::unique_ptr<SpatialIndex> next,
               const std::vector<UpdateOp>* ops);
  // Applies ops to the authoritative point set (id-keyed removal) and
  // returns the ones it applied. Drops ops that would desynchronize the
  // id-keyed set from the coordinate-keyed index instance: duplicate-id
  // inserts, removes of absent ids, removes with stale coordinates.
  std::vector<UpdateOp> ApplyToData(const std::vector<UpdateOp>& ops);

  IndexFactory factory_;
  BuildOptions build_opts_;
  VersionedIndexOptions opts_;
  Rect domain_;

  Dataset data_;             // authoritative point set
  Workload last_workload_;   // workload of the most recent (re)build
  std::unordered_map<int64_t, size_t> pos_by_id_;  // id -> index in data_

  std::atomic<size_t> num_points_{0};  // mirror of data_.points.size()
  std::atomic<uint64_t> version_{0};
  // The publication slot and the shard's only instance (owned by the
  // snapshot). Raw pointer + epoch reclamation: the pointed-to snapshot
  // is owned by whichever of {this, the domain's limbo list} currently
  // holds it, never by readers.
  std::atomic<const IndexSnapshot*> live_{nullptr};

  // One publish as UnchangedWithin sees it.
  struct PublishRecord {
    uint64_t version = 0;
    bool everything = false;  // a build/rebuild: any rect may have changed
    Rect bounds;              // bounding box of `points` (early-out)
    std::vector<Point> points;  // every op's position
    // Share of the history's op budget: a rebuild counts as one op.
    uint64_t weight() const { return std::max<uint64_t>(1, points.size()); }
  };
  // The latest publishes, consecutive versions oldest first: the oldest
  // is evicted only while they hold more than kPublishHistoryDepth ops
  // and more than kPublishHistoryMinPublishes publishes. Written by the
  // writer before the version it records becomes visible, read by any
  // thread.
  struct PublishHistory {
    Mutex mu;
    std::deque<PublishRecord> records GUARDED_BY(mu);
    uint64_t ops GUARDED_BY(mu) = 0;  // sum of the records' weights
  };
  // Set at construction iff opts_.publish_history, never reseated.
  std::unique_ptr<PublishHistory> history_;
};

}  // namespace wazi::serve

#endif  // WAZI_SERVE_INDEX_SNAPSHOT_H_
