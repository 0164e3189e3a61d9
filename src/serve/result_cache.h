// Snapshot-stamped hot-result cache for the serving engine.
//
// Skewed traffic re-asks the same hot range rectangles thousands of times
// between snapshot swaps; each re-execution pays the full projection +
// scan even though nothing it reads has changed. The ResultCache
// memoizes range results keyed by the exact query rectangle and stamps
// every entry with the coordinates of the data it was computed from:
//
//   stamp = { topology epoch,
//             (shard id, per-shard snapshot version) for every shard the
//             query touched }
//
// An entry is served only while its stamp still describes the present:
// the probe re-checks the stamp against the topology/snapshots the caller
// is about to execute on. There are no invalidation hooks anywhere in the
// write path — writers and migrations already version everything they
// touch, and each shard keeps a short history of what its recent
// publishes changed (VersionedIndex::UnchangedWithin), so staleness
// detection falls out of the existing versioning:
//
//   * topology swap (cutover)  -> the epoch changed               -> miss
//   * per-shard snapshot swap  -> that shard's version changed: ask the
//     shard whether any op published between the stamped and the probed
//     version lies inside the query rect. None -> hit (a revalidation);
//     one, a drift rebuild, or a gap the history no longer covers -> miss
//   * mid-migration            -> queries pin an epoch; the entry is
//     valid for the pinned generation or for neither
//
// Why this is sound: within one topology, routing is a pure function of
// coordinates, so a point that routes into a shard whose cell does not
// overlap the query rectangle can never be a result of that query; any
// update that could change the result must land in a touched shard and
// bump its version. Finer still, an insert or remove changes a range
// result only if its point lies inside the (closed) rectangle, so a
// touched shard whose intervening ops all lie outside it serves the same
// result at both versions. The check runs in both directions: a batch
// pinned to snapshots OLDER than the stamp validates the publishes between
// them just the same. The history check runs off the segment lock, on a
// copy of the stamp; a successful forward check then restamps the entry
// to the probed versions under the lock (if the slot still holds that
// entry), so later probes check only the publishes after it. Probes that
// copied the stamp before that restamp each run their own check; one
// whose check fails after another probe refreshed the slot probes the
// fresh entry once. Across topologies no such argument holds (cells
// move), which is why the epoch is part of the stamp.
//
// Structure: N independent cache shards (key-hashed) each holding an LRU
// list + hash map under its own mutex, so concurrent clients probing
// different keys rarely contend. Capacity is bytes of cached result
// payload; eviction is per-cache-shard LRU. Thread-safe throughout. A
// probe never holds a segment mutex and a shard's history mutex at once.

#ifndef WAZI_SERVE_RESULT_CACHE_H_
#define WAZI_SERVE_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <cstddef>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "obs/trace_journal.h"
#include "serve/sharded_index.h"

namespace wazi::serve {

struct ResultCacheOptions {
  // Total cached-payload budget across all cache shards; 0 disables the
  // cache (every Lookup misses, Insert is a no-op).
  size_t capacity_bytes = 0;
  // Independent LRU segments (key-hashed). More segments = less mutex
  // contention between concurrent clients, slightly coarser LRU.
  int segments = 16;
};

// Aggregate counters (monotone; read from any thread).
struct ResultCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;         // absent key
  int64_t invalidations = 0;  // present but stamp-stale (counts as a miss)
  // Hits served across a version change because no op published in
  // between touched the rect (also counted in `hits`).
  int64_t revalidations = 0;
  int64_t insertions = 0;
  int64_t evictions = 0;
  size_t size_bytes = 0;
  int64_t lookups() const { return hits + misses + invalidations; }
  double hit_rate() const {
    const int64_t n = lookups();
    return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
  }
};

class ResultCache {
 public:
  // `registry`, when given, hosts the cache's counters/gauge
  // (serve_cache_hits_total, ..., serve_cache_bytes) — ServeLoop passes
  // its own so every surface exports through one snapshot; a standalone
  // cache owns a private registry so stats() works identically. `journal`,
  // when given, receives one kCacheEvict event per insert that evicted.
  explicit ResultCache(ResultCacheOptions opts,
                       obs::MetricsRegistry* registry = nullptr,
                       obs::TraceJournal* journal = nullptr);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  bool enabled() const { return opts_.capacity_bytes > 0; }

  // Probes for `query`'s cached hits, validating the entry's stamp
  // against `topo` — the topology the caller pinned for this query — and,
  // when non-null, `snaps` (a SnapshotSet of that same topology): with
  // `snaps` the versions checked are the pre-acquired snapshots' (the
  // exact instances the caller would execute on), otherwise each touched
  // shard's live published version. A touched shard whose version moved
  // is revalidated through its publish history (file header). On a valid
  // hit appends the cached points to `out`, stores the validated
  // versions' mass in `*version_mass` (when non-null) and returns true. A
  // stale entry is erased and counts as `invalidations`.
  bool Lookup(const Rect& query, const ShardTopology& topo,
              const ShardedVersionedIndex::SnapshotSet* snaps,
              std::vector<Point>* out, uint64_t* version_mass = nullptr);

  // Caches `hits` for `query`, stamped with `epoch` and the per-shard
  // snapshot versions in `parts` (the shards the executed query actually
  // touched — ShardedVersionedIndex::RangeQuery's `parts` out-param).
  // Results larger than one cache segment are not cached. Racing inserts
  // of one key are last-writer-wins: every stamp was valid when its
  // result was computed, and the next probe re-validates whichever won.
  void Insert(const Rect& query, const std::vector<Point>& hits,
              uint64_t epoch, const std::vector<ShardQueryPart>& parts);

  // Drops every entry (counters are kept; eviction counters unchanged).
  void Clear();

  ResultCacheStats stats() const;

 private:
  // Rect coordinates by BIT PATTERN, not double value: equality must
  // agree with the hash (double == would merge -0.0/0.0 across buckets
  // and make a NaN-carrying key never equal itself, breaking erase).
  // Bit-distinct-but-equal rects simply occupy distinct entries.
  struct Key {
    uint64_t min_x, min_y, max_x, max_y;
    bool operator==(const Key&) const = default;
  };
  static Key KeyOf(const Rect& r);
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };
  // (shard id, snapshot version) per touched shard.
  using ShardVersions = std::vector<std::pair<int, uint64_t>>;
  struct Entry {
    Key key;
    // shared_ptr so a hit can hand the payload out of the segment lock
    // and copy it into the caller's vector WITHOUT holding the mutex —
    // identical hot rects all land in one segment, so an under-lock copy
    // would serialize exactly the traffic the cache exists to absorb.
    std::shared_ptr<const std::vector<Point>> hits;
    uint64_t epoch = 0;
    // Empty-rect queries touch no shard and stay valid for the whole
    // epoch. Guarded by the owning segment's mutex (a forward
    // revalidation restamps it).
    ShardVersions shard_versions;
    size_t bytes = 0;
  };
  struct Segment {
    using Map = std::unordered_map<Key, std::list<Entry>::iterator, KeyHash>;
    Mutex mu;
    std::list<Entry> lru GUARDED_BY(mu);  // front = most recent
    Map map GUARDED_BY(mu);
    size_t bytes GUARDED_BY(mu) = 0;
  };

  Segment& SegmentFor(const Key& key);
  // Outcome of comparing an entry's stamp with a probe's context.
  enum class Stamp { kStale, kExact, kMoved };
  // Compares `e`'s stamp with `topo` (and `snaps`, see Lookup) without
  // reading any history: kStale on another epoch, kMoved when a touched
  // shard's version differs. `*mass` receives the probed versions' sum.
  // Caller holds the entry's segment mutex.
  static Stamp CheckStamp(const Entry& e, const ShardTopology& topo,
                          const ShardedVersionedIndex::SnapshotSet* snaps,
                          uint64_t* mass);
  // Asks each touched shard's publish history whether `rect`'s result
  // changed between the stamped and the probed version. On success
  // `versions` holds the probed versions and `*mass` their sum. Takes no
  // segment mutex.
  static bool Revalidate(const Rect& rect, ShardVersions* versions,
                         const ShardTopology& topo,
                         const ShardedVersionedIndex::SnapshotSet* snaps,
                         uint64_t* mass);
  void EraseLocked(Segment& seg, Segment::Map::iterator it)
      REQUIRES(seg.mu);

  ResultCacheOptions opts_;
  size_t segment_capacity_ = 0;
  std::vector<std::unique_ptr<Segment>> segments_;
  // Counters live in the registry (the *_stats() accessor is a thin view
  // over these handles); own_registry_ backs them when the caller did not
  // supply one. Hot paths touch only the padded handles, never a map.
  std::unique_ptr<obs::MetricsRegistry> own_registry_;
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* invalidations_ = nullptr;
  obs::Counter* revalidations_ = nullptr;
  obs::Counter* insertions_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Gauge* bytes_gauge_ = nullptr;  // mirror of sum(seg.bytes)
  obs::TraceJournal* journal_ = nullptr;
};

}  // namespace wazi::serve

#endif  // WAZI_SERVE_RESULT_CACHE_H_
