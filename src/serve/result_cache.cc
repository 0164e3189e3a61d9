#include "serve/result_cache.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace wazi::serve {
namespace {

// Per-entry bookkeeping overhead charged against the byte budget on top of
// the point payload (list node, map slot, stamp). Keeps a cache full of
// tiny results from exceeding the budget by an unbounded factor.
constexpr size_t kEntryOverhead = 128;

inline uint64_t BitsOf(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// splitmix64: cheap, well-distributed 64-bit mix.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// The version a probe checks a touched shard at: the pinned snapshot's
// when the caller holds a SnapshotSet, else the live published one.
inline uint64_t ProbedVersion(int shard, const ShardTopology& topo,
                              const ShardedVersionedIndex::SnapshotSet* snaps) {
  return snaps != nullptr ? snaps->shard_version(shard)
                          : topo.shard_version(shard);
}

}  // namespace

ResultCache::Key ResultCache::KeyOf(const Rect& r) {
  return Key{BitsOf(r.min_x), BitsOf(r.min_y), BitsOf(r.max_x),
             BitsOf(r.max_y)};
}

size_t ResultCache::KeyHash::operator()(const Key& k) const {
  uint64_t h = Mix(k.min_x);
  h = Mix(h ^ k.min_y);
  h = Mix(h ^ k.max_x);
  h = Mix(h ^ k.max_y);
  return static_cast<size_t>(h);
}

ResultCache::ResultCache(ResultCacheOptions opts,
                         obs::MetricsRegistry* registry,
                         obs::TraceJournal* journal)
    : opts_(opts), journal_(journal) {
  if (registry == nullptr) {
    own_registry_ = std::make_unique<obs::MetricsRegistry>();
    registry = own_registry_.get();
  }
  hits_ = registry->GetCounter("serve_cache_hits_total");
  misses_ = registry->GetCounter("serve_cache_misses_total");
  invalidations_ = registry->GetCounter("serve_cache_invalidations_total");
  revalidations_ = registry->GetCounter("serve_cache_revalidations_total");
  insertions_ = registry->GetCounter("serve_cache_insertions_total");
  evictions_ = registry->GetCounter("serve_cache_evictions_total");
  bytes_gauge_ = registry->GetGauge("serve_cache_bytes");
  const int segments = std::max(1, opts_.segments);
  segment_capacity_ = opts_.capacity_bytes / static_cast<size_t>(segments);
  if (enabled() && segment_capacity_ == 0) segment_capacity_ = 1;
  segments_.reserve(static_cast<size_t>(segments));
  for (int i = 0; i < segments; ++i) {
    segments_.push_back(std::make_unique<Segment>());
  }
}

ResultCache::Segment& ResultCache::SegmentFor(const Key& key) {
  return *segments_[KeyHash{}(key) % segments_.size()];
}

ResultCache::Stamp ResultCache::CheckStamp(
    const Entry& e, const ShardTopology& topo,
    const ShardedVersionedIndex::SnapshotSet* snaps, uint64_t* mass) {
  // A different epoch means a different router: cells moved, so the
  // touched-shard argument (header) no longer covers the query.
  if (e.epoch != topo.epoch) return Stamp::kStale;
  Stamp result = Stamp::kExact;
  uint64_t sum = 0;
  for (const auto& [shard, version] : e.shard_versions) {
    if (shard < 0 || shard >= topo.num_shards()) {
      return Stamp::kStale;  // defensive; an epoch pins its shard count
    }
    const uint64_t now = ProbedVersion(shard, topo, snaps);
    sum += now;
    // Versions are bumped on every publish, so version equality means the
    // shard still serves the exact snapshot the entry was computed on.
    if (now != version) result = Stamp::kMoved;
  }
  *mass = sum;
  return result;
}

bool ResultCache::Revalidate(const Rect& rect, ShardVersions* versions,
                             const ShardTopology& topo,
                             const ShardedVersionedIndex::SnapshotSet* snaps,
                             uint64_t* mass) {
  uint64_t sum = 0;
  for (auto& [shard, version] : *versions) {
    const uint64_t now = ProbedVersion(shard, topo, snaps);
    sum += now;
    // The result still holds iff no op published between the two
    // versions (either order) lies inside the rect.
    if (!topo.shards[static_cast<size_t>(shard)]->UnchangedWithin(
            rect, version, now)) {
      return false;
    }
    version = now;
  }
  *mass = sum;
  return true;
}

void ResultCache::EraseLocked(Segment& seg, Segment::Map::iterator it) {
  seg.bytes -= it->second->bytes;
  bytes_gauge_->Add(-static_cast<int64_t>(it->second->bytes));
  seg.lru.erase(it->second);
  seg.map.erase(it);
}

bool ResultCache::Lookup(const Rect& query, const ShardTopology& topo,
                         const ShardedVersionedIndex::SnapshotSet* snaps,
                         std::vector<Point>* out, uint64_t* version_mass) {
  if (!enabled()) return false;
  const Key key = KeyOf(query);
  Segment& seg = SegmentFor(key);
  // At most two passes: a second only when the history disproved the
  // copied stamp but another probe has meanwhile re-executed the query
  // and refreshed the slot, whose fresh entry then usually hits.
  for (bool retried = false;; retried = true) {
    std::shared_ptr<const std::vector<Point>> payload;
    ShardVersions stamp;  // copied only when a touched shard moved
    uint64_t mass = 0;
    {
      MutexLock lock(&seg.mu);
      const auto it = seg.map.find(key);
      if (it == seg.map.end()) {
        misses_->Add(1);
        return false;
      }
      Entry& entry = *it->second;
      const Stamp check = CheckStamp(entry, topo, snaps, &mass);
      if (check == Stamp::kStale) {
        // Stale: the world moved under it. Erase so the slot is not
        // probed (and re-invalidated) forever, and let the caller
        // re-execute.
        EraseLocked(seg, it);
        invalidations_->Add(1);
        return false;
      }
      payload = entry.hits;
      if (check == Stamp::kExact) {
        // Touch: move to the front of the LRU list (splice keeps
        // iterators in seg.map valid).
        seg.lru.splice(seg.lru.begin(), seg.lru, it->second);
      } else {
        stamp = entry.shard_versions;
      }
    }
    if (!stamp.empty()) {
      // The history scan runs OFF the segment mutex: every probe of a
      // hot rect lands on this one segment, so a scan under it would
      // serialize them. Holding `payload` pins its address, so a slot
      // whose payload pointer still matches holds the very entry copied
      // above.
      const bool valid = Revalidate(query, &stamp, topo, snaps, &mass);
      MutexLock lock(&seg.mu);
      const auto it = seg.map.find(key);
      const bool same = it != seg.map.end() && it->second->hits == payload;
      if (!valid) {
        if (same) {
          EraseLocked(seg, it);
        } else if (it != seg.map.end() && !retried) {
          continue;  // refreshed meanwhile: probe the fresh entry
        }
        invalidations_->Add(1);
        return false;
      }
      if (same) {
        // Restamp forward only (to the versions just checked): a probe
        // pinned to older snapshots, or racing a newer probe's restamp,
        // proves the entry for its own context without moving it back.
        ShardVersions& live = it->second->shard_versions;
        for (size_t i = 0; i < live.size(); ++i) {
          live[i].second = std::max(live[i].second, stamp[i].second);
        }
        seg.lru.splice(seg.lru.begin(), seg.lru, it->second);
      }
      revalidations_->Add(1);
    }
    // The shared_ptr keeps the payload alive even if the entry is
    // evicted or refreshed concurrently; the vector it points to is
    // immutable, and the O(result) copy stays off the segment mutex.
    out->insert(out->end(), payload->begin(), payload->end());
    if (version_mass != nullptr) *version_mass = mass;
    hits_->Add(1);
    return true;
  }
}

void ResultCache::Insert(const Rect& query, const std::vector<Point>& hits,
                         uint64_t epoch,
                         const std::vector<ShardQueryPart>& parts) {
  if (!enabled()) return;
  const size_t bytes = kEntryOverhead + hits.size() * sizeof(Point) +
                       parts.size() * sizeof(std::pair<int, uint64_t>);
  if (bytes > segment_capacity_) return;  // would evict a whole segment

  Entry entry;
  entry.key = KeyOf(query);
  entry.hits = std::make_shared<const std::vector<Point>>(hits);
  entry.epoch = epoch;
  entry.shard_versions.reserve(parts.size());
  for (const ShardQueryPart& part : parts) {
    entry.shard_versions.emplace_back(part.shard, part.snapshot_version);
  }
  entry.bytes = bytes;

  Segment& seg = SegmentFor(entry.key);
  int64_t evicted = 0;
  {
    MutexLock lock(&seg.mu);
    const auto it = seg.map.find(entry.key);
    // Last-writer-wins refresh of an existing slot.
    if (it != seg.map.end()) EraseLocked(seg, it);
    while (seg.bytes + bytes > segment_capacity_ && !seg.lru.empty()) {
      seg.bytes -= seg.lru.back().bytes;
      bytes_gauge_->Add(-static_cast<int64_t>(seg.lru.back().bytes));
      seg.map.erase(seg.lru.back().key);
      seg.lru.pop_back();
      ++evicted;
    }
    seg.bytes += bytes;
    bytes_gauge_->Add(static_cast<int64_t>(bytes));
    seg.lru.push_front(std::move(entry));
    seg.map.emplace(seg.lru.front().key, seg.lru.begin());
  }
  insertions_->Add(1);
  if (evicted > 0) {
    evictions_->Add(evicted);
    // One event per evicting insert (not per entry): the signal operators
    // need is "inserts are displacing entries", not an event flood.
    if (journal_ != nullptr) {
      journal_->Record(obs::TraceEventKind::kCacheEvict, /*epoch=*/0,
                       /*shard=*/-1, evicted,
                       static_cast<int64_t>(bytes));
    }
  }
}

void ResultCache::Clear() {
  for (const auto& seg : segments_) {
    MutexLock lock(&seg->mu);
    seg->lru.clear();
    seg->map.clear();
    bytes_gauge_->Add(-static_cast<int64_t>(seg->bytes));
    seg->bytes = 0;
  }
}

ResultCacheStats ResultCache::stats() const {
  // Thin view over the registry handles; size_bytes stays the exact
  // under-lock sum (the gauge is the cheap exported mirror).
  ResultCacheStats s;
  s.hits = hits_->value();
  s.misses = misses_->value();
  s.invalidations = invalidations_->value();
  s.revalidations = revalidations_->value();
  s.insertions = insertions_->value();
  s.evictions = evictions_->value();
  for (const auto& seg : segments_) {
    MutexLock lock(&seg->mu);
    s.size_bytes += seg->bytes;
  }
  return s;
}

}  // namespace wazi::serve
