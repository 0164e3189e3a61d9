#include "serve/index_snapshot.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace wazi::serve {

VersionedIndex::VersionedIndex(IndexFactory factory, const Dataset& data,
                               const Workload& workload,
                               const BuildOptions& build_opts,
                               VersionedIndexOptions opts)
    : factory_(std::move(factory)),
      build_opts_(build_opts),
      opts_(opts),
      domain_(data.bounds),
      data_(data),
      last_workload_(workload) {
  pos_by_id_.reserve(data_.points.size());
  for (size_t i = 0; i < data_.points.size(); ++i) {
    pos_by_id_[data_.points[i].id] = i;
  }
  // relaxed: single-threaded construction; the count is a statistic.
  num_points_.store(data_.points.size(), std::memory_order_relaxed);
  if (opts_.epoch_domain == nullptr) {
    opts_.epoch_domain = &EpochDomain::Global();
  }
  if (opts_.publish_history) history_ = std::make_unique<PublishHistory>();
  for (int s = 0; s < 2; ++s) {
    inst_[s] = factory_();
    inst_[s]->Build(data_, last_workload_, build_opts_);
    drained_[s] = std::make_shared<std::atomic<bool>>(true);
  }
  supports_updates_ = inst_[0]->SupportsUpdates();
  live_slot_ = 1;   // so the first publish flips to slot 0
  PublishShadow(/*ops=*/nullptr);  // version 1 goes live on inst_[0]
  // Both instances were built from the same data, so the unpublished one
  // is just as current as the published one.
  applied_through_[1] = version_.load(std::memory_order_relaxed);
}

VersionedIndex::~VersionedIndex() {
  // Non-blocking teardown: everything a stamped reader could still reach
  // — the live snapshot, both instances, any copy-on-stall zombies —
  // retires to the epoch domain's limbo instead of spin-waiting for
  // drains here. Retire order puts each snapshot at a lower epoch than
  // the instance it wraps, so a reader pinning a snapshot transitively
  // pins the instance. ~IndexSnapshot touches only its own members (drain
  // flag, points copy), never the instance, so intra-Reclaim deletion
  // order is irrelevant. This lets the last reader of a retired topology
  // drop a whole shard generation without deadlocking on its own guard.
  const IndexSnapshot* live = live_.exchange(nullptr, std::memory_order_seq_cst);
  if (live != nullptr) {
    opts_.epoch_domain->Retire(std::unique_ptr<const IndexSnapshot>(live));
  }
  for (int s = 0; s < 2; ++s) {
    opts_.epoch_domain->Retire(std::move(inst_[s]));
  }
  for (ZombieInstance& z : zombies_) {
    opts_.epoch_domain->Retire(std::move(z.index));
  }
  if (opts_.zombie_gauge != nullptr && !zombies_.empty()) {
    opts_.zombie_gauge->Add(-static_cast<int64_t>(zombies_.size()));
  }
  // Free whatever is already unreachable so short-lived indexes (tests,
  // benches) do not pile limbo onto the global domain.
  opts_.epoch_domain->Reclaim();
}

void VersionedIndex::ApplyBatch(const std::vector<UpdateOp>& ops) {
  if (ops.empty()) return;
  const std::vector<UpdateOp> effective = SanitizeOps(ops);
  if (effective.empty()) return;
  SpatialIndex* shadow = AcquireShadow();  // current through version()
  ApplyToData(effective);
  if (supports_updates_) {
    ApplyToInstance(shadow, effective);
    // relaxed: version_ is only ever written by this (single) writer
    // thread, so its own read needs no ordering.
    recent_batches_.emplace_back(version_.load(std::memory_order_relaxed) + 1,
                                 effective);
  } else {
    // Static index: re-level the shadow from the authoritative point set.
    shadow->Build(data_, last_workload_, build_opts_);
  }
  PublishShadow(&effective);
}

std::vector<UpdateOp> VersionedIndex::SanitizeOps(
    const std::vector<UpdateOp>& ops) {
  // The authoritative set removes by id while index instances remove by
  // coordinates, so ops that would make those two paths diverge — inserts
  // of an id that is already live, removes of an absent id, removes whose
  // coordinates do not match the stored point — are dropped up front.
  // `pending` tracks ids inserted/removed earlier in this same batch.
  std::vector<UpdateOp> effective;
  effective.reserve(ops.size());
  std::unordered_map<int64_t, const Point*> pending;
  for (const UpdateOp& op : ops) {
    const int64_t id = op.point.id;
    const Point* stored = nullptr;
    auto pending_it = pending.find(id);
    if (pending_it != pending.end()) {
      stored = pending_it->second;  // nullptr = removed earlier in batch
    } else {
      auto it = pos_by_id_.find(id);
      if (it != pos_by_id_.end()) stored = &data_.points[it->second];
    }
    if (op.kind == UpdateOp::Kind::kInsert) {
      if (stored != nullptr) continue;  // duplicate id
      pending[id] = &op.point;
    } else {
      if (stored == nullptr || stored->x != op.point.x ||
          stored->y != op.point.y) {
        continue;  // absent id or stale coordinates
      }
      pending[id] = nullptr;
    }
    effective.push_back(op);
  }
  return effective;
}

void VersionedIndex::Rebuild(const Workload& workload) {
  last_workload_ = workload;
  SpatialIndex* shadow = AcquireShadow(/*catch_up=*/false);
  shadow->Build(data_, last_workload_, build_opts_);
  // A rebuild supersedes every batch: the other instance re-levels from
  // data_ on its next acquisition instead of replaying.
  last_rebuild_version_ = version_.load(std::memory_order_relaxed) + 1;
  recent_batches_.clear();
  PublishShadow(/*ops=*/nullptr);
}

SpatialIndex* VersionedIndex::AcquireShadow(bool catch_up) {
  ReapRetired();
  const int shadow_slot = 1 - live_slot_;
  // Wait until the last snapshot wrapping this instance has drained. The
  // snapshot destructor's release-store pairs with this acquire-load, so
  // every reader access happens-before the mutations that follow. That
  // destructor runs from epoch reclamation, so the loop pumps Reclaim():
  // the flag flips on the first pump after the last stamped reader moves
  // on. Bounded by the longest in-flight query — or, when writer_stall_ms
  // is set, by that deadline: a reader parking a snapshot past it
  // triggers the copy-on-stall fallback below instead of stalling the
  // writer (and any migration capture waiting on it) indefinitely.
  const bool bounded = opts_.writer_stall_ms > 0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(bounded ? opts_.writer_stall_ms : 0);
  bool stalled = false;
  // acquire: pairs with the snapshot destructor's release-store on the
  // drain flag — a true read means the last reader is provably gone and
  // the instance is safe to mutate.
  while (!drained_[shadow_slot]->load(std::memory_order_acquire)) {
    opts_.epoch_domain->Reclaim();
    if (drained_[shadow_slot]->load(std::memory_order_acquire)) break;
    if (bounded && std::chrono::steady_clock::now() >= deadline) {
      stalled = true;
      break;
    }
    std::this_thread::yield();
  }
  if (stalled) {
    // The parked instance stays readable for whoever still holds its
    // snapshot; it is destroyed once that snapshot drains. A fresh
    // instance takes the slot, current through data_ (so no catch-up
    // replay is needed) — unless the caller is about to rebuild it
    // anyway.
    zombies_.push_back(ZombieInstance{std::move(inst_[shadow_slot]),
                                      std::move(drained_[shadow_slot])});
    inst_[shadow_slot] = factory_();
    drained_[shadow_slot] = std::make_shared<std::atomic<bool>>(true);
    // Static index types and catch_up == false callers rebuild from data_
    // next anyway; skip the interim build for those.
    if (catch_up && supports_updates_) {
      inst_[shadow_slot]->Build(data_, last_workload_, build_opts_);
    }
    // relaxed: single-writer read of our own version counter.
    applied_through_[shadow_slot] = version_.load(std::memory_order_relaxed);
    const uint64_t stalled_min =
        std::min(applied_through_[0], applied_through_[1]);
    while (!recent_batches_.empty() &&
           recent_batches_.front().first <= stalled_min) {
      recent_batches_.pop_front();
    }
    stall_copies_.fetch_add(1, std::memory_order_relaxed);  // statistic
    if (opts_.stall_counter != nullptr) opts_.stall_counter->Add(1);
    if (opts_.zombie_gauge != nullptr) opts_.zombie_gauge->Add(1);
    if (opts_.journal != nullptr) {
      opts_.journal->Record(obs::TraceEventKind::kStallCopy, opts_.epoch,
                            opts_.shard_id,
                            static_cast<int64_t>(zombies_.size()));
    }
    return inst_[shadow_slot].get();
  }
  SpatialIndex* index = inst_[shadow_slot].get();
  if (!catch_up || !supports_updates_) return index;

  // relaxed: single-writer read of our own version counter.
  const uint64_t cur = version_.load(std::memory_order_relaxed);
  if (applied_through_[shadow_slot] < last_rebuild_version_) {
    // Missed a rebuild; replaying ops would restore content but not the
    // re-optimized layout, so re-level from the authoritative set.
    index->Build(data_, last_workload_, build_opts_);
  } else {
    for (const auto& [version, ops] : recent_batches_) {
      if (version > applied_through_[shadow_slot]) {
        ApplyToInstance(index, ops);
      }
    }
  }
  applied_through_[shadow_slot] = cur;
  const uint64_t min_applied =
      std::min(applied_through_[0], applied_through_[1]);
  while (!recent_batches_.empty() &&
         recent_batches_.front().first <= min_applied) {
    recent_batches_.pop_front();
  }
  return index;
}

void VersionedIndex::ReapZombies() {
  const size_t before = zombies_.size();
  zombies_.erase(
      std::remove_if(zombies_.begin(), zombies_.end(),
                     [](const ZombieInstance& z) {
                       // acquire: pairs with the drain flag's release —
                       // true means the last reader has let go.
                       return z.drained->load(std::memory_order_acquire);
                     }),
      zombies_.end());
  const size_t reaped = before - zombies_.size();
  if (reaped > 0 && opts_.zombie_gauge != nullptr) {
    opts_.zombie_gauge->Add(-static_cast<int64_t>(reaped));
  }
}

bool VersionedIndex::UnchangedWithin(const Rect& rect, uint64_t a,
                                     uint64_t b) const {
  const uint64_t lo = std::min(a, b);
  const uint64_t hi = std::max(a, b);
  if (lo == hi) return true;
  if (history_ == nullptr) return false;
  if (hi - lo > kPublishHistoryDepth) return false;  // gap outgrew the ring
  MutexLock lock(&history_->mu);
  for (uint64_t v = lo + 1; v <= hi; ++v) {
    const PublishRecord& r = history_->ring[v % kPublishHistoryDepth];
    // A slot holding another version means publish v was overwritten
    // (the ring moved past it): the gap is no longer covered.
    if (r.version != v || r.everything) return false;
    if (!rect.Overlaps(r.bounds)) continue;
    for (const Point& p : r.points) {
      if (rect.Contains(p)) return false;
    }
  }
  return true;
}

void VersionedIndex::PublishShadow(const std::vector<UpdateOp>* ops) {
  const int shadow_slot = 1 - live_slot_;
  // relaxed: single-writer read of our own version counter.
  const uint64_t v = version_.load(std::memory_order_relaxed) + 1;
  if (history_ != nullptr) {
    // Recorded before the version becomes visible, so a reader that
    // observes v (or a snapshot at v) finds its record. The positions
    // are gathered off the lock; the replaced record frees after it.
    PublishRecord record;
    record.version = v;
    record.everything = ops == nullptr;
    if (ops != nullptr) {
      record.points.reserve(ops->size());
      for (const UpdateOp& op : *ops) {
        record.points.push_back(op.point);
        record.bounds.Expand(op.point);
      }
    }
    MutexLock lock(&history_->mu);
    std::swap(history_->ring[v % kPublishHistoryDepth], record);
  }
  std::shared_ptr<const std::vector<Point>> pts;
  if (opts_.track_points) {
    pts = std::make_shared<const std::vector<Point>>(data_.points);
  }
  // relaxed: the flag reset is published by the seq_cst exchange below —
  // no reader can reach this snapshot before that swap.
  drained_[shadow_slot]->store(false, std::memory_order_relaxed);
  auto snap = std::make_unique<const IndexSnapshot>(
      inst_[shadow_slot].get(), v, std::move(pts), drained_[shadow_slot]);
  applied_through_[shadow_slot] = v;
  // release: version() readers that observe v also observe the applied
  // batches (paired with their acquire load).
  version_.store(v, std::memory_order_release);
  // The swap: readers Acquire() the new snapshot from here on. The old
  // snapshot parks in the domain's limbo at an epoch no later than any
  // stamp that could have observed it; reclamation destroys it (flipping
  // its drain flag) once every such reader has released. seq_cst: the
  // exchange must be totally ordered against readers' epoch stamps (see
  // the protocol in serve/epoch.h) — weaker orders could free a snapshot
  // a stamped reader is about to load.
  const IndexSnapshot* old =
      live_.exchange(snap.release(), std::memory_order_seq_cst);
  if (old != nullptr) {
    opts_.epoch_domain->Retire(std::unique_ptr<const IndexSnapshot>(old));
  }
  live_slot_ = shadow_slot;
  if (opts_.publish_counter != nullptr) opts_.publish_counter->Add(1);
  if (opts_.journal != nullptr) {
    opts_.journal->Record(obs::TraceEventKind::kSnapshotSwap, opts_.epoch,
                          opts_.shard_id, static_cast<int64_t>(v));
  }
}

void VersionedIndex::ApplyToData(const std::vector<UpdateOp>& ops) {
  for (const UpdateOp& op : ops) {
    if (op.kind == UpdateOp::Kind::kInsert) {
      pos_by_id_[op.point.id] = data_.points.size();
      data_.points.push_back(op.point);
    } else {
      auto it = pos_by_id_.find(op.point.id);
      if (it == pos_by_id_.end()) continue;
      const size_t pos = it->second;
      pos_by_id_.erase(it);
      if (pos + 1 != data_.points.size()) {
        data_.points[pos] = data_.points.back();
        pos_by_id_[data_.points[pos].id] = pos;
      }
      data_.points.pop_back();
    }
  }
  // relaxed: num_points_ is a statistic read by observers; no data is
  // published through it.
  num_points_.store(data_.points.size(), std::memory_order_relaxed);
}

void VersionedIndex::ApplyToInstance(SpatialIndex* index,
                                     const std::vector<UpdateOp>& ops) {
  for (const UpdateOp& op : ops) {
    if (op.kind == UpdateOp::Kind::kInsert) {
      index->Insert(op.point);
    } else {
      index->Remove(op.point);
    }
  }
}

}  // namespace wazi::serve
