#include "serve/index_snapshot.h"

#include <algorithm>

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
  Publish(BuildFresh(), /*ops=*/nullptr);  // version 1
}

VersionedIndex::~VersionedIndex() {
  // Non-blocking teardown: the live snapshot (and the instance it owns)
  // retires to the epoch domain's limbo instead of waiting for readers
  // here. This lets the last reader of a retired topology drop a whole
  // shard generation without deadlocking on its own guard.
  // seq_cst: same total-order argument as Publish's exchange.
  const IndexSnapshot* live = live_.exchange(nullptr, std::memory_order_seq_cst);
  if (live != nullptr) {
    opts_.epoch_domain->Retire(std::unique_ptr<const IndexSnapshot>(live));
  }
  // Free whatever is already unreachable so short-lived indexes (tests,
  // benches) do not pile limbo onto the global domain.
  Reclaim();
}

void VersionedIndex::ApplyBatch(const std::vector<UpdateOp>& ops) {
  if (ops.empty()) return;
  const std::vector<UpdateOp> effective = ApplyToData(ops);
  if (opts_.dropped_counter != nullptr && effective.size() < ops.size()) {
    opts_.dropped_counter->Add(
        static_cast<int64_t>(ops.size() - effective.size()));
  }
  if (effective.empty()) return;
  // relaxed: live_ is only ever stored by this (single) writer thread, so
  // its own read needs no ordering; the instance is immutable.
  std::unique_ptr<SpatialIndex> next =
      live_.load(std::memory_order_relaxed)->index().CloneForUpdate();
  if (next != nullptr) {
    for (const UpdateOp& op : effective) {
      if (op.kind == UpdateOp::Kind::kInsert) {
        next->Insert(op.point);
      } else {
        next->Remove(op.point);
      }
    }
  } else {
    next = BuildFresh();  // no clone hook: re-level from data_
  }
  Publish(std::move(next), &effective);
}

void VersionedIndex::Rebuild(const Workload& workload) {
  last_workload_ = workload;
  Publish(BuildFresh(), /*ops=*/nullptr);
}

std::unique_ptr<SpatialIndex> VersionedIndex::BuildFresh() const {
  std::unique_ptr<SpatialIndex> index = factory_();
  index->Build(data_, last_workload_, build_opts_);
  return index;
}

void VersionedIndex::Reclaim() {
  opts_.epoch_domain->Reclaim();
  if (opts_.limbo_gauge != nullptr) {
    opts_.limbo_gauge->Set(
        static_cast<int64_t>(opts_.epoch_domain->limbo_size()));
  }
}

bool VersionedIndex::UnchangedWithin(const Rect& rect, uint64_t a,
                                     uint64_t b) const {
  const uint64_t lo = std::min(a, b);
  const uint64_t hi = std::max(a, b);
  if (lo == hi) return true;
  if (history_ == nullptr) return false;
  // More publishes than the history can hold (it keeps at most
  // max(depth, min publishes) records, each weighing one op or more).
  if (hi - lo > std::max(kPublishHistoryDepth, kPublishHistoryMinPublishes)) {
    return false;
  }
  MutexLock lock(&history_->mu);
  const std::deque<PublishRecord>& records = history_->records;
  // Every publish in (lo, hi] must still be held.
  if (records.empty() || records.front().version > lo + 1 ||
      records.back().version < hi) {
    return false;
  }
  for (uint64_t v = lo + 1; v <= hi; ++v) {
    const PublishRecord& r = records[v - records.front().version];
    if (r.everything) return false;
    if (!rect.Overlaps(r.bounds)) continue;
    for (const Point& p : r.points) {
      if (rect.Contains(p)) return false;
    }
  }
  return true;
}

void VersionedIndex::Publish(std::unique_ptr<SpatialIndex> next,
                             const std::vector<UpdateOp>* ops) {
  // relaxed: single-writer read of our own version counter.
  const uint64_t v = version_.load(std::memory_order_relaxed) + 1;
  if (history_ != nullptr) {
    // Recorded before the version becomes visible, so a reader that
    // observes v (or a snapshot at v) finds its record. The positions
    // are gathered off the lock.
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
    history_->ops += record.weight();
    history_->records.push_back(std::move(record));
    while (history_->ops > kPublishHistoryDepth &&
           history_->records.size() > kPublishHistoryMinPublishes) {
      history_->ops -= history_->records.front().weight();
      history_->records.pop_front();
    }
  }
  std::shared_ptr<const std::vector<Point>> pts;
  if (opts_.track_points) {
    pts = std::make_shared<const std::vector<Point>>(data_.points);
  }
  auto snap = std::make_unique<const IndexSnapshot>(std::move(next), v,
                                                    std::move(pts));
  // release: version() readers that observe v also observe the applied
  // batches (paired with their acquire load).
  version_.store(v, std::memory_order_release);
  // The swap: readers Acquire() the new snapshot from here on. The old
  // snapshot, with the instance it owns, parks in the domain's limbo at
  // an epoch no later than any stamp that could have observed it;
  // reclamation destroys it once every such reader has released. Pages
  // the new instance shares with it stay alive through their shared
  // ownership (storage/page_store.h). seq_cst: the exchange must be
  // totally ordered against readers' epoch stamps (see the protocol in
  // serve/epoch.h) — weaker orders could free a snapshot a stamped reader
  // is about to load.
  const IndexSnapshot* old =
      live_.exchange(snap.release(), std::memory_order_seq_cst);
  if (old != nullptr) {
    opts_.epoch_domain->Retire(std::unique_ptr<const IndexSnapshot>(old));
  }
  if (opts_.publish_counter != nullptr) opts_.publish_counter->Add(1);
  if (opts_.journal != nullptr) {
    opts_.journal->Record(obs::TraceEventKind::kSnapshotSwap, opts_.epoch,
                          opts_.shard_id, static_cast<int64_t>(v));
  }
  Reclaim();
}

std::vector<UpdateOp> VersionedIndex::ApplyToData(
    const std::vector<UpdateOp>& ops) {
  // The authoritative set removes by id while index instances remove by
  // coordinates, so ops that would make those two paths diverge — inserts
  // of an id that is already live, removes of an absent id, removes whose
  // coordinates do not match the stored point — are dropped. Each op is
  // checked against the set as the ops before it in the batch left it.
  std::vector<UpdateOp> effective;
  effective.reserve(ops.size());
  for (const UpdateOp& op : ops) {
    if (op.kind == UpdateOp::Kind::kInsert) {
      if (!pos_by_id_.try_emplace(op.point.id, data_.points.size()).second) {
        continue;  // duplicate id
      }
      data_.points.push_back(op.point);
    } else {
      auto it = pos_by_id_.find(op.point.id);
      if (it == pos_by_id_.end()) continue;  // absent id
      const size_t pos = it->second;
      if (data_.points[pos].x != op.point.x ||
          data_.points[pos].y != op.point.y) {
        continue;  // stale coordinates
      }
      pos_by_id_.erase(it);
      if (pos + 1 != data_.points.size()) {
        data_.points[pos] = data_.points.back();
        pos_by_id_[data_.points[pos].id] = pos;
      }
      data_.points.pop_back();
    }
    effective.push_back(op);
  }
  // relaxed: num_points_ is a statistic read by observers; no data is
  // published through it.
  num_points_.store(data_.points.size(), std::memory_order_relaxed);
  return effective;
}

}  // namespace wazi::serve
