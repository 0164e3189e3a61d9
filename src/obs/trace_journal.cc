#include "obs/trace_journal.h"

#include <chrono>
#include <cstdio>

namespace wazi::obs {

const char* KindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kSnapshotSwap: return "snapshot_swap";
    case TraceEventKind::kDriftRebuild: return "drift_rebuild";
    case TraceEventKind::kMigrationPlan: return "migration_plan";
    case TraceEventKind::kMigrationCapture: return "migration_capture";
    case TraceEventKind::kMigrationCatchUp: return "migration_catch_up";
    case TraceEventKind::kMigrationCutover: return "migration_cutover";
    case TraceEventKind::kMigrationRetire: return "migration_retire";
    case TraceEventKind::kAdmissionDispatch: return "admission_dispatch";
    case TraceEventKind::kCacheEvict: return "cache_evict";
    case TraceEventKind::kQueryTrace: return "query_trace";
    case TraceEventKind::kNetConn: return "net_conn";
    case TraceEventKind::kNetError: return "net_error";
  }
  return "unknown";
}

std::string FormatEvent(const TraceEvent& e, int64_t origin_ns) {
  char buf[192];
  const double ms = static_cast<double>(e.t_ns - origin_ns) / 1e6;
  int n = std::snprintf(buf, sizeof(buf), "%+12.3fms %-18s", ms,
                        KindName(e.kind));
  std::string out(buf, n > 0 ? static_cast<size_t>(n) : 0);
  if (e.epoch != 0) {
    out += " e" + std::to_string(e.epoch);
  }
  if (e.shard >= 0) {
    out += " shard=" + std::to_string(e.shard);
  }
  switch (e.kind) {
    case TraceEventKind::kSnapshotSwap:
      out += " version=" + std::to_string(e.a);
      break;
    case TraceEventKind::kDriftRebuild:
      out += " rebuilds=" + std::to_string(e.a);
      break;
    case TraceEventKind::kMigrationPlan:
      out += " moved=" + std::to_string(e.a) +
             " carried=" + std::to_string(e.b) +
             (e.c != 0 ? " incremental" : " full");
      break;
    case TraceEventKind::kMigrationCapture:
      out += " points=" + std::to_string(e.a);
      break;
    case TraceEventKind::kMigrationCatchUp:
      out += " drained_ops=" + std::to_string(e.a);
      break;
    case TraceEventKind::kMigrationCutover:
      out += " replay_ops=" + std::to_string(e.a);
      break;
    case TraceEventKind::kMigrationRetire:
      out += " moved=" + std::to_string(e.a) +
             " carried=" + std::to_string(e.b) +
             " points=" + std::to_string(e.c);
      break;
    case TraceEventKind::kAdmissionDispatch:
      out += " batch=" + std::to_string(e.a) +
             " max_batch=" + std::to_string(e.b);
      break;
    case TraceEventKind::kCacheEvict:
      out += " evicted=" + std::to_string(e.a) +
             " bytes=" + std::to_string(e.b);
      break;
    case TraceEventKind::kQueryTrace:
      out += " wait_ns=" + std::to_string(e.a) +
             " exec_ns=" + std::to_string(e.b) +
             (e.c != 0 ? " admitted" : " direct");
      break;
    case TraceEventKind::kNetConn:
      out += std::string(e.a != 0 ? " opened" : " closed") +
             " active=" + std::to_string(e.b);
      break;
    case TraceEventKind::kNetError:
      out += " code=" + std::to_string(e.a) +
             (e.b != 0 ? " fatal" : " continued");
      break;
  }
  return out;
}

TraceJournal::TraceJournal(size_t capacity) : capacity_(capacity) {
  ring_.reserve(capacity_);
}

int64_t TraceJournal::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void TraceJournal::Record(TraceEvent e) {
  if (e.t_ns == 0) e.t_ns = NowNs();
  wazi::MutexLock lock(&mu_);
  ++recorded_;
  if (capacity_ == 0) return;
  if (ring_.size() < capacity_) {
    ring_.push_back(e);
  } else {
    ring_[next_] = e;
    next_ = (next_ + 1) % capacity_;
  }
}

void TraceJournal::Record(TraceEventKind kind, uint64_t epoch, int32_t shard,
                          int64_t a, int64_t b, int64_t c) {
  TraceEvent e;
  e.kind = kind;
  e.epoch = epoch;
  e.shard = shard;
  e.a = a;
  e.b = b;
  e.c = c;
  Record(e);
}

std::vector<TraceEvent> TraceJournal::Tail(size_t n) const {
  wazi::MutexLock lock(&mu_);
  const size_t size = ring_.size();
  const size_t take = n < size ? n : size;
  std::vector<TraceEvent> out;
  out.reserve(take);
  // Oldest retained entry sits at next_ once the ring wrapped, at 0 before.
  const size_t head = ring_.size() < capacity_ ? 0 : next_;
  for (size_t i = size - take; i < size; ++i) {
    out.push_back(ring_[(head + i) % size]);
  }
  return out;
}

int64_t TraceJournal::recorded() const {
  wazi::MutexLock lock(&mu_);
  return recorded_;
}

int64_t TraceJournal::dropped() const {
  wazi::MutexLock lock(&mu_);
  return recorded_ - static_cast<int64_t>(ring_.size());
}

}  // namespace wazi::obs
