// Fixed-capacity, drop-counting ring of timestamped serve events.
//
// The metrics registry answers "how many / how fast"; the journal answers
// "what happened, in what order" — the event sequence of a live migration,
// the snapshot swaps of a churning shard, the evictions of a thrashing
// cache. It is a diagnosis tool, not a durability log: a bounded
// preallocated ring under one mutex, overwriting the oldest entry when
// full and counting every overwrite in dropped(), so a reader always knows
// how much history it is missing.
//
// Event field conventions (a/b/c are per-kind payloads; unused = 0):
//
//   kSnapshotSwap        shard = shard id, epoch = birth epoch of that
//                        shard's VersionedIndex, a = published version
//   kDriftRebuild        shard, epoch; a = rebuild count so far (loop-wide)
//   kMigrationPlan       epoch = TARGET epoch, a = shards to rebuild,
//                        b = shards carried, c = 1 incremental / 0 full
//   kMigrationCapture    epoch = target, a = points captured
//   kMigrationCatchUp    epoch = target, a = delta ops drained pre-cutover
//   kMigrationCutover    epoch = target, a = final replay ops
//   kMigrationRetire     epoch = target, a = shards rebuilt, b = carried,
//                        c = points moved
//   kAdmissionDispatch   a = batch size, b = max batch so far
//   kCacheEvict          a = entries evicted by one insert, b = entry bytes
//   kQueryTrace          sampled query span: a = queue-wait ns (0 on the
//                        direct path), b = execute ns, c = 1 admitted /
//                        0 direct
//   kNetConn             a = 1 opened / 0 closed, b = active connections
//                        after the transition
//   kNetError            a = WireError code (net/wire_format.h), b = 1 the
//                        error closed the connection / 0 it continued
//
// Thread-safety: Record/Tail/recorded/dropped from any thread.

#ifndef WAZI_OBS_TRACE_JOURNAL_H_
#define WAZI_OBS_TRACE_JOURNAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

namespace wazi::obs {

enum class TraceEventKind : uint8_t {
  kSnapshotSwap = 0,
  kDriftRebuild,
  kMigrationPlan,
  kMigrationCapture,
  kMigrationCatchUp,
  kMigrationCutover,
  kMigrationRetire,
  kAdmissionDispatch,
  kCacheEvict,
  kQueryTrace,
  kNetConn,
  kNetError,
};

// Stable lowercase name ("snapshot_swap", "migration_plan", ...): the
// exporter/CLI vocabulary, covered by the golden-format test.
const char* KindName(TraceEventKind kind);

struct TraceEvent {
  int64_t t_ns = 0;  // steady-clock nanoseconds (ordering, not wall time)
  TraceEventKind kind = TraceEventKind::kSnapshotSwap;
  uint64_t epoch = 0;
  int32_t shard = -1;  // -1 = not shard-scoped
  int64_t a = 0, b = 0, c = 0;  // per-kind payload (header table above)
};

// One-line human rendering ("+12.345ms migration_plan e3 moved=2 ...")
// used by `wazi_cli ... --trace-dump N`. `origin_ns` subtracts the run's
// start so timestamps read as offsets.
std::string FormatEvent(const TraceEvent& e, int64_t origin_ns = 0);

class TraceJournal {
 public:
  // `capacity` == 0 disables recording entirely (Record is a counting
  // no-op; dropped() == recorded()).
  explicit TraceJournal(size_t capacity = 4096);

  TraceJournal(const TraceJournal&) = delete;
  TraceJournal& operator=(const TraceJournal&) = delete;

  // Stamps `e.t_ns` (steady clock) unless the caller already did, and
  // appends, overwriting the oldest event when full.
  void Record(TraceEvent e) EXCLUDES(mu_);
  // Convenience for the common call shape.
  void Record(TraceEventKind kind, uint64_t epoch, int32_t shard,
              int64_t a = 0, int64_t b = 0, int64_t c = 0);

  // The last min(n, size) events, oldest first.
  std::vector<TraceEvent> Tail(size_t n) const EXCLUDES(mu_);

  size_t capacity() const { return capacity_; }
  // Events ever recorded / lost to overwrite. recorded - dropped = retained.
  int64_t recorded() const EXCLUDES(mu_);
  int64_t dropped() const EXCLUDES(mu_);

  // Steady-clock now in ns — the clock Record stamps with, exposed so
  // span-computing callers (the sampled query trace) use the same origin.
  static int64_t NowNs();

 private:
  const size_t capacity_;
  mutable wazi::Mutex mu_;
  std::vector<TraceEvent> ring_ GUARDED_BY(mu_);  // preallocated to capacity_
  size_t next_ GUARDED_BY(mu_) = 0;               // ring cursor once full
  int64_t recorded_ GUARDED_BY(mu_) = 0;
};

}  // namespace wazi::obs

#endif  // WAZI_OBS_TRACE_JOURNAL_H_
