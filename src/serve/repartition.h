// Repartition decision logic: when should the serve layer re-cut the
// shard topology, how many shards should it have, and which cells of the
// current tiling actually need to move?
//
// The monitor consumes periodic per-shard load samples — item counts
// (authoritative point-count mirrors), query stabs (sub-queries served
// since the previous sample) and update-queue depths — and reduces
// them to one imbalance ratio: each component is normalized to its own
// mean across shards, the components are combined per shard with
// configurable weights, and the ratio is max(load) / mean(load). 1.0 means
// a perfectly balanced topology; 2.0 means the hottest shard carries twice
// its fair share. A repartition is recommended when the ratio stays above
// `max_imbalance` for `patience` consecutive samples (a single skewed
// burst should not trigger a full data migration), enough query traffic
// has been observed to judge the workload, and the cooldown since the last
// repartition has expired.
//
// The monitor can also recommend a shard COUNT (auto_shard_count): it
// grows the topology when every writer is hot (all update queues at least
// grow_queue_depth deep — per-shard writers are the scaling unit, so a
// uniformly backlogged write stream needs more of them) and shrinks it
// when per-shard occupancy AND query-stab rates fall below floors (idle
// slivers only tax cross-shard fan-out). Both signals need their own
// sustained streak (resize_patience, deliberately slower than the re-cut
// trigger) and share the migration cooldown, and the grow/shrink
// conditions are disjoint (hot queues block a shrink) — the hysteresis
// that keeps the count from oscillating. The recommendation is consumed
// through the existing TriggerRepartition(n) path.
//
// PlanIncrementalRecut decides which cells of the current rows x cols
// tiling a migration must rebuild: cells whose item count (or query-stab
// share) EXCEEDS the fair share beyond a tolerance mark their adjacent
// cuts as moving; everything a moving cut touches is "changed", the rest
// can be CARRIED into the next topology verbatim (see ServeLoop's
// migration pipeline).
//
// Pure decision logic, no threads and no clocks of its own (callers pass
// timestamps), so it is unit-testable in isolation; ServeLoop owns the
// sampling thread and executes the migration.

#ifndef WAZI_SERVE_REPARTITION_H_
#define WAZI_SERVE_REPARTITION_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace wazi::serve {

struct RepartitionOptions {
  // Run the monitor thread and migrate automatically when it recommends.
  // Off by default: a migration captures and rebuilds its changed cells
  // under live traffic, so opting in should be deliberate (benchmarks and
  // tests also drive migrations explicitly via
  // ServeLoop::TriggerRepartition).
  bool enabled = false;
  // Monitor sampling period.
  int poll_ms = 200;
  // Trigger when max/mean combined shard load exceeds this ratio...
  double max_imbalance = 1.8;
  // ...for this many consecutive samples.
  int patience = 3;
  // Minimum query stabs in one sample's window before the workload
  // component is trusted (item imbalance alone may still trigger). The
  // ServeLoop monitor samples stab DELTAS per poll interval, so this is
  // effectively a rate floor of min_queries / poll_ms — below it a
  // query-only skew is treated as noise.
  int64_t min_queries = 256;
  // Cooldown between migrations.
  int min_interval_ms = 2000;
  // Component weights of the combined load (a component whose total is
  // zero across all shards is skipped).
  double weight_items = 1.0;
  double weight_stabs = 1.0;
  double weight_queue = 0.5;

  // --- per-cell migration plan --------------------------------------
  // A migration at the current count re-cuts only the cells whose cuts
  // actually move, carrying the rest into the next topology (ServeLoop
  // re-cuts every cell when the plan is infeasible — no dirty cell, or
  // too many changed cells for carrying to pay off).
  //
  // A cell is dirty when its item count (or, with enough traffic, its
  // stab share) exceeds the fair share by more than this fraction.
  // Overload only: cold cells are relieved implicitly when their hot
  // neighbours re-cut, and flagging them too would mark the whole tiling
  // dirty under a concentrated skew.
  double incremental_cell_tolerance = 0.3;
  // A row boundary moves only when a row's item total exceeds its fair
  // share by more than this fraction — deliberately looser than the cell
  // tolerance, because moving a y-cut invalidates BOTH adjacent rows
  // wholesale.
  double incremental_row_tolerance = 0.5;
  // Re-cut every cell when more than this fraction of cells
  // would change anyway.
  double incremental_max_changed_fraction = 0.65;

  // --- shard-count auto-tuning ---------------------------------------
  // Let the monitor recommend growing/shrinking the shard count
  // (recommended_shards(), consumed via TriggerRepartition(n)). Off by
  // default: a count change is always a full migration.
  bool auto_shard_count = false;
  int min_shards = 1;
  int max_shards = 32;
  // Grow (double, clamped to max_shards) when EVERY writer's queue is at
  // least this deep — all writers hot means the write stream has
  // outgrown the per-shard writer parallelism, not just one cell.
  size_t grow_queue_depth = 128;
  // Shrink (halve, clamped to min_shards) when the MEAN items per shard
  // and the MEAN stabs per sample both sit below these floors while no
  // queue is hot.
  size_t shrink_items_per_shard = 4096;
  int64_t shrink_stabs_per_shard = 64;
  // Consecutive samples a grow/shrink signal must persist. Slower than
  // `patience` by default: resizing is the more disruptive decision.
  int resize_patience = 5;
};

// One shard's load sample.
struct ShardLoad {
  size_t items = 0;          // authoritative point count (atomic mirror)
  int64_t query_stabs = 0;   // sub-queries served in this sample's window
  size_t queue_depth = 0;    // pending ops in the shard's writer queue
};

class RepartitionMonitor {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  explicit RepartitionMonitor(RepartitionOptions opts = {}) : opts_(opts) {}

  // Feeds one sampling round. Returns true when a repartition is
  // recommended now: either the imbalance trigger (over threshold for
  // `patience` rounds) or, with auto_shard_count, a matured resize
  // streak; both respect the cooldown. Single-threaded: ServeLoop's
  // monitor thread.
  bool Observe(const std::vector<ShardLoad>& loads, TimePoint now);

  // Call after a migration completes (restarts patience, resize streaks
  // and cooldown).
  void ResetAfterRepartition(TimePoint now);

  // max/mean combined load of the last Observe round (1.0 = balanced).
  double imbalance() const { return imbalance_; }

  // Shard count the last Observe round recommended: 0 = keep the current
  // count, otherwise the new count (only ever non-zero on a round where
  // Observe returned true with a matured resize streak). Feed it to
  // TriggerRepartition / RepartitionLocked as-is.
  int recommended_shards() const { return recommended_shards_; }

 private:
  RepartitionOptions opts_;
  double imbalance_ = 1.0;
  int over_count_ = 0;
  int grow_streak_ = 0;
  int shrink_streak_ = 0;
  int recommended_shards_ = 0;
  bool have_last_ = false;
  TimePoint last_repartition_{};
};

// The imbalance reduction by itself (exposed for tests and introspection):
// max over shards of the weighted sum of mean-normalized components,
// divided by the mean of the same quantity. Returns 1.0 for fewer than two
// shards or all-zero loads.
double CombinedImbalance(const std::vector<ShardLoad>& loads,
                         const RepartitionOptions& opts,
                         int64_t* total_stabs = nullptr);

// Which cells of a rows x cols tiling an incremental migration rebuilds.
// `changed[r * cols + c]` marks cells that must be captured and rebuilt;
// everything else is carried. `y_cut_moves[j]` flags the boundary between
// rows j and j+1; `x_cut_moves[r][c]` the boundary between cells (r, c)
// and (r, c+1) — rows adjacent to a moving y-cut recut ALL their x-cuts.
// By construction the union of the changed cells' regions is identical
// before and after the re-cut (only flagged boundaries move, and only
// between their fixed neighbours), which is what makes carrying sound.
struct IncrementalPlan {
  bool feasible = false;
  int rows = 0;
  int cols = 0;
  std::vector<bool> changed;                   // rows * cols, by shard id
  std::vector<bool> y_cut_moves;               // rows - 1
  std::vector<std::vector<bool>> x_cut_moves;  // rows x (cols - 1)

  int num_changed() const {
    int n = 0;
    for (const bool c : changed) n += c ? 1 : 0;
    return n;
  }
};

// Plans an incremental re-cut of the current tiling from per-cell load
// (loads[r * cols + c], the same samples the monitor sees). Item-count
// deviations drive both y- and x-cut moves; stab-share deviations (only
// trusted past opts.min_queries) additionally dirty cells for x-cut
// moves — the re-cut is equi-depth in items, so a pure query skew
// without an item skew is left to the workload-aware slack of the cut
// placement. Infeasible (feasible == false) when the grid does not match,
// nothing is dirty, everything changes, or more than
// incremental_max_changed_fraction of the cells would change.
IncrementalPlan PlanIncrementalRecut(int rows, int cols,
                                     const std::vector<ShardLoad>& loads,
                                     const RepartitionOptions& opts);

}  // namespace wazi::serve

#endif  // WAZI_SERVE_REPARTITION_H_
