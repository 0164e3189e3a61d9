// The benchmark's four workloads: everything one run serves and sends,
// generated from the run's seed before set-up begins. Why each workload
// exists is recorded in README.md and BENCHMARK.json.

#ifndef WAZI_PERFBENCH_WORKLOADS_H_
#define WAZI_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/serve_loop.h"
#include "workload/dataset.h"

namespace wazi::perfbench {

// How a range result is checked while writes run concurrently.
enum class RangeCheck {
  kExact,    // no write lands in a read rectangle: result == base result
  kAtLeast,  // writes only insert: result holds at least the base points
  kInside,   // points move everywhere: every hit lies in the rectangle
};

// The base data's answer to one rectangle.
struct Expected {
  int64_t count = 0;
  uint64_t checksum = 0;  // HitChecksum of the hits
};

struct RectSet {
  std::vector<Rect> rects;
  std::vector<Expected> expected;  // parallel to rects
};

struct WorkloadSpec {
  std::string name;
  Dataset data;             // served from set-up on
  Workload build_workload;  // what WaZI is built against
  serve::ServeOptions options;
  // Rectangles the range reads draw from, one set per segment of the
  // window (rebalance has four; the others one).
  std::vector<RectSet> segments;
  RangeCheck check = RangeCheck::kExact;
  // > 0: 90% of range reads re-ask one of the first hot_rects rectangles.
  size_t hot_rects = 0;
  // Stored points the point reads look up; none of them ever moves.
  std::vector<Point> point_reads;
  // Clients connect over loopback TCP and send this share of writes.
  bool wire = false;
  int wire_write_pct = 0;
  // churn: open-loop position updates per second. Object i's k-th
  // position is positions[k % positions.size()][i]; only objects with an
  // even id move.
  double update_rate = 0.0;
  std::vector<std::vector<Point>> positions;
  // rebalance: open-loop inserts per second into the segment's region,
  // and the sentinel grid that must stay visible throughout.
  double insert_rate = 0.0;
  std::vector<Rect> insert_regions;  // parallel to segments
  std::vector<Point> sentinels;
  // Where writes that no read rectangle may hold go: a band above the
  // data's domain (probe points, wire_hot's writes).
  Rect outside;
};

// Generates the workload: its data and build rectangles (the same on every
// run) and, from `seed`, everything its clients send. False when `name` is
// not a workload.
bool MakeWorkload(const std::string& name, uint64_t seed, WorkloadSpec* out);

// Order-independent digest of a result's ids.
uint64_t HitChecksum(const std::vector<Point>& hits);

// True when `hits` is a correct answer to segment `seg`'s rectangle `i`
// under the workload's check.
bool CheckRange(const WorkloadSpec& spec, int seg, size_t i,
                const std::vector<Point>& hits);

// Id blocks of the points the benchmark inserts (the base data uses
// 0..n-1), so no two writers ever collide.
inline constexpr int64_t kProbeIdBase = int64_t{1} << 42;
inline constexpr int64_t kWireIdBase = int64_t{1} << 43;
inline constexpr int64_t kInsertIdBase = int64_t{1} << 44;
inline constexpr int64_t kSentinelIdBase = int64_t{1} << 45;
inline constexpr int64_t kApplyIdBase = int64_t{1} << 46;

}  // namespace wazi::perfbench

#endif  // WAZI_PERFBENCH_WORKLOADS_H_
