// Advanced features beyond plain range queries: kNN by range expansion,
// index persistence, and drift monitoring — the library's
// implementations of the paper's §6.3 remarks and §7 future work.
//
//   ./examples/advanced_features

#include <cstdio>

#include "core/drift_monitor.h"
#include "core/wazi.h"
#include "index/knn.h"
#include "workload/query_generator.h"
#include "workload/region_generator.h"

int main() {
  using namespace wazi;

  const Dataset data = GenerateRegion(Region::kJapan, 150000, 42);
  QueryGenOptions qopts;
  qopts.num_queries = 2000;
  qopts.selectivity = kSelectivityMid2;
  const Workload workload =
      GenerateCheckinWorkload(Region::kJapan, data.bounds, qopts);

  Wazi index;
  index.Build(data, workload, BuildOptions{});
  std::printf("built wazi over %zu Japan POIs\n\n", data.size());

  // --- kNN: the 10 POIs nearest to a Tokyo-like location. ---
  const Point tokyo{0.60, 0.52, 0};
  const KnnResult knn = KnnByRangeExpansion(index, tokyo, 10, data.bounds);
  std::printf("10-NN of (%.2f, %.2f) via %d expanding range queries; "
              "nearest id=%lld at (%.4f, %.4f)\n",
              tokyo.x, tokyo.y, knn.range_queries_issued,
              static_cast<long long>(knn.neighbors.front().id),
              knn.neighbors.front().x, knn.neighbors.front().y);

  // --- Persistence: save, reload, query again. ---
  const std::string path = "/tmp/wazi_advanced_example.idx";
  if (index.SaveToFile(path)) {
    Wazi reloaded;
    if (reloaded.LoadFromFile(path)) {
      std::vector<Point> hits;
      reloaded.RangeQuery(Rect::Of(0.59, 0.51, 0.61, 0.53), &hits);
      std::printf("persistence: reloaded index from %s, viewport query -> "
                  "%zu POIs\n",
                  path.c_str(), hits.size());
    }
  }

  // --- Drift monitoring: watch the workload change and react. ---
  DriftMonitorOptions mopts;
  mopts.calibration_queries = 400;
  mopts.patience = 100;
  mopts.degradation_factor = 1.3;
  DriftMonitor monitor(mopts);
  auto serve = [&](const Workload& w) {
    std::vector<Point> sink;
    for (const Rect& q : w.queries) {
      QueryStats qs;
      sink.clear();
      index.RangeQuery(q, &sink, &qs);
      monitor.Observe(qs.points_scanned, qs.results);
    }
  };
  serve(workload);
  std::printf("drift monitor after original workload: ratio %.2f, "
              "rebuild recommended: %s\n",
              monitor.drift_ratio(),
              monitor.rebuild_recommended() ? "yes" : "no");
  qopts.seed = 1234;  // the popular venues move
  const Workload drifted =
      GenerateCheckinWorkload(Region::kJapan, data.bounds, qopts);
  serve(drifted);
  serve(drifted);
  std::printf("after serving a differently-skewed workload: ratio %.2f, "
              "rebuild recommended: %s\n",
              monitor.drift_ratio(),
              monitor.rebuild_recommended() ? "yes" : "no");
  if (monitor.rebuild_recommended()) {
    index.Build(data, drifted, BuildOptions{});
    monitor.ResetAfterRebuild();
    std::printf("rebuilt on the drifted workload.\n");
  }
  return 0;
}
