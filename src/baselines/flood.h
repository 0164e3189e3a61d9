// Simplified 2-D Flood (Nathan et al., SIGMOD 2020), per the paper's §6.1:
// an equi-depth column grid over one dimension with points sorted by the
// other dimension inside each column. The layout (orientation and column
// count) is chosen by executing a sub-sample of the query workload against
// candidate layouts built on a data sample and keeping the fastest.

#ifndef WAZI_BASELINES_FLOOD_H_
#define WAZI_BASELINES_FLOOD_H_

#include <memory>
#include <string>
#include <vector>

#include "index/spatial_index.h"

namespace wazi {

class Flood : public SpatialIndex {
 public:
  std::string name() const override { return "flood"; }

  void Build(const Dataset& data, const Workload& workload,
             const BuildOptions& opts) override;
  void DoRangeQuery(const Rect& query, std::vector<Point>* out,
                  QueryStats* stats) const override;
  void DoProject(const Rect& query, Projection* proj,
               QueryStats* stats) const override;
  bool DoPointQuery(const Point& p, QueryStats* stats) const override;
  bool Insert(const Point& p) override;
  bool Remove(const Point& p) override;
  std::unique_ptr<SpatialIndex> CloneForUpdate() const override {
    return std::make_unique<Flood>(*this);
  }
  size_t SizeBytes() const override;

  // Chosen layout, for tests/diagnostics.
  bool partition_x() const { return partition_x_; }
  size_t num_columns() const { return cols_.size(); }

 private:
  struct Candidate {
    bool partition_x;
    size_t num_cols;
  };

  void BuildLayout(const std::vector<Point>& points, bool partition_x,
                   size_t num_cols);
  // Total time (ns) to run `queries` against the current layout.
  int64_t MeasureQueries(const std::vector<Rect>& queries) const;

  size_t ColumnOf(double v) const;

  bool partition_x_ = true;
  std::vector<double> col_bounds_;        // num_cols - 1 internal boundaries
  std::vector<std::vector<Point>> cols_;  // each sorted by the sort dim
};

}  // namespace wazi

#endif  // WAZI_BASELINES_FLOOD_H_
