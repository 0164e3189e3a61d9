// Linear-scan reference index: the ground truth every other index is
// tested against.

#ifndef WAZI_INDEX_BRUTE_FORCE_H_
#define WAZI_INDEX_BRUTE_FORCE_H_

#include <memory>
#include <string>
#include <vector>

#include "index/spatial_index.h"

namespace wazi {

class BruteForceIndex : public SpatialIndex {
 public:
  std::string name() const override { return "brute"; }

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
    return std::make_unique<BruteForceIndex>(*this);
  }
  size_t SizeBytes() const override;

 private:
  std::vector<Point> points_;
};

}  // namespace wazi

#endif  // WAZI_INDEX_BRUTE_FORCE_H_
