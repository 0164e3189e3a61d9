// Update support across the index family (Fig. 11 uses WaZI, CUR and
// Flood): insert + query correctness, and graceful refusal elsewhere.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "index/spatial_index.h"
#include "tests/test_util.h"

namespace wazi {
namespace {

class UpdatableIndexTest : public ::testing::TestWithParam<std::string> {};

TEST_P(UpdatableIndexTest, InsertStreamKeepsQueriesExact) {
  const std::string name = GetParam();
  const TestScenario s = MakeScenario(Region::kCaliNev, 5000, 200, 1e-3, 131);
  auto index = MakeIndex(name);
  BuildOptions opts;
  opts.leaf_capacity = 64;
  index->Build(s.data, s.workload, opts);

  Dataset augmented = s.data;
  const std::vector<Point> stream =
      GenerateInsertStream(s.data.bounds, 2500, 1000000, 132);
  for (const Point& p : stream) {
    ASSERT_TRUE(index->Insert(p)) << name;
    augmented.points.push_back(p);
  }
  for (size_t qi = 0; qi < 80; ++qi) {
    const Rect& q = s.workload.queries[qi];
    std::vector<Point> got;
    index->RangeQuery(q, &got);
    ASSERT_EQ(SortedIds(got), TruthIds(augmented, q)) << name;
  }
  for (size_t i = 0; i < stream.size(); i += 10) {
    ASSERT_TRUE(index->PointQuery(stream[i])) << name;
  }
}

TEST_P(UpdatableIndexTest, RemoveUndoesInsert) {
  const std::string name = GetParam();
  const TestScenario s = MakeScenario(Region::kJapan, 3000, 150, 1e-3, 133);
  auto index = MakeIndex(name);
  BuildOptions opts;
  opts.leaf_capacity = 64;
  index->Build(s.data, s.workload, opts);
  const Point p{0.123456, 0.654321, 77777};
  ASSERT_TRUE(index->Insert(p));
  ASSERT_TRUE(index->PointQuery(p));
  ASSERT_TRUE(index->Remove(p));
  EXPECT_FALSE(index->PointQuery(p));
  EXPECT_FALSE(index->Remove(p));
}

// CloneForUpdate: a clone takes updates without changing its source.
// The R-trees have no hook (the serve writer rebuilds them).
TEST_P(UpdatableIndexTest, CloneTakesUpdatesSourceStaysPut) {
  const std::string name = GetParam();
  const TestScenario s = MakeScenario(Region::kIberia, 3000, 120, 1e-3, 135);
  auto index = MakeIndex(name);
  BuildOptions opts;
  opts.leaf_capacity = 64;
  index->Build(s.data, s.workload, opts);
  std::unique_ptr<SpatialIndex> clone = index->CloneForUpdate();
  if (name == "str" || name == "cur" || name == "hrr") {
    EXPECT_EQ(clone, nullptr) << name;
    return;
  }
  ASSERT_NE(clone, nullptr) << name;
  EXPECT_EQ(clone->name(), index->name());

  Dataset updated = s.data;
  const std::vector<Point> stream =
      GenerateInsertStream(s.data.bounds, 1500, 3000000, 136);
  for (const Point& p : stream) {
    ASSERT_TRUE(clone->Insert(p)) << name;
    updated.points.push_back(p);
  }
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(clone->Remove(updated.points[static_cast<size_t>(i)]))
        << name;
  }
  updated.points.erase(updated.points.begin(), updated.points.begin() + 200);
  for (size_t qi = 0; qi < 60; ++qi) {
    const Rect& q = s.workload.queries[qi];
    std::vector<Point> old_hits, new_hits;
    index->RangeQuery(q, &old_hits);
    clone->RangeQuery(q, &new_hits);
    ASSERT_EQ(SortedIds(old_hits), TruthIds(s.data, q)) << name << " " << qi;
    ASSERT_EQ(SortedIds(new_hits), TruthIds(updated, q)) << name << " " << qi;
  }
}

INSTANTIATE_TEST_SUITE_P(
    UpdatableIndexes, UpdatableIndexTest,
    ::testing::Values("wazi", "base", "str", "cur", "flood", "hrr", "brute"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string clean = info.param;
      for (char& c : clean) {
        if (c == '-' || c == '+') c = '_';
      }
      return clean;
    });

TEST(NonUpdatableIndexTest, RefuseInsertGracefully) {
  const TestScenario s = MakeScenario(Region::kIberia, 2000, 100, 1e-3, 134);
  for (const char* name : {"quasii", "qd-gr", "quilts", "zpgm", "rsmi"}) {
    auto index = MakeIndex(name);
    BuildOptions opts;
    opts.leaf_capacity = 64;
    index->Build(s.data, s.workload, opts);
    EXPECT_FALSE(index->Insert(Point{0.5, 0.5, 999999})) << name;
  }
}

}  // namespace
}  // namespace wazi
