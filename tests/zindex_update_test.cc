// Insert/delete behaviour of the Z-index variants: leaf splits, ord-gap
// maintenance, look-ahead repair, correctness after heavy updates, and
// the page-sharing clone the serve writer publishes.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "core/lookahead.h"
#include "core/wazi.h"
#include "serve/index_snapshot.h"
#include "tests/test_util.h"

namespace wazi {
namespace {

BuildOptions SmallOpts() {
  BuildOptions opts;
  opts.leaf_capacity = 32;
  opts.kappa = 8;
  return opts;
}

TEST(ZIndexUpdateTest, InsertThenFindAndRangeQuery) {
  const TestScenario s = MakeScenario(Region::kCaliNev, 4000, 200, 1e-3, 111);
  Wazi index;
  index.Build(s.data, s.workload, SmallOpts());

  Dataset augmented = s.data;
  const std::vector<Point> stream =
      GenerateInsertStream(s.data.bounds, 3000, 1000000, 112);
  for (const Point& p : stream) {
    ASSERT_TRUE(index.Insert(p));
    augmented.points.push_back(p);
  }
  EXPECT_EQ(index.zindex().num_points(), augmented.points.size());
  for (const Point& p : stream) ASSERT_TRUE(index.PointQuery(p));
  for (size_t qi = 0; qi < 100; ++qi) {
    const Rect& q = s.workload.queries[qi];
    std::vector<Point> got;
    index.RangeQuery(q, &got);
    ASSERT_EQ(SortedIds(got), TruthIds(augmented, q)) << "query " << qi;
  }
}

TEST(ZIndexUpdateTest, LookaheadStaysSafeAfterSplits) {
  const TestScenario s = MakeScenario(Region::kJapan, 3000, 200, 1e-3, 113);
  Wazi index;
  index.Build(s.data, s.workload, SmallOpts());
  const size_t leaves_before = index.zindex().num_leaves();
  const std::vector<Point> stream =
      GenerateInsertStream(s.data.bounds, 4000, 2000000, 114);
  for (const Point& p : stream) index.Insert(p);
  EXPECT_GT(index.zindex().num_leaves(), leaves_before);
  // Non-strict validation: correctness invariants (1) and (2) only.
  EXPECT_EQ(ValidateLookahead(index.zindex(), /*strict=*/false), "");
}

TEST(ZIndexUpdateTest, InsertsOutsideOriginalBounds) {
  const TestScenario s = MakeScenario(Region::kIberia, 2000, 100, 1e-3, 115);
  Wazi index;
  index.Build(s.data, s.workload, SmallOpts());
  Dataset augmented = s.data;
  Rng rng(116);
  for (int i = 0; i < 500; ++i) {
    const Point p{rng.Uniform(-1.0, 2.0), rng.Uniform(-1.0, 2.0),
                  3000000 + i};
    index.Insert(p);
    augmented.points.push_back(p);
  }
  // Queries spanning the enlarged domain must still be exact.
  for (int i = 0; i < 50; ++i) {
    const double x0 = rng.Uniform(-1.0, 1.5);
    const double y0 = rng.Uniform(-1.0, 1.5);
    const Rect q = Rect::Of(x0, y0, x0 + 0.5, y0 + 0.5);
    std::vector<Point> got;
    index.RangeQuery(q, &got);
    ASSERT_EQ(SortedIds(got), TruthIds(augmented, q));
  }
  EXPECT_EQ(ValidateLookahead(index.zindex(), /*strict=*/false), "");
}

TEST(ZIndexUpdateTest, DuplicateFloodKeepsOversizePage) {
  // Inserting many identical points cannot split (medians cannot
  // separate); the page must grow past capacity without recursing.
  const TestScenario s = MakeScenario(Region::kCaliNev, 1000, 100, 1e-3, 117);
  Wazi index;
  index.Build(s.data, s.workload, SmallOpts());
  Dataset augmented = s.data;
  for (int i = 0; i < 300; ++i) {
    const Point p{0.31415, 0.27182, 4000000 + i};
    index.Insert(p);
    augmented.points.push_back(p);
  }
  const Rect q = Rect::Of(0.31, 0.27, 0.32, 0.28);
  std::vector<Point> got;
  index.RangeQuery(q, &got);
  EXPECT_EQ(SortedIds(got), TruthIds(augmented, q));
}

TEST(ZIndexUpdateTest, RemoveThenQueriesExcludePoint) {
  const TestScenario s = MakeScenario(Region::kNewYork, 3000, 150, 1e-3, 118);
  Wazi index;
  index.Build(s.data, s.workload, SmallOpts());
  Dataset remaining = s.data;
  Rng rng(119);
  // Remove 500 random points.
  for (int i = 0; i < 500; ++i) {
    const size_t victim = rng.NextBelow(remaining.points.size());
    const Point p = remaining.points[victim];
    ASSERT_TRUE(index.Remove(p));
    remaining.points[victim] = remaining.points.back();
    remaining.points.pop_back();
  }
  for (size_t qi = 0; qi < 80; ++qi) {
    const Rect& q = s.workload.queries[qi];
    std::vector<Point> got;
    index.RangeQuery(q, &got);
    ASSERT_EQ(SortedIds(got), TruthIds(remaining, q));
  }
  EXPECT_FALSE(index.Remove(Point{55.0, 55.0, 0}));
}

TEST(ZIndexUpdateTest, BaseVariantInsertsWithoutLookahead) {
  const TestScenario s = MakeScenario(Region::kJapan, 2000, 100, 1e-3, 120);
  BaseZ index;
  index.Build(s.data, s.workload, SmallOpts());
  Dataset augmented = s.data;
  const std::vector<Point> stream =
      GenerateInsertStream(s.data.bounds, 2000, 5000000, 121);
  for (const Point& p : stream) {
    index.Insert(p);
    augmented.points.push_back(p);
  }
  for (size_t qi = 0; qi < 60; ++qi) {
    const Rect& q = s.workload.queries[qi];
    std::vector<Point> got;
    index.RangeQuery(q, &got);
    ASSERT_EQ(SortedIds(got), TruthIds(augmented, q));
  }
}

TEST(ZIndexUpdateTest, ManySplitsTriggerOrdMaintenance) {
  // Hammer one small region so the same leaves split repeatedly; ord gaps
  // must hold (or renumber transparently) and order stays strict.
  const TestScenario s = MakeScenario(Region::kCaliNev, 1000, 100, 1e-3, 122);
  Wazi index;
  index.Build(s.data, s.workload, SmallOpts());
  Rng rng(123);
  Dataset augmented = s.data;
  for (int i = 0; i < 6000; ++i) {
    const Point p{0.4 + 0.01 * rng.NextDouble(), 0.4 + 0.01 * rng.NextDouble(),
                  6000000 + i};
    index.Insert(p);
    augmented.points.push_back(p);
  }
  const LeafDir& dir = index.zindex().leaf_dir();
  int64_t prev = INT64_MIN;
  for (int32_t id : dir.InOrder()) {
    ASSERT_GT(dir.leaf(id).ord, prev);
    prev = dir.leaf(id).ord;
  }
  const Rect q = Rect::Of(0.395, 0.395, 0.415, 0.415);
  std::vector<Point> got;
  index.RangeQuery(q, &got);
  ASSERT_EQ(SortedIds(got), TruthIds(augmented, q));
}

// The serve writer's clone: updates that force leaf splits and look-ahead
// repair land on the clone only. The source keeps answering exactly as
// before, over pages the clone shares with it.
TEST(ZIndexUpdateTest, CloneUpdatesLeaveSourceExact) {
  TestScenario s = MakeScenario(Region::kCaliNev, 3000, 200, 1e-3, 124);
  Wazi index;
  index.Build(s.data, s.workload, SmallOpts());
  // Updated in place first, so the source owns pages of its own (not only
  // spans of its bulk-loaded base array) when it is cloned.
  for (const Point& p :
       GenerateInsertStream(s.data.bounds, 300, 6900000, 128)) {
    ASSERT_TRUE(index.Insert(p));
    s.data.points.push_back(p);
  }
  const size_t leaves_before = index.zindex().num_leaves();

  std::unique_ptr<SpatialIndex> clone = index.CloneForUpdate();
  ASSERT_NE(clone, nullptr);
  Dataset updated = s.data;
  Rng rng(125);
  for (int i = 0; i < 1500; ++i) {  // one hot corner: repeated splits
    const Point p{0.3 + 0.02 * rng.NextDouble(), 0.3 + 0.02 * rng.NextDouble(),
                  7000000 + i};
    ASSERT_TRUE(clone->Insert(p));
    updated.points.push_back(p);
  }
  const std::vector<Point> stream =
      GenerateInsertStream(s.data.bounds, 1000, 7100000, 126);
  for (const Point& p : stream) {
    ASSERT_TRUE(clone->Insert(p));
    updated.points.push_back(p);
  }
  for (size_t i = 0; i < 400; ++i) {
    const Point& p = s.data.points[i * 7];
    ASSERT_TRUE(clone->Remove(p));
  }
  std::vector<Point> kept;
  for (size_t i = 0; i < updated.points.size(); ++i) {
    if (i >= s.data.points.size() || i % 7 != 0 || i / 7 >= 400) {
      kept.push_back(updated.points[i]);
    }
  }
  updated.points = kept;

  const auto& z = dynamic_cast<const ZIndexVariant&>(*clone).zindex();
  EXPECT_GT(z.num_leaves(), leaves_before);
  EXPECT_EQ(z.num_points(), updated.points.size());
  EXPECT_EQ(ValidateLookahead(z, /*strict=*/false), "");
  EXPECT_EQ(index.zindex().num_leaves(), leaves_before);
  EXPECT_EQ(index.zindex().num_points(), s.data.points.size());
  EXPECT_EQ(ValidateLookahead(index.zindex(), /*strict=*/false), "");

  std::vector<Rect> queries(s.workload.queries.begin(),
                            s.workload.queries.end());
  queries.push_back(Rect::Of(0.29, 0.29, 0.33, 0.33));
  queries.push_back(s.data.bounds);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const Rect& q = queries[qi];
    std::vector<Point> old_hits, new_hits;
    index.RangeQuery(q, &old_hits);
    clone->RangeQuery(q, &new_hits);
    ASSERT_EQ(SortedIds(old_hits), TruthIds(s.data, q)) << "query " << qi;
    ASSERT_EQ(SortedIds(new_hits), TruthIds(updated, q)) << "query " << qi;
  }
  for (const Point& p : s.data.points) ASSERT_TRUE(index.PointQuery(p));
  for (const Point& p : stream) {
    ASSERT_FALSE(index.PointQuery(p));
    ASSERT_TRUE(clone->PointQuery(p));
  }
  for (size_t i = 0; i < 400; ++i) {
    ASSERT_FALSE(clone->PointQuery(s.data.points[i * 7]));
  }
}

// A publish is O(leaves) plus the pages its batch wrote: every other page
// of the new version is the previous version's storage, not a copy.
TEST(ZIndexUpdateTest, PublishCopiesOnlyPagesItsBatchWrote) {
  const TestScenario s = MakeScenario(Region::kJapan, 4000, 100, 1e-3, 127);
  BuildOptions opts = SmallOpts();
  opts.leaf_capacity = 256;  // room to insert without splitting
  serve::VersionedIndex versioned(
      [] { return std::unique_ptr<SpatialIndex>(new Wazi()); }, s.data,
      s.workload, opts);

  serve::SnapshotRef before = versioned.Acquire();
  const ZIndex& old_z =
      dynamic_cast<const ZIndexVariant&>(before->index()).zindex();
  const Point inserts[] = {Point{0.2, 0.7, 9000001}, Point{0.6, 0.3, 9000002},
                           Point{0.61, 0.31, 9000003}};
  const Point& removed = s.data.points[17];
  std::set<int32_t> written;
  for (const Point& p : inserts) {
    written.insert(old_z.leaf_dir()
                       .leaf(old_z.node(old_z.FindLeafNode(p.x, p.y)).leaf_id)
                       .page);
  }
  written.insert(
      old_z.leaf_dir()
          .leaf(old_z.node(old_z.FindLeafNode(removed.x, removed.y)).leaf_id)
          .page);

  versioned.ApplyBatch({serve::UpdateOp::Insert(inserts[0]),
                        serve::UpdateOp::Insert(inserts[1]),
                        serve::UpdateOp::Insert(inserts[2]),
                        serve::UpdateOp::Remove(removed)});
  serve::SnapshotRef after = versioned.Acquire();
  ASSERT_GT(after->version(), before->version());
  const ZIndex& new_z =
      dynamic_cast<const ZIndexVariant&>(after->index()).zindex();
  ASSERT_EQ(new_z.num_leaves(), old_z.num_leaves()) << "batch split a leaf";
  const PageStore& olds = old_z.page_store();
  const PageStore& news = new_z.page_store();
  ASSERT_EQ(news.num_pages(), olds.num_pages());
  int copied = 0;
  for (int32_t p = 0; p < olds.num_pages(); ++p) {
    const bool same = news.PageSpan(p).begin == olds.PageSpan(p).begin;
    EXPECT_EQ(same, written.count(p) == 0) << "page " << p;
    copied += same ? 0 : 1;
  }
  EXPECT_EQ(copied, static_cast<int>(written.size()));
  EXPECT_EQ(new_z.num_points(), old_z.num_points() + 2);
}

}  // namespace
}  // namespace wazi
