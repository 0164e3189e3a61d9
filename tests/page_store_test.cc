#include "storage/page_store.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "storage/leaf_dir.h"

namespace wazi {
namespace {

std::vector<Point> MakePoints(int n) {
  std::vector<Point> pts;
  for (int i = 0; i < n; ++i) {
    pts.push_back(Point{0.1 * i, 0.2 * i, i});
  }
  return pts;
}

TEST(PageStoreTest, BulkLoadSpans) {
  PageStore store;
  store.BulkLoad(MakePoints(10), {0, 4, 7, 10});
  ASSERT_EQ(store.num_pages(), 3);
  EXPECT_EQ(store.num_points(), 10u);
  EXPECT_EQ(store.PageSize(0), 4u);
  EXPECT_EQ(store.PageSize(1), 3u);
  EXPECT_EQ(store.PageSize(2), 3u);
  const Span s = store.PageSpan(1);
  EXPECT_EQ(s.begin->id, 4);
  EXPECT_EQ((s.end - 1)->id, 6);
}

TEST(PageStoreTest, AppendCopiesOnWrite) {
  PageStore store;
  store.BulkLoad(MakePoints(6), {0, 3, 6});
  store.Append(0, Point{9, 9, 100});
  EXPECT_EQ(store.PageSize(0), 4u);
  EXPECT_EQ(store.num_points(), 7u);
  // Page 1 still backed by the base array, untouched.
  EXPECT_EQ(store.PageSpan(1).begin->id, 3);
  // Appended point visible in page 0's span.
  const Span s = store.PageSpan(0);
  EXPECT_EQ((s.end - 1)->id, 100);
}

TEST(PageStoreTest, RemoveFindsByCoordinates) {
  PageStore store;
  store.BulkLoad(MakePoints(5), {0, 5});
  EXPECT_TRUE(store.Remove(0, 0.2, 0.4));  // point id 2
  EXPECT_EQ(store.PageSize(0), 4u);
  EXPECT_FALSE(store.Remove(0, 0.2, 0.4));
  EXPECT_EQ(store.num_points(), 4u);
}

TEST(PageStoreTest, AllocateAndReplace) {
  PageStore store;
  store.BulkLoad(MakePoints(4), {0, 4});
  const int32_t p = store.AllocatePage({Point{1, 1, 50}});
  EXPECT_EQ(store.num_pages(), 2);
  EXPECT_EQ(store.PageSize(p), 1u);
  EXPECT_EQ(store.num_points(), 5u);
  store.ReplacePage(p, {Point{2, 2, 60}, Point{3, 3, 61}});
  EXPECT_EQ(store.PageSize(p), 2u);
  EXPECT_EQ(store.num_points(), 6u);
  store.ReplacePage(0, {});
  EXPECT_EQ(store.PageSize(0), 0u);
  EXPECT_EQ(store.num_points(), 2u);
}

// A copy shares every page's storage until it writes that page; writes
// through the copy never reach the source.
TEST(PageStoreTest, CopySharesPagesUntilWritten) {
  PageStore src;
  src.BulkLoad(MakePoints(9), {0, 3, 6, 9});
  src.Append(2, Point{7, 7, 70});  // page 2 now owned by src
  const int32_t extra = src.AllocatePage({Point{8, 8, 80}});

  PageStore copy = src;
  ASSERT_EQ(copy.num_pages(), src.num_pages());
  for (int32_t p = 0; p < src.num_pages(); ++p) {
    EXPECT_EQ(copy.PageSpan(p).begin, src.PageSpan(p).begin) << p;
    EXPECT_EQ(copy.PageSpan(p).end, src.PageSpan(p).end) << p;
  }

  std::vector<Span> before;
  for (int32_t p = 0; p < src.num_pages(); ++p) {
    before.push_back(src.PageSpan(p));
  }
  const size_t src_points = src.num_points();

  copy.Append(0, Point{9, 9, 90});         // base-backed page
  EXPECT_TRUE(copy.Remove(2, 7, 7));       // page src owns
  copy.ReplacePage(extra, {Point{1, 2, 81}, Point{3, 4, 82}});
  EXPECT_FALSE(copy.Remove(1, 42, 42));    // a miss copies nothing

  // Written pages moved to storage the copy owns; the rest still share.
  EXPECT_NE(copy.PageSpan(0).begin, before[0].begin);
  EXPECT_NE(copy.PageSpan(2).begin, before[2].begin);
  EXPECT_NE(copy.PageSpan(extra).begin, before[extra].begin);
  EXPECT_EQ(copy.PageSpan(1).begin, before[1].begin);
  EXPECT_EQ(copy.PageSize(0), 4u);
  EXPECT_EQ(copy.PageSize(2), 3u);
  EXPECT_EQ(copy.num_points(), src_points + 1);  // +1 -1 +1

  // The source is byte-for-byte what it was.
  EXPECT_EQ(src.num_points(), src_points);
  for (int32_t p = 0; p < src.num_pages(); ++p) {
    EXPECT_EQ(src.PageSpan(p).begin, before[p].begin) << p;
    EXPECT_EQ(src.PageSpan(p).end, before[p].end) << p;
  }
  EXPECT_EQ((src.PageSpan(2).end - 1)->id, 70);
  EXPECT_EQ(src.PageSpan(extra).begin->id, 80);

  // Later writes to a page the copy owns land in place.
  const Point* owned = copy.PageSpan(0).begin;
  EXPECT_TRUE(copy.Remove(0, 9, 9));
  EXPECT_EQ(copy.PageSpan(0).begin, owned);

  // The source still writes its own page in place, unseen by the copy.
  const Point* src_page = src.PageSpan(2).begin;
  src.Append(2, Point{6, 6, 71});
  EXPECT_EQ(src.PageSpan(2).begin, src_page);
  EXPECT_EQ(copy.PageSize(2), 3u);
}

// Shared storage outlives the store it came from.
TEST(PageStoreTest, CopyOutlivesSource) {
  auto src = std::make_unique<PageStore>();
  src->BulkLoad(MakePoints(6), {0, 3, 6});
  src->Append(1, Point{5, 5, 50});
  PageStore copy = *src;
  src.reset();
  EXPECT_EQ(copy.PageSpan(0).begin->id, 0);
  EXPECT_EQ((copy.PageSpan(1).end - 1)->id, 50);
  EXPECT_EQ(copy.num_points(), 7u);
}

TEST(LeafDirTest, AppendLinksInOrder) {
  LeafDir dir;
  const Rect cell = Rect::Of(0, 0, 1, 1);
  const int32_t a = dir.Append(cell, cell, 0);
  const int32_t b = dir.Append(cell, cell, 1);
  const int32_t c = dir.Append(cell, cell, 2);
  EXPECT_EQ(dir.head(), a);
  EXPECT_EQ(dir.tail(), c);
  EXPECT_EQ(dir.leaf(a).next, b);
  EXPECT_EQ(dir.leaf(b).prev, a);
  EXPECT_LT(dir.leaf(a).ord, dir.leaf(b).ord);
  EXPECT_LT(dir.leaf(b).ord, dir.leaf(c).ord);
  EXPECT_EQ(dir.InOrder(), (std::vector<int32_t>{a, b, c}));
}

TEST(LeafDirTest, InsertAfterMaintainsOrderAndOrds) {
  LeafDir dir;
  const Rect cell = Rect::Of(0, 0, 1, 1);
  const int32_t a = dir.Append(cell, cell, 0);
  const int32_t c = dir.Append(cell, cell, 1);
  const int32_t b = dir.InsertAfter(a, cell, cell, 2);
  EXPECT_EQ(dir.InOrder(), (std::vector<int32_t>{a, b, c}));
  EXPECT_GT(dir.leaf(b).ord, dir.leaf(a).ord);
  EXPECT_LT(dir.leaf(b).ord, dir.leaf(c).ord);
  // Tail insert.
  const int32_t d = dir.InsertAfter(c, cell, cell, 3);
  EXPECT_EQ(dir.tail(), d);
  EXPECT_GT(dir.leaf(d).ord, dir.leaf(c).ord);
}

TEST(LeafDirTest, OrdGapAndRenumber) {
  LeafDir dir;
  const Rect cell = Rect::Of(0, 0, 1, 1);
  const int32_t a = dir.Append(cell, cell, 0);
  dir.Append(cell, cell, 1);
  // Exhaust the gap between a and its successor.
  int32_t cur = a;
  int inserted = 0;
  while (dir.HasOrdGapAfter(cur, 2)) {
    cur = dir.InsertAfter(cur, cell, cell, 10 + inserted);
    if (++inserted > 64) break;
  }
  EXPECT_GT(inserted, 10);  // gap of 2^20 allows ~20 halvings
  const std::vector<int32_t> order_before = dir.InOrder();
  dir.Renumber();
  EXPECT_EQ(dir.InOrder(), order_before);
  int64_t prev = 0;
  for (int32_t id : dir.InOrder()) {
    EXPECT_EQ(dir.leaf(id).ord, prev + LeafDir::kOrdGap);
    prev = dir.leaf(id).ord;
  }
}

}  // namespace
}  // namespace wazi
