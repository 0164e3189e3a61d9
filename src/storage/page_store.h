// Clustered page storage for leaf data.
//
// Bulk-loaded indexes keep all points in one contiguous array ordered by
// the index's leaf order (the paper's "clustered" assumption: consecutive
// leaves live in consecutive pages), with each page a span of that array.
// Updates copy a page out of the base array into owned storage on first
// write, so bulk scan locality is preserved for read-mostly workloads
// while inserts/deletes stay cheap and local.
//
// Copying a store shares storage instead of duplicating it: the copy
// holds the same base array and the same owned pages, every one of them
// marked shared, so a copy costs O(pages), not O(points). The first
// Append/Remove/ReplacePage on a shared page gives the copy a page of its
// own; later writes to that page land in place. The source is never
// written through a copy, so a published (read-only) store can be copied
// while readers scan it. Whether a page may be written in place is
// recorded per page at copy time, never inferred from reference counts.

#ifndef WAZI_STORAGE_PAGE_STORE_H_
#define WAZI_STORAGE_PAGE_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/geometry.h"

namespace wazi {

// A borrowed, read-only run of points.
struct Span {
  const Point* begin = nullptr;
  const Point* end = nullptr;

  size_t size() const { return static_cast<size_t>(end - begin); }
  bool empty() const { return begin == end; }
};

class PageStore {
 public:
  PageStore() = default;
  // Page-sharing copy (see the header comment): every page of `other` is
  // shared, none is writable in place by the copy.
  PageStore(const PageStore& other);
  PageStore& operator=(const PageStore& other);
  PageStore(PageStore&&) noexcept = default;
  PageStore& operator=(PageStore&&) noexcept = default;

  // Adopts `points` (already in final clustered order). `page_offsets`
  // holds each page's start index plus a final end-of-data sentinel, so
  // page i spans [page_offsets[i], page_offsets[i+1]).
  void BulkLoad(std::vector<Point> points,
                const std::vector<uint32_t>& page_offsets);

  // Creates an empty store (pages added via AllocatePage).
  void Clear();

  int32_t num_pages() const { return static_cast<int32_t>(pages_.size()); }
  size_t num_points() const { return num_points_; }

  Span PageSpan(int32_t page_id) const {
    const PageRec& rec = pages_[page_id];
    return Span{rec.begin, rec.begin + rec.len};
  }
  size_t PageSize(int32_t page_id) const { return pages_[page_id].len; }

  // Appends a point to a page (copy-on-write from shared storage).
  void Append(int32_t page_id, const Point& p);

  // Removes one point with matching coordinates; false if absent. A miss
  // copies nothing.
  bool Remove(int32_t page_id, double x, double y);

  // New page holding a copy of `pts`; returns its id.
  int32_t AllocatePage(const std::vector<Point>& pts);

  // Replaces a page's contents with a copy of `pts` (used by leaf splits).
  void ReplacePage(int32_t page_id, const std::vector<Point>& pts);

  // Bytes this store references, shared storage included.
  size_t SizeBytes() const;

 private:
  struct PageRec {
    // The page's points: a span of base_ or of `owned`. Kept in the
    // record so a read is one lookup, whoever owns the storage.
    const Point* begin = nullptr;
    uint32_t len = 0;
    uint32_t capacity = 0;  // of `writable`
    // Non-null iff this store allocated `owned` and no copy of the store
    // has been made since: the only pages written in place.
    Point* writable = nullptr;
    // The page's own buffer, or null when the page is a span of base_.
    std::shared_ptr<const Point[]> owned;
  };

  // Gives the page a buffer of its own, `capacity` slots holding the `n`
  // points at `pts`, writable in place.
  static void Own(PageRec& rec, const Point* pts, size_t n, size_t capacity);
  // Makes the page writable in place with room for `extra` more points,
  // copying it first if it is shared or full.
  static void Reserve(PageRec& rec, size_t extra);

  std::shared_ptr<const std::vector<Point>> base_;
  std::vector<PageRec> pages_;
  size_t num_points_ = 0;
};

}  // namespace wazi

#endif  // WAZI_STORAGE_PAGE_STORE_H_
