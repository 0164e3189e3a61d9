#include "storage/page_store.h"

#include <algorithm>
#include <utility>

#include "common/simd.h"

namespace wazi {
namespace {

// Slots left unused at the front of an owned page buffer. make_shared puts
// the reference counts in front of the buffer; 48 bytes of padding after
// them keep the points off the counts' cache line, so the writer's count
// updates on every copy of the store never evict a reader's points.
constexpr size_t kPagePad = 2;

}  // namespace

PageStore::PageStore(const PageStore& other)
    : base_(other.base_),
      pages_(other.pages_),
      num_points_(other.num_points_) {
  for (PageRec& rec : pages_) rec.writable = nullptr;
}

PageStore& PageStore::operator=(const PageStore& other) {
  if (this != &other) *this = PageStore(other);
  return *this;
}

void PageStore::BulkLoad(std::vector<Point> points,
                         const std::vector<uint32_t>& page_offsets) {
  num_points_ = points.size();
  base_ = std::make_shared<const std::vector<Point>>(std::move(points));
  pages_.clear();
  if (page_offsets.empty()) return;
  pages_.reserve(page_offsets.size() - 1);
  for (size_t i = 0; i + 1 < page_offsets.size(); ++i) {
    PageRec rec;
    rec.begin = base_->data() + page_offsets[i];
    rec.len = page_offsets[i + 1] - page_offsets[i];
    pages_.push_back(std::move(rec));
  }
}

void PageStore::Clear() {
  base_.reset();
  pages_.clear();
  num_points_ = 0;
}

void PageStore::Own(PageRec& rec, const Point* pts, size_t n,
                    size_t capacity) {
  std::shared_ptr<Point[]> page =
      std::make_shared_for_overwrite<Point[]>(kPagePad + capacity);
  rec.writable = page.get() + kPagePad;
  std::copy(pts, pts + n, rec.writable);
  rec.owned = std::move(page);
  rec.begin = rec.writable;
  rec.len = static_cast<uint32_t>(n);
  rec.capacity = static_cast<uint32_t>(capacity);
}

void PageStore::Reserve(PageRec& rec, size_t extra) {
  if (rec.writable != nullptr && rec.len + extra <= rec.capacity) return;
  // A shared page is copied with one slot to spare (the usual next write
  // is one Append); a full owned page doubles.
  const size_t n = rec.len;
  Own(rec, rec.begin, n,
      rec.writable != nullptr ? 2 * n + extra : n + extra + 1);
}

void PageStore::Append(int32_t page_id, const Point& p) {
  PageRec& rec = pages_[page_id];
  Reserve(rec, 1);
  rec.writable[rec.len++] = p;
  ++num_points_;
}

bool PageStore::Remove(int32_t page_id, double x, double y) {
  PageRec& rec = pages_[page_id];
  const size_t i = simd::FindCoord(rec.begin, rec.len, x, y,
                                   /*counters=*/nullptr);
  if (i == simd::kNotFound) return false;
  Reserve(rec, 0);
  rec.writable[i] = rec.writable[rec.len - 1];
  --rec.len;
  --num_points_;
  return true;
}

int32_t PageStore::AllocatePage(const std::vector<Point>& pts) {
  num_points_ += pts.size();
  pages_.emplace_back();
  Own(pages_.back(), pts.data(), pts.size(), pts.size() + 1);
  return static_cast<int32_t>(pages_.size() - 1);
}

void PageStore::ReplacePage(int32_t page_id,
                            const std::vector<Point>& pts) {
  PageRec& rec = pages_[page_id];
  num_points_ -= rec.len;
  num_points_ += pts.size();
  Own(rec, pts.data(), pts.size(), pts.size() + 1);
}

size_t PageStore::SizeBytes() const {
  size_t bytes = sizeof(*this);
  if (base_ != nullptr) bytes += base_->capacity() * sizeof(Point);
  bytes += pages_.capacity() * sizeof(PageRec);
  for (const PageRec& rec : pages_) {
    if (rec.owned != nullptr) bytes += rec.capacity * sizeof(Point);
  }
  return bytes;
}

}  // namespace wazi
