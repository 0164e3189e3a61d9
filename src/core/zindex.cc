#include "core/zindex.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/simd.h"

namespace wazi {
namespace {

// Criterion satisfaction: is `cell` irrelevant to `query` for this reason?
inline bool CellBelow(const Rect& cell, const Rect& q) {
  return cell.max_y < q.min_y;
}
inline bool CellAbove(const Rect& cell, const Rect& q) {
  return cell.min_y > q.max_y;
}
inline bool CellLeft(const Rect& cell, const Rect& q) {
  return cell.max_x < q.min_x;
}
inline bool CellRight(const Rect& cell, const Rect& q) {
  return cell.min_x > q.max_x;
}

// "Improvement" of each criterion (Alg. 4): the target must weaken the
// reason the source was skipped, otherwise any query that skipped the
// source also skips the target.
inline bool Improves(Criterion c, const Rect& target, const Rect& source) {
  switch (c) {
    case kBelow: return target.max_y > source.max_y;
    case kAbove: return target.min_y < source.min_y;
    case kLeft: return target.max_x > source.max_x;
    case kRight: return target.min_x < source.min_x;
  }
  return true;
}

Rect MbrOf(const Point* begin, const Point* end) {
  Rect r;
  for (const Point* p = begin; p != end; ++p) r.Expand(*p);
  return r;
}

}  // namespace

void ZIndex::StartBuild(const Rect& domain, int leaf_capacity) {
  nodes_.clear();
  dir_.Clear();
  store_.Clear();
  build_offsets_.clear();
  domain_ = domain;
  leaf_capacity_ = leaf_capacity;
  root_ = kInvalidNode;
  has_lookahead_ = false;
}

int32_t ZIndex::AddInternal(double sx, double sy, Ordering ord) {
  Node node;
  node.sx = sx;
  node.sy = sy;
  node.ord = ord;
  nodes_.push_back(node);
  return static_cast<int32_t>(nodes_.size() - 1);
}

int32_t ZIndex::AddLeaf(const Rect& cell, const Point* points, uint32_t begin,
                        uint32_t end) {
  const Rect mbr = MbrOf(points + begin, points + end);
  const int32_t leaf_id = dir_.Append(cell, mbr, /*page=*/-1);
  build_offsets_.push_back(begin);
  // Page ids are assigned in FinishBuild in the same order as leaves.
  dir_.leaf(leaf_id).page = leaf_id;
  Node node;
  node.leaf_id = leaf_id;
  nodes_.push_back(node);
  return static_cast<int32_t>(nodes_.size() - 1);
}

void ZIndex::SetChild(int32_t parent, Quadrant q, int32_t child) {
  nodes_[parent].child[static_cast<int>(q)] = child;
}

void ZIndex::FinishBuild(std::vector<Point> points) {
  build_offsets_.push_back(static_cast<uint32_t>(points.size()));
  store_.BulkLoad(std::move(points), build_offsets_);
  build_offsets_.clear();
}

void ZIndex::BuildLookahead() {
  // Alg. 4: iterate leaves tail-to-head; chase each criterion's chain
  // through the already-computed suffix.
  for (int32_t id = dir_.tail(); id != kInvalidLeaf; id = dir_.leaf(id).prev) {
    ComputeLookaheadFor(id);
  }
  has_lookahead_ = true;
}

void ZIndex::ComputeLookaheadFor(int32_t leaf_id) {
  LeafRec& leaf = dir_.leaf(leaf_id);
  for (int c = 0; c < kNumCriteria; ++c) {
    const Criterion crit = static_cast<Criterion>(c);
    int32_t t = leaf.next;
    while (t != kInvalidLeaf && !Improves(crit, dir_.leaf(t).cell, leaf.cell)) {
      t = dir_.leaf(t).lookahead[c];
    }
    leaf.lookahead[c] = t;
  }
}

int32_t ZIndex::FindLeafNode(double x, double y) const {
  int32_t id = root_;
  while (!nodes_[id].is_leaf()) {
    const Node& node = nodes_[id];
    // Algorithm 1: the quadrant bits identify the child; the stored
    // ordering only affects curve order, not routing.
    const int bitx = x > node.sx;
    const int bity = y > node.sy;
    id = node.child[(bity << 1) | bitx];
  }
  return id;
}

template <bool kUseSkipping, typename LeafFn>
void ZIndex::WalkRange(const Rect& query, QueryStats* stats,
                       LeafFn&& fn) const {
  if (root_ == kInvalidNode) return;
  const int32_t low = nodes_[FindLeafNode(query.min_x, query.min_y)].leaf_id;
  const int32_t high = nodes_[FindLeafNode(query.max_x, query.max_y)].leaf_id;
  const int64_t high_ord = dir_.leaf(high).ord;
  int32_t cur = low;
  while (cur != kInvalidLeaf) {
    const LeafRec& leaf = dir_.leaf(cur);
    if (leaf.ord > high_ord) break;
    ++stats->bbs_checked;
    const bool below = CellBelow(leaf.cell, query);
    const bool above = CellAbove(leaf.cell, query);
    const bool left = CellLeft(leaf.cell, query);
    const bool right = CellRight(leaf.cell, query);
    if (!(below || above || left || right)) {
      if (leaf.mbr.Overlaps(query)) fn(leaf);
      cur = leaf.next;
      continue;
    }
    if constexpr (kUseSkipping) {
      // Follow the satisfied look-ahead pointer that skips farthest;
      // kInvalidLeaf (end of list) is the farthest possible jump.
      int32_t best = leaf.next;
      bool at_end = (best == kInvalidLeaf);
      auto consider = [&](bool satisfied, int32_t target) {
        if (!satisfied || at_end) return;
        if (target == kInvalidLeaf) {
          at_end = true;
          best = kInvalidLeaf;
          return;
        }
        if (dir_.leaf(target).ord > dir_.leaf(best).ord) best = target;
      };
      consider(below, leaf.lookahead[kBelow]);
      consider(above, leaf.lookahead[kAbove]);
      consider(left, leaf.lookahead[kLeft]);
      consider(right, leaf.lookahead[kRight]);
      cur = best;
    } else {
      cur = leaf.next;
    }
  }
}

namespace {

// The leaf scan, vectorized (common/simd.h): filters one page span
// against the query rect and folds the kernel's work-shape counters into
// the query's stats. Byte-identical to the scalar loop it replaced.
void ScanSpan(const Span& span, const Rect& query, std::vector<Point>* out,
              QueryStats* stats) {
  ++stats->pages_scanned;
  const size_t n = static_cast<size_t>(span.end - span.begin);
  stats->points_scanned += static_cast<int64_t>(n);
  simd::KernelCounters kc;
  stats->results += static_cast<int64_t>(
      simd::FilterPointsInRect(span.begin, n, query, out, &kc));
  stats->simd_batches += kc.simd_batches;
  stats->scalar_tail += kc.scalar_tail;
}

}  // namespace

void ZIndex::RangeQueryNaive(const Rect& query, std::vector<Point>* out,
                             QueryStats* stats) const {
  WalkRange<false>(query, stats, [&](const LeafRec& leaf) {
    ScanSpan(store_.PageSpan(leaf.page), query, out, stats);
  });
}

void ZIndex::RangeQuerySkipping(const Rect& query, std::vector<Point>* out,
                                QueryStats* stats) const {
  WalkRange<true>(query, stats, [&](const LeafRec& leaf) {
    ScanSpan(store_.PageSpan(leaf.page), query, out, stats);
  });
}

void ZIndex::Project(const Rect& query, bool use_skipping, Projection* proj,
                     QueryStats* stats) const {
  auto collect = [&](const LeafRec& leaf) {
    const Span span = store_.PageSpan(leaf.page);
    if (!span.empty()) proj->push_back(span);
  };
  if (use_skipping) {
    WalkRange<true>(query, stats, collect);
  } else {
    WalkRange<false>(query, stats, collect);
  }
}

bool ZIndex::PointQuery(double x, double y, QueryStats* stats) const {
  if (root_ == kInvalidNode) return false;
  const Node& node = nodes_[FindLeafNode(x, y)];
  const LeafRec& leaf = dir_.leaf(node.leaf_id);
  ++stats->bbs_checked;
  const Span span = store_.PageSpan(leaf.page);
  ++stats->pages_scanned;
  const size_t n = static_cast<size_t>(span.end - span.begin);
  simd::KernelCounters kc;
  const size_t idx = simd::FindCoord(span.begin, n, x, y, &kc);
  // Early-exit semantics preserved: count points up to and including the
  // hit, or the whole page on a miss, exactly like the scalar loop.
  stats->points_scanned +=
      static_cast<int64_t>(idx == simd::kNotFound ? n : idx + 1);
  stats->simd_batches += kc.simd_batches;
  stats->scalar_tail += kc.scalar_tail;
  return idx != simd::kNotFound;
}

void ZIndex::Insert(const Point& p, bool maintain_lookahead) {
  const int32_t node_id = FindLeafNode(p.x, p.y);
  const int32_t leaf_id = nodes_[node_id].leaf_id;
  LeafRec& leaf = dir_.leaf(leaf_id);
  store_.Append(leaf.page, p);
  leaf.mbr.Expand(p);
  if (store_.PageSize(leaf.page) > static_cast<size_t>(leaf_capacity_)) {
    SplitLeaf(node_id, maintain_lookahead);
  }
}

void ZIndex::SplitLeaf(int32_t node_id, bool maintain_lookahead) {
  const int32_t leaf_id = nodes_[node_id].leaf_id;
  const Rect cell = dir_.leaf(leaf_id).cell;
  const int32_t page = dir_.leaf(leaf_id).page;

  // Copy the overflowing page out.
  std::vector<Point> pts;
  {
    const Span span = store_.PageSpan(page);
    pts.assign(span.begin, span.end);
  }

  // Split point: data medians along each axis (paper §6.7).
  const size_t mid = pts.size() / 2;
  std::nth_element(pts.begin(), pts.begin() + mid, pts.end(),
                   [](const Point& a, const Point& b) { return a.x < b.x; });
  const double sx = pts[mid].x;
  std::nth_element(pts.begin(), pts.begin() + mid, pts.end(),
                   [](const Point& a, const Point& b) { return a.y < b.y; });
  const double sy = pts[mid].y;

  // Partition into quadrants in curve order (abcd): A, B, C, D.
  std::vector<Point> parts[4];
  for (const Point& p : pts) {
    parts[static_cast<int>(QuadrantOf(p, sx, sy))].push_back(p);
  }
  // A median split of identical coordinates cannot separate the points
  // (everything routes to A with `>` comparisons); keep an oversize page.
  if (parts[0].size() == pts.size()) return;

  if (!dir_.HasOrdGapAfter(leaf_id, 8)) dir_.Renumber();

  // The existing leaf record becomes quadrant A (same list position), the
  // other three are inserted after it in curve order.
  int32_t ids[4] = {leaf_id, kInvalidLeaf, kInvalidLeaf, kInvalidLeaf};
  {
    LeafRec& a = dir_.leaf(leaf_id);
    a.cell = QuadrantRect(cell, sx, sy, Quadrant::kA);
    a.mbr = MbrOf(parts[0].data(), parts[0].data() + parts[0].size());
    store_.ReplacePage(page, parts[0]);
  }
  int32_t after = leaf_id;
  for (int q = 1; q < 4; ++q) {
    const Rect qcell = QuadrantRect(cell, sx, sy, static_cast<Quadrant>(q));
    const Rect mbr = MbrOf(parts[q].data(), parts[q].data() + parts[q].size());
    const int32_t new_page = store_.AllocatePage(parts[q]);
    after = dir_.InsertAfter(after, qcell, mbr, new_page);
    ids[q] = after;
  }

  // The leaf's tree node becomes internal with four fresh leaf nodes.
  for (int q = 0; q < 4; ++q) {
    Node child;
    child.leaf_id = ids[q];
    nodes_.push_back(child);
    nodes_[node_id].child[q] = static_cast<int32_t>(nodes_.size() - 1);
  }
  nodes_[node_id].leaf_id = kInvalidLeaf;
  nodes_[node_id].sx = sx;
  nodes_[node_id].sy = sy;
  nodes_[node_id].ord = Ordering::kAbcd;

  // Look-ahead repair (the "costly recompute" of §6.7): the new leaves'
  // pointers are rebuilt from the valid suffix, back to front. Pointers of
  // earlier leaves that referenced the split leaf now land on quadrant A,
  // which occupies the same list position with a smaller cell, so their
  // skip guarantees still hold (DESIGN.md §4.7).
  if (maintain_lookahead && has_lookahead_) {
    for (int q = 3; q >= 0; --q) ComputeLookaheadFor(ids[q]);
  }
}

bool ZIndex::Remove(double x, double y) {
  if (root_ == kInvalidNode) return false;
  const Node& node = nodes_[FindLeafNode(x, y)];
  // MBRs are not shrunk on removal: a too-large MBR only costs an extra
  // scan, never correctness.
  return store_.Remove(dir_.leaf(node.leaf_id).page, x, y);
}

size_t ZIndex::SizeBytes() const {
  return sizeof(*this) + nodes_.capacity() * sizeof(Node) + dir_.SizeBytes() +
         store_.SizeBytes();
}

}  // namespace wazi
