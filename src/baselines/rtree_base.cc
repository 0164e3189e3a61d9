#include "baselines/rtree_base.h"

#include <algorithm>

namespace wazi {
namespace {

Rect MbrOfSpan(const Span& span) {
  Rect r;
  for (const Point* p = span.begin; p != span.end; ++p) r.Expand(*p);
  return r;
}

double Enlargement(const Rect& mbr, const Point& p) {
  Rect grown = mbr;
  grown.Expand(p);
  return grown.Area() - mbr.Area();
}

}  // namespace

void RTree::BulkLoad(std::vector<Point> clustered,
                     const std::vector<uint32_t>& leaf_offsets,
                     const Options& opts) {
  opts_ = opts;
  nodes_.clear();
  store_.BulkLoad(std::move(clustered), leaf_offsets);

  std::vector<int32_t> level;
  const int32_t num_leaves = store_.num_pages();
  level.reserve(num_leaves);
  for (int32_t i = 0; i < num_leaves; ++i) {
    Node node;
    node.page = i;
    node.mbr = MbrOfSpan(store_.PageSpan(i));
    nodes_.push_back(node);
    level.push_back(static_cast<int32_t>(nodes_.size() - 1));
  }
  if (level.empty()) {
    Node empty;
    empty.page = store_.AllocatePage({});
    nodes_.push_back(empty);
    root_ = 0;
    return;
  }
  while (level.size() > 1) {
    std::vector<int32_t> parents;
    for (size_t i = 0; i < level.size(); i += opts_.fanout) {
      Node parent;
      const size_t end = std::min(level.size(), i + opts_.fanout);
      for (size_t j = i; j < end; ++j) {
        parent.children.push_back(level[j]);
        parent.mbr.Expand(nodes_[level[j]].mbr);
      }
      nodes_.push_back(std::move(parent));
      parents.push_back(static_cast<int32_t>(nodes_.size() - 1));
    }
    level = std::move(parents);
  }
  root_ = level[0];
}

template <typename LeafFn>
void RTree::Walk(const Rect& query, QueryStats* stats, LeafFn&& fn) const {
  if (root_ < 0) return;
  // Iterative DFS; stack of node ids whose MBR overlaps the query.
  std::vector<int32_t> stack;
  ++stats->bbs_checked;
  if (!nodes_[root_].mbr.Overlaps(query)) return;
  stack.push_back(root_);
  while (!stack.empty()) {
    const int32_t id = stack.back();
    stack.pop_back();
    const Node& node = nodes_[id];
    if (node.is_leaf()) {
      fn(node);
      continue;
    }
    for (const int32_t child : node.children) {
      ++stats->bbs_checked;
      if (nodes_[child].mbr.Overlaps(query)) stack.push_back(child);
    }
  }
}

void RTree::RangeQuery(const Rect& query, std::vector<Point>* out,
                       QueryStats* stats) const {
  Walk(query, stats, [&](const Node& leaf) {
    const Span span = store_.PageSpan(leaf.page);
    ++stats->pages_scanned;
    for (const Point* p = span.begin; p != span.end; ++p) {
      ++stats->points_scanned;
      if (query.Contains(*p)) {
        out->push_back(*p);
        ++stats->results;
      }
    }
  });
}

void RTree::Project(const Rect& query, Projection* proj,
                    QueryStats* stats) const {
  Walk(query, stats, [&](const Node& leaf) {
    const Span span = store_.PageSpan(leaf.page);
    if (!span.empty()) proj->push_back(span);
  });
}

bool RTree::PointQuery(double x, double y, QueryStats* stats) const {
  if (root_ < 0) return false;
  std::vector<int32_t> stack = {root_};
  const Point p{x, y, 0};
  while (!stack.empty()) {
    const int32_t id = stack.back();
    stack.pop_back();
    const Node& node = nodes_[id];
    ++stats->bbs_checked;
    if (!node.mbr.Contains(p)) continue;
    if (node.is_leaf()) {
      const Span span = store_.PageSpan(node.page);
      ++stats->pages_scanned;
      for (const Point* q = span.begin; q != span.end; ++q) {
        ++stats->points_scanned;
        if (q->x == x && q->y == y) return true;
      }
      continue;
    }
    for (const int32_t child : node.children) stack.push_back(child);
  }
  return false;
}

void RTree::Insert(const Point& p) {
  if (root_ < 0) {
    Node leaf;
    leaf.page = store_.AllocatePage({p});
    leaf.mbr.Expand(p);
    nodes_.push_back(leaf);
    root_ = static_cast<int32_t>(nodes_.size() - 1);
    return;
  }
  const int32_t sibling = InsertRec(root_, p);
  if (sibling >= 0) {
    Node new_root;
    new_root.children = {root_, sibling};
    new_root.mbr = nodes_[root_].mbr;
    new_root.mbr.Expand(nodes_[sibling].mbr);
    nodes_.push_back(std::move(new_root));
    root_ = static_cast<int32_t>(nodes_.size() - 1);
  }
}

int32_t RTree::InsertRec(int32_t node_id, const Point& p) {
  if (nodes_[node_id].is_leaf()) {
    store_.Append(nodes_[node_id].page, p);
    nodes_[node_id].mbr.Expand(p);
    if (store_.PageSize(nodes_[node_id].page) >
        static_cast<size_t>(opts_.leaf_capacity)) {
      return SplitLeafNode(node_id);
    }
    return -1;
  }
  // Min-enlargement (ties: min area) child choice.
  int32_t best = -1;
  double best_enlarge = 0.0, best_area = 0.0;
  for (const int32_t child : nodes_[node_id].children) {
    const double enlarge = Enlargement(nodes_[child].mbr, p);
    const double area = nodes_[child].mbr.Area();
    if (best < 0 || enlarge < best_enlarge ||
        (enlarge == best_enlarge && area < best_area)) {
      best = child;
      best_enlarge = enlarge;
      best_area = area;
    }
  }
  const int32_t sibling = InsertRec(best, p);
  nodes_[node_id].mbr.Expand(p);
  if (sibling >= 0) {
    nodes_[node_id].children.push_back(sibling);
    nodes_[node_id].mbr.Expand(nodes_[sibling].mbr);
    if (nodes_[node_id].children.size() >
        static_cast<size_t>(opts_.fanout)) {
      return SplitInternalNode(node_id);
    }
  }
  return -1;
}

int32_t RTree::SplitLeafNode(int32_t node_id) {
  const Span span = store_.PageSpan(nodes_[node_id].page);
  std::vector<Point> pts(span.begin, span.end);
  const Rect mbr = nodes_[node_id].mbr;
  // Linear split: sort along the longer MBR axis, halve.
  const bool by_x = (mbr.max_x - mbr.min_x) >= (mbr.max_y - mbr.min_y);
  std::sort(pts.begin(), pts.end(), [&](const Point& a, const Point& b) {
    return by_x ? a.x < b.x : a.y < b.y;
  });
  const size_t half = pts.size() / 2;
  std::vector<Point> right(pts.begin() + half, pts.end());
  pts.resize(half);

  Node sibling;
  for (const Point& q : right) sibling.mbr.Expand(q);
  sibling.page = store_.AllocatePage(right);

  store_.ReplacePage(nodes_[node_id].page, pts);
  RecomputeMbr(node_id);
  nodes_.push_back(std::move(sibling));
  return static_cast<int32_t>(nodes_.size() - 1);
}

int32_t RTree::SplitInternalNode(int32_t node_id) {
  std::vector<int32_t> children = std::move(nodes_[node_id].children);
  const Rect mbr = nodes_[node_id].mbr;
  const bool by_x = (mbr.max_x - mbr.min_x) >= (mbr.max_y - mbr.min_y);
  std::sort(children.begin(), children.end(), [&](int32_t a, int32_t b) {
    const Rect& ra = nodes_[a].mbr;
    const Rect& rb = nodes_[b].mbr;
    const double ca = by_x ? (ra.min_x + ra.max_x) : (ra.min_y + ra.max_y);
    const double cb = by_x ? (rb.min_x + rb.max_x) : (rb.min_y + rb.max_y);
    return ca < cb;
  });
  const size_t half = children.size() / 2;
  Node sibling;
  sibling.children.assign(children.begin() + half, children.end());
  children.resize(half);
  nodes_[node_id].children = std::move(children);
  RecomputeMbr(node_id);
  for (const int32_t c : sibling.children) sibling.mbr.Expand(nodes_[c].mbr);
  nodes_.push_back(std::move(sibling));
  return static_cast<int32_t>(nodes_.size() - 1);
}

bool RTree::Remove(double x, double y) {
  if (root_ < 0) return false;
  std::vector<int32_t> stack = {root_};
  const Point p{x, y, 0};
  while (!stack.empty()) {
    const int32_t id = stack.back();
    stack.pop_back();
    const Node& node = nodes_[id];
    if (!node.mbr.Contains(p)) continue;
    if (node.is_leaf()) {
      // MBRs are not shrunk: oversized boxes cost extra scans only.
      if (store_.Remove(node.page, x, y)) return true;
      continue;
    }
    for (const int32_t child : node.children) stack.push_back(child);
  }
  return false;
}

void RTree::RecomputeMbr(int32_t node_id) {
  Node& node = nodes_[node_id];
  node.mbr = Rect{};
  if (node.is_leaf()) {
    node.mbr = MbrOfSpan(store_.PageSpan(node.page));
  } else {
    for (const int32_t c : node.children) node.mbr.Expand(nodes_[c].mbr);
  }
}

size_t RTree::SizeBytes() const {
  size_t bytes = sizeof(*this) + nodes_.capacity() * sizeof(Node);
  for (const Node& n : nodes_) bytes += n.children.capacity() * sizeof(int32_t);
  return bytes + store_.SizeBytes();
}

}  // namespace wazi
