// Public facade: the four Z-index variants of the paper as SpatialIndex
// implementations.
//
//   Wazi      ("wazi")     adaptive partitioning/ordering + skipping
//   BaseZ     ("base")     median splits, "abcd", naive scanning
//   BaseZSk   ("base+sk")  Base layout + look-ahead skipping   (Fig. 13)
//   WaziNoSk  ("wazi-sk")  adaptive layout, no look-ahead      (Fig. 13)
//
// Typical use:
//   wazi::Wazi index;
//   index.Build(dataset, workload, wazi::BuildOptions{});
//   std::vector<wazi::Point> hits;
//   index.RangeQuery(wazi::Rect::Of(0.2, 0.2, 0.4, 0.4), &hits);

#ifndef WAZI_CORE_WAZI_H_
#define WAZI_CORE_WAZI_H_

#include <memory>
#include <string>
#include <vector>

#include "core/builder.h"
#include "core/density_adapters.h"
#include "core/zindex.h"
#include "index/spatial_index.h"

namespace wazi {

// Shared implementation of the four variants.
class ZIndexVariant : public SpatialIndex {
 public:
  ZIndexVariant(std::string name, bool adaptive, bool skipping)
      : name_(std::move(name)), adaptive_(adaptive), skipping_(skipping) {}

  std::string name() const override { return name_; }

  void Build(const Dataset& data, const Workload& workload,
             const BuildOptions& opts) override;

  void DoRangeQuery(const Rect& query, std::vector<Point>* out,
                  QueryStats* stats) const override;
  void DoProject(const Rect& query, Projection* proj,
               QueryStats* stats) const override;
  bool DoPointQuery(const Point& p, QueryStats* stats) const override;
  bool Insert(const Point& p) override;
  bool Remove(const Point& p) override;
  // Shares every page with this index; copies the node array, the leaf
  // directory and the page table (O(leaves)).
  std::unique_ptr<SpatialIndex> CloneForUpdate() const override {
    return std::make_unique<ZIndexVariant>(*this);
  }
  size_t SizeBytes() const override;

  // Direct access for tests and diagnostics.
  const ZIndex& zindex() const { return zindex_; }
  bool skipping() const { return skipping_; }

  // Persistence (serialize.h): save a built index; load restores it
  // without retraining (look-ahead pointers are rebuilt if the stored
  // index lacks them but this variant skips).
  bool SaveToFile(const std::string& path) const;
  bool LoadFromFile(const std::string& path);

 private:
  std::string name_;
  bool adaptive_;
  bool skipping_;
  ZIndex zindex_;
};

class Wazi : public ZIndexVariant {
 public:
  Wazi() : ZIndexVariant("wazi", /*adaptive=*/true, /*skipping=*/true) {}
};

class BaseZ : public ZIndexVariant {
 public:
  BaseZ() : ZIndexVariant("base", /*adaptive=*/false, /*skipping=*/false) {}
};

class BaseZSk : public ZIndexVariant {
 public:
  BaseZSk()
      : ZIndexVariant("base+sk", /*adaptive=*/false, /*skipping=*/true) {}
};

class WaziNoSk : public ZIndexVariant {
 public:
  WaziNoSk()
      : ZIndexVariant("wazi-sk", /*adaptive=*/true, /*skipping=*/false) {}
};

}  // namespace wazi

#endif  // WAZI_CORE_WAZI_H_
