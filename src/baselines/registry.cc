#include "index/spatial_index.h"

#include "baselines/cur_tree.h"
#include "baselines/flood.h"
#include "baselines/hrr.h"
#include "baselines/qd_gr.h"
#include "baselines/quasii.h"
#include "baselines/quilts.h"
#include "baselines/rsmi_lite.h"
#include "baselines/str_rtree.h"
#include "baselines/zpgm.h"
#include "core/wazi.h"
#include "index/brute_force.h"

namespace wazi {

std::unique_ptr<SpatialIndex> MakeIndex(const std::string& name) {
  if (name == "wazi") return std::make_unique<Wazi>();
  if (name == "base") return std::make_unique<BaseZ>();
  if (name == "base+sk") return std::make_unique<BaseZSk>();
  if (name == "wazi-sk") return std::make_unique<WaziNoSk>();
  if (name == "str") return std::make_unique<StrRTree>();
  if (name == "cur") return std::make_unique<CurTree>();
  if (name == "flood") return std::make_unique<Flood>();
  if (name == "quasii") return std::make_unique<Quasii>();
  if (name == "qd-gr") return std::make_unique<QdGreedy>();
  if (name == "hrr") return std::make_unique<HilbertRTree>();
  if (name == "quilts") return std::make_unique<Quilts>();
  if (name == "zpgm") return std::make_unique<Zpgm>();
  if (name == "rsmi") return std::make_unique<RsmiLite>();
  if (name == "brute") return std::make_unique<BruteForceIndex>();
  return nullptr;
}

std::vector<std::string> AllIndexNames() {
  // Fig. 4 presentation order.
  return {"base",   "cur",  "flood",  "hrr",  "qd-gr", "quasii",
          "quilts", "rsmi", "str",    "wazi", "zpgm"};
}

std::vector<std::string> MainIndexNames() {
  // The six-index set of the detailed experiments (Fig. 6-12).
  return {"quasii", "cur", "str", "flood", "base", "wazi"};
}

}  // namespace wazi
