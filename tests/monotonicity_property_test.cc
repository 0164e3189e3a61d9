// Property sweep: the dominance-monotonicity invariant of §3 must hold
// for every (region, ordering policy, seed) combination, since the §5
// skipping correctness argument depends on it.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/wazi.h"
#include "tests/test_util.h"

namespace wazi {
namespace {

using MonoParam = std::tuple<int /*region*/, bool /*adaptive*/,
                             uint64_t /*seed*/>;

class MonotonicityPropertyTest : public ::testing::TestWithParam<MonoParam> {
};

TEST_P(MonotonicityPropertyTest, DominatedLeavesComeEarlier) {
  const Region region = static_cast<Region>(std::get<0>(GetParam()));
  const bool adaptive = std::get<1>(GetParam());
  const uint64_t seed = std::get<2>(GetParam());

  const TestScenario s = MakeScenario(region, 2500, 400, 1e-3, seed);
  BuildOptions opts;
  opts.leaf_capacity = 32;
  opts.kappa = 8;
  opts.seed = seed;

  std::unique_ptr<ZIndexVariant> index;
  if (adaptive) {
    index = std::make_unique<Wazi>();
  } else {
    index = std::make_unique<BaseZ>();
  }
  index->Build(s.data, s.workload, opts);
  const ZIndex& z = index->zindex();

  Rng rng(seed * 31 + 7);
  int checked = 0;
  for (int iter = 0; iter < 30000 && checked < 3000; ++iter) {
    const Point& a = s.data.points[rng.NextBelow(s.data.points.size())];
    const Point& b = s.data.points[rng.NextBelow(s.data.points.size())];
    if (!Dominates(b, a)) continue;
    const int32_t la = z.node(z.FindLeafNode(a.x, a.y)).leaf_id;
    const int32_t lb = z.node(z.FindLeafNode(b.x, b.y)).leaf_id;
    if (la == lb) continue;
    ASSERT_LE(z.leaf_dir().leaf(la).ord, z.leaf_dir().leaf(lb).ord);
    ++checked;
  }
  EXPECT_GT(checked, 100);
}

// "r<region>_<wazi|base>_s<seed>". Built with append: the equivalent
// chain of operator+ trips GCC 12's -Wrestrict false positive at -O3.
std::string MonoParamName(const ::testing::TestParamInfo<MonoParam>& info) {
  std::string name = "r";
  name.append(std::to_string(std::get<0>(info.param)));
  name.append(std::get<1>(info.param) ? "_wazi" : "_base");
  name.append("_s");
  name.append(std::to_string(std::get<2>(info.param)));
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MonotonicityPropertyTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Bool(),
                       ::testing::Values<uint64_t>(1, 2, 3)),
    MonoParamName);

}  // namespace
}  // namespace wazi
