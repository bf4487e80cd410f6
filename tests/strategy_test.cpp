// Measurement-strategy taxonomy tests (144 strategies, §3.3.2).
#include "traceroute/strategy.hpp"

#include <memory>

#include <gtest/gtest.h>

#include "topology/generator.hpp"

namespace metas::traceroute {
namespace {

using topology::GeoScope;

// Index round-trip over every strategy.
class StrategyIndexTest : public ::testing::TestWithParam<int> {};

TEST_P(StrategyIndexTest, RoundTrips) {
  int idx = GetParam();
  Strategy s = strategy_from_index(idx);
  EXPECT_EQ(strategy_index(s), idx);
}

INSTANTIATE_TEST_SUITE_P(All, StrategyIndexTest,
                         ::testing::Range(0, kNumStrategies));

TEST(Strategy, IndexConstants) {
  EXPECT_EQ(kVpCategories, 12);
  EXPECT_EQ(kTargetCategories, 12);
  EXPECT_EQ(kNumStrategies, 144);
}

class StrategyCategorizeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    topology::GeneratorConfig cfg;
    cfg.seed = 21;
    net_ = std::make_unique<topology::Internet>(topology::generate_internet(cfg));
  }
  static void TearDownTestSuite() { net_.reset(); }
  static std::unique_ptr<topology::Internet> net_;
};
std::unique_ptr<topology::Internet> StrategyCategorizeTest::net_;

TEST_F(StrategyCategorizeTest, VpInAsAtMetro) {
  const auto& a = net_->ases[5];
  ASSERT_FALSE(a.footprint.empty());
  topology::MetroId m = a.footprint.front();
  VantagePoint vp{0, a.id, m};
  int cat = categorize_vp(*net_, vp, a.id, m);
  Strategy s = strategy_from_index(strategy_index(cat, 0));
  EXPECT_EQ(s.vp_geo, GeoScope::kSameMetro);
  EXPECT_EQ(s.vp_topo, VpTopo::kInAs);
}

TEST_F(StrategyCategorizeTest, VpInConeDetected) {
  // Find a provider-customer pair and place the probe in the customer.
  for (std::size_t i = 0; i < net_->num_ases(); ++i) {
    if (net_->customers[i].empty()) continue;
    topology::AsId provider = static_cast<topology::AsId>(i);
    topology::AsId customer = net_->customers[i].front();
    const auto& cn = net_->ases[static_cast<std::size_t>(customer)];
    topology::MetroId m = net_->ases[i].footprint.front();
    VantagePoint vp{0, customer, cn.footprint.front()};
    int cat = categorize_vp(*net_, vp, provider, m);
    Strategy s = strategy_from_index(strategy_index(cat, 0));
    EXPECT_EQ(s.vp_topo, VpTopo::kInCone);
    return;
  }
  FAIL() << "no provider with customers found";
}

TEST_F(StrategyCategorizeTest, TargetOutsideConeRejected) {
  // A stub AS is not in another stub's cone.
  std::vector<topology::AsId> stubs;
  for (const auto& a : net_->ases)
    if (a.cls == topology::AsClass::kStub) stubs.push_back(a.id);
  ASSERT_GE(stubs.size(), 2u);
  const auto& t = net_->ases[static_cast<std::size_t>(stubs[0])];
  ProbeTarget tgt{0, t.id, t.footprint.front(), false, 1.0};
  int cat = categorize_target(*net_, tgt, stubs[1],
                              net_->ases[static_cast<std::size_t>(stubs[1])]
                                  .footprint.front());
  EXPECT_EQ(cat, -1);
}

TEST_F(StrategyCategorizeTest, IxpAdjacentTargetCategory) {
  ASSERT_FALSE(net_->ixps.empty());
  const auto& ixp = net_->ixps.front();
  ASSERT_FALSE(ixp.members.empty());
  topology::AsId j = ixp.members.front();
  ProbeTarget tgt{0, j, ixp.metro, true, 1.0};
  int cat = categorize_target(*net_, tgt, j, ixp.metro);
  ASSERT_GE(cat, 0);
  Strategy s = strategy_from_index(strategy_index(0, cat));
  EXPECT_EQ(s.tgt_topo, TargetTopo::kIxpAdjacent);
  EXPECT_EQ(s.tgt_geo, GeoScope::kSameMetro);
  // The same target for a different metro is a plain in-AS target.
  topology::MetroId other = -1;
  for (topology::MetroId m :
       net_->ases[static_cast<std::size_t>(j)].footprint)
    if (m != ixp.metro) { other = m; break; }
  if (other >= 0) {
    int cat2 = categorize_target(*net_, tgt, j, other);
    ASSERT_GE(cat2, 0);
    Strategy s2 = strategy_from_index(strategy_index(0, cat2));
    EXPECT_EQ(s2.tgt_topo, TargetTopo::kInAs);
  }
}

}  // namespace
}  // namespace metas::traceroute
