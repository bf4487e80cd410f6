// Tests for Internet data structures: pair keys, metro truth, geo scopes,
// customer cones.
#include "topology/internet.hpp"

#include <gtest/gtest.h>

namespace metas::topology {
namespace {

TEST(PairKey, SymmetricAndUnique) {
  EXPECT_EQ(pair_key(3, 7), pair_key(7, 3));
  EXPECT_NE(pair_key(3, 7), pair_key(3, 8));
  EXPECT_NE(pair_key(0, 1), pair_key(1, 2));
}

TEST(LinkInfo, PresentAt) {
  LinkInfo li;
  li.metros = {1, 4, 9};
  EXPECT_TRUE(li.present_at(4));
  EXPECT_FALSE(li.present_at(5));
}

TEST(MetroTruth, SetAndQuery) {
  MetroTruth t(0, {10, 20, 30});
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.local_index(20), 1);
  EXPECT_EQ(t.local_index(99), -1);
  EXPECT_FALSE(t.link(0, 1));
  t.set_link(0, 1, true);
  EXPECT_TRUE(t.link(0, 1));
  EXPECT_TRUE(t.link(1, 0));  // symmetric
  EXPECT_EQ(t.link_count(), 1u);
  t.set_link(0, 1, false);
  EXPECT_EQ(t.link_count(), 0u);
  EXPECT_THROW(t.set_link(0, 3, true), std::out_of_range);
}

TEST(GeoScope, Ordering) {
  EXPECT_EQ(geo_scope(1, 0, 1, 0), GeoScope::kSameCountry);
  EXPECT_EQ(geo_scope(1, 0, 2, 0), GeoScope::kSameContinent);
  EXPECT_EQ(geo_scope(1, 0, 5, 2), GeoScope::kElsewhere);
  // Scoped-enum comparison used by transfer logic: finer scopes are smaller.
  EXPECT_LT(GeoScope::kSameMetro, GeoScope::kSameCountry);
  EXPECT_LT(GeoScope::kSameCountry, GeoScope::kSameContinent);
  EXPECT_LT(GeoScope::kSameContinent, GeoScope::kElsewhere);
}

TEST(CustomerCones, HandBuiltDag) {
  // 0 <- 1 <- 2 (0 is provider of 1, 1 of 2); 3 isolated.
  std::vector<std::vector<AsId>> customers(4);
  customers[0] = {1};
  customers[1] = {2};
  auto cones = compute_customer_cones(customers);
  EXPECT_EQ(cones[0], (std::vector<AsId>{0, 1, 2}));
  EXPECT_EQ(cones[1], (std::vector<AsId>{1, 2}));
  EXPECT_EQ(cones[2], (std::vector<AsId>{2}));
  EXPECT_EQ(cones[3], (std::vector<AsId>{3}));
}

TEST(CustomerCones, DiamondDeduplicates) {
  // 0 has customers 1 and 2; both have customer 3.
  std::vector<std::vector<AsId>> customers(4);
  customers[0] = {1, 2};
  customers[1] = {3};
  customers[2] = {3};
  auto cones = compute_customer_cones(customers);
  EXPECT_EQ(cones[0], (std::vector<AsId>{0, 1, 2, 3}));
}

TEST(CustomerCones, CycleThrows) {
  std::vector<std::vector<AsId>> customers(2);
  customers[0] = {1};
  customers[1] = {0};
  EXPECT_THROW(compute_customer_cones(customers), std::logic_error);
}

TEST(EnumToString, AllValuesNamed) {
  for (int c = 0; c < kNumAsClasses; ++c)
    EXPECT_NE(to_string(static_cast<AsClass>(c)), "?");
  for (int t = 0; t < kNumTrafficProfiles; ++t)
    EXPECT_NE(to_string(static_cast<TrafficProfile>(t)), "?");
}

}  // namespace
}  // namespace metas::topology
