// Tests for the IP-level substrate: prefixes, address plans, IP traces,
// bdrmap-style mapping, and interface geolocation.
#include <memory>

#include <gtest/gtest.h>

#include "ipnet/ip_trace.hpp"
#include "test_world.hpp"

namespace metas::ipnet {
namespace {

TEST(Prefix, Basics) {
  Prefix p(0x0A000000u, 8);  // 10.0.0.0/8
  EXPECT_TRUE(p.contains(0x0A123456u));
  EXPECT_FALSE(p.contains(0x0B000000u));
  EXPECT_THROW(Prefix(0, 33), std::invalid_argument);
  // Host bits are zeroed.
  Prefix q(0x0A123456u, 16);
  EXPECT_EQ(q.addr, 0x0A120000u);
}

TEST(PrefixTable, LongestMatchWins) {
  PrefixTable t;
  t.insert(Prefix(0x0A000000u, 8), 1);
  t.insert(Prefix(0x0A010000u, 16), 2);
  EXPECT_EQ(t.lookup(0x0A010005u), 2);   // /16 beats /8
  EXPECT_EQ(t.lookup(0x0A020005u), 1);   // only the /8 covers
  EXPECT_FALSE(t.lookup(0x0B000000u).has_value());
  EXPECT_EQ(t.size(), 2u);
}

class IpnetWorldTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    util::Rng rng(777);
    plan_ = std::make_unique<AddressPlan>(testing::shared_world().net, rng);
  }
  static void TearDownTestSuite() { plan_.reset(); }
  static std::unique_ptr<AddressPlan> plan_;
};
std::unique_ptr<AddressPlan> IpnetWorldTest::plan_;

TEST_F(IpnetWorldTest, EveryLinkSideHasAnInterface) {
  const auto& net = testing::shared_world().net;
  for (const auto& [key, li] : net.link_map) {
    auto a = static_cast<topology::AsId>(key & 0xffffffffULL);
    auto b = static_cast<topology::AsId>(key >> 32);
    for (auto m : li.metros) {
      Ip ia = plan_->interface_ip(a, a, b, m);
      Ip ib = plan_->interface_ip(b, a, b, m);
      EXPECT_NE(ia, ib);
      auto info_a = plan_->interface_info(ia);
      ASSERT_TRUE(info_a.has_value());
      EXPECT_EQ(info_a->owner, a);
      EXPECT_EQ(info_a->metro, m);
    }
  }
  EXPECT_THROW(plan_->interface_ip(0, 0, 1, 63), std::invalid_argument);
}

TEST_F(IpnetWorldTest, AnnouncedSpaceCoversHostsAndP2p) {
  const auto& net = testing::shared_world().net;
  // Host addresses resolve to their own AS.
  for (std::size_t i = 0; i < net.num_ases(); i += 17) {
    const auto& node = net.ases[i];
    Ip host = plan_->host_address(node.id, node.footprint.front());
    EXPECT_EQ(plan_->announced().lookup(host), node.id);
  }
  // Point-to-point interfaces resolve to the *numbering* side -- the
  // misattribution bdrmapit corrects.
  std::size_t borders = 0, misattributed = 0;
  for (const auto& [key, li] : net.link_map) {
    auto a = static_cast<topology::AsId>(key & 0xffffffffULL);
    auto b = static_cast<topology::AsId>(key >> 32);
    for (auto m : li.metros) {
      for (auto side : {a, b}) {
        Ip ip = plan_->interface_ip(side, a, b, m);
        auto info = plan_->interface_info(ip);
        if (info->ixp_lan) continue;
        ++borders;
        auto lpm = plan_->announced().lookup(ip);
        ASSERT_TRUE(lpm.has_value());
        EXPECT_EQ(*lpm, info->numbered_from);
        if (*lpm != side) ++misattributed;
      }
    }
  }
  ASSERT_GT(borders, 100u);
  // Roughly half of all private border interfaces are far-side numbered.
  double frac = static_cast<double>(misattributed) / borders;
  EXPECT_GT(frac, 0.3);
  EXPECT_LT(frac, 0.7);
}

TEST_F(IpnetWorldTest, IxpInterfacesInIxpPrefixAndDirectory) {
  const auto& net = testing::shared_world().net;
  ASSERT_FALSE(plan_->ixp_directory().empty());
  for (const auto& [ip, as] : plan_->ixp_directory()) {
    auto ixp_id = plan_->ixp_prefixes().lookup(ip);
    ASSERT_TRUE(ixp_id.has_value());
    auto info = plan_->interface_info(ip);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->owner, as);
    EXPECT_TRUE(info->ixp_lan);
    // Directory addresses are NOT in announced space.
    EXPECT_FALSE(plan_->announced().lookup(ip).has_value());
  }
  (void)net;
}

TEST_F(IpnetWorldTest, IpTraceMirrorsAsTrace) {
  auto& w = testing::shared_world();
  traceroute::TracerouteConfig tc;
  tc.geoloc_accuracy = 1.0;
  traceroute::TracerouteEngine engine(w.net, tc);
  util::Rng rng(8);
  const auto& src = w.net.ases[2];
  const auto& dst = w.net.ases[w.net.num_ases() - 3];
  traceroute::VantagePoint vp{0, src.id, src.footprint.front()};
  traceroute::ProbeTarget tgt{0, dst.id, dst.footprint.front(), false, 1.0};
  auto as_trace = engine.trace(vp, tgt, rng);
  auto ip_trace = to_ip_trace(as_trace, *plan_);
  ASSERT_EQ(ip_trace.hops.size(), as_trace.hops.size());
  for (std::size_t k = 1; k < ip_trace.hops.size(); ++k) {
    if (!ip_trace.hops[k].responsive) continue;
    auto info = plan_->interface_info(ip_trace.hops[k].ip);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->owner, as_trace.hops[k].as);
    EXPECT_EQ(info->metro, as_trace.hops[k].true_ingress);
  }
}

TEST_F(IpnetWorldTest, MapperCorrectionBeatsNaive) {
  auto& w = testing::shared_world();
  traceroute::TracerouteConfig tc;
  tc.geoloc_accuracy = 1.0;
  traceroute::TracerouteEngine engine(w.net, tc);
  util::Rng rng(9);
  BorderMapper mapper(plan_->announced());
  for (const auto& [ip, as] : plan_->ixp_directory())
    mapper.add_known_interface(ip, as);

  // Ingest a few thousand traces, then score interface attribution.
  std::vector<IpTraceResult> traces;
  for (int k = 0; k < 2500; ++k) {
    const auto& vp_as = w.net.ases[rng.index(w.net.num_ases())];
    const auto& t_as = w.net.ases[rng.index(w.net.num_ases())];
    if (vp_as.id == t_as.id) continue;
    traceroute::VantagePoint vp{0, vp_as.id, vp_as.footprint.front()};
    traceroute::ProbeTarget tgt{0, t_as.id, t_as.footprint.front(), false, 1.0};
    auto ip_trace = to_ip_trace(engine.trace(vp, tgt, rng), *plan_);
    mapper.ingest(ip_trace);
    traces.push_back(std::move(ip_trace));
  }
  std::size_t total = 0, naive_ok = 0, corrected_ok = 0;
  for (const auto& tr : traces) {
    for (const auto& h : tr.hops) {
      if (!h.responsive) continue;
      auto info = plan_->interface_info(h.ip);
      if (!info) continue;
      ++total;
      if (mapper.naive_map(h.ip) == info->owner) ++naive_ok;
      if (mapper.map(h.ip) == info->owner) ++corrected_ok;
    }
  }
  ASSERT_GT(total, 1000u);
  double naive_err = 1.0 - static_cast<double>(naive_ok) / total;
  double corrected_err = 1.0 - static_cast<double>(corrected_ok) / total;
  EXPECT_LT(corrected_err, naive_err);
  // bdrmapit reports 1.2-8.9% error; our corrected mapper must land in a
  // comparable band.
  EXPECT_LT(corrected_err, 0.12);
}

TEST_F(IpnetWorldTest, GeolocatorUsesIxpAndRdns) {
  auto& w = testing::shared_world();
  InterfaceGeolocator geo(plan_->ixp_prefixes(), w.net.ixps);
  // IXP interface -> IXP metro.
  ASSERT_FALSE(plan_->ixp_directory().empty());
  Ip ixp_ip = plan_->ixp_directory().front().first;
  auto ixp_id = plan_->ixp_prefixes().lookup(ixp_ip);
  ASSERT_TRUE(ixp_id.has_value());
  topology::MetroId expected = -1;
  for (const auto& ixp : w.net.ixps)
    if (ixp.id == *ixp_id) expected = ixp.metro;
  EXPECT_EQ(geo.locate(ixp_ip, ""), expected);
  // rDNS hint.
  EXPECT_EQ(geo.locate(0x12345678u, "ae3.m7.as42.example.net"), 7);
  // Nothing known.
  EXPECT_EQ(geo.locate(0x12345678u, ""), -1);
  EXPECT_EQ(geo.locate(0x12345678u, "core1.example.net"), -1);
}

}  // namespace
}  // namespace metas::ipnet
