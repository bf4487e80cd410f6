// Consistent-routing detection (EvidenceStore's inconsistency index) and
// well-positioned-VP tests (§3.4).
#include "traceroute/well_positioned.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "core/evidence.hpp"
#include "topology/generator.hpp"
#include "util/checkpoint.hpp"
#include "util/rng.hpp"

namespace metas::traceroute {
namespace {

using core::EvidenceStore;
using topology::AsId;
using topology::GeoScope;
using topology::MetroId;

// A fixed small world whose metro/country/continent layout the tests rely
// on: 2 metros per country, 2 countries per continent.
class ConsistencyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    topology::GeneratorConfig cfg;
    cfg.seed = 51;
    cfg.num_continents = 2;
    cfg.countries_per_continent = 2;
    cfg.metros_per_country = 2;
    cfg.num_focus_metros = 2;
    net_ = std::make_unique<topology::Internet>(topology::generate_internet(cfg));
  }
  static void TearDownTestSuite() { net_.reset(); }

  // Feeds observations through the store's one ingest.  Consistency counts
  // every transit crossing, well positioned or not, so a stub trace will do.
  static void ingest(EvidenceStore& s, const TraceObservations& o) {
    s.ingest(TraceResult{}, o);
  }
  static TraceObservations direct_obs(AsId a, AsId b, MetroId m) {
    TraceObservations o;
    o.links.push_back({a, b, m, false});
    return o;
  }
  static TraceObservations transit_obs(AsId a, AsId b, MetroId m) {
    TraceObservations o;
    o.transits.push_back({a, b, 99, m, m});
    return o;
  }
  static std::unique_ptr<topology::Internet> net_;
};
std::unique_ptr<topology::Internet> ConsistencyTest::net_;

TEST_F(ConsistencyTest, NoEvidenceIsConsistent) {
  EvidenceStore t(*net_);
  EXPECT_FALSE(t.pair_inconsistent(1, 2, GeoScope::kSameMetro));
}

TEST_F(ConsistencyTest, SameMetroMixMakesInconsistent) {
  EvidenceStore t(*net_);
  ingest(t, direct_obs(1, 2, 0));
  ingest(t, transit_obs(1, 2, 0));
  EXPECT_TRUE(t.pair_inconsistent(1, 2, GeoScope::kSameMetro));
  EXPECT_TRUE(t.pair_inconsistent(1, 2, GeoScope::kElsewhere));
}

TEST_F(ConsistencyTest, GranularityHierarchy) {
  // Direct at metro 0, transit at metro 1 (same country as 0 with
  // metros_per_country = 2): consistent at metro granularity, inconsistent
  // at country and coarser. This mirrors the paper's NY/Seattle/Toronto
  // example.
  EvidenceStore t(*net_);
  ingest(t, direct_obs(3, 4, 0));
  ingest(t, transit_obs(3, 4, 1));
  EXPECT_FALSE(t.pair_inconsistent(3, 4, GeoScope::kSameMetro));
  EXPECT_TRUE(t.pair_inconsistent(3, 4, GeoScope::kSameCountry));
  EXPECT_TRUE(t.pair_inconsistent(3, 4, GeoScope::kElsewhere));
}

TEST_F(ConsistencyTest, ConsistentSetEliminatesWorstOffenders) {
  EvidenceStore t(*net_);
  // AS 7 is inconsistent with both 8 and 9; 8 and 9 are otherwise clean.
  ingest(t, direct_obs(7, 8, 0));
  ingest(t, transit_obs(7, 8, 0));
  ingest(t, direct_obs(7, 9, 0));
  ingest(t, transit_obs(7, 9, 0));
  std::vector<AsId> universe{7, 8, 9, 10};
  auto alive = t.consistent_set(GeoScope::kSameMetro, universe);
  EXPECT_FALSE(alive[0]);  // 7 eliminated
  EXPECT_TRUE(alive[1]);
  EXPECT_TRUE(alive[2]);
  EXPECT_TRUE(alive[3]);
}

TEST_F(ConsistencyTest, OnlyDirectOrOnlyTransitStaysConsistent) {
  EvidenceStore t(*net_);
  ingest(t, direct_obs(1, 2, 0));
  ingest(t, direct_obs(1, 2, 3));
  ingest(t, transit_obs(4, 5, 0));
  ingest(t, transit_obs(4, 5, 1));
  std::vector<AsId> universe{1, 2, 4, 5};
  auto alive = t.consistent_set(GeoScope::kElsewhere, universe);
  for (bool a : alive) EXPECT_TRUE(a);
}

// Brute-force reference for the store's inconsistency index: keeps every
// pair's metro sets and re-tests them on every query, walking
// pairs in sorted-key order.
class ReferenceConsistency {
 public:
  explicit ReferenceConsistency(const topology::Internet& net) : net_(&net) {}

  void ingest(const TraceObservations& obs) {
    for (const LinkObs& l : obs.links)
      if (l.metro >= 0) pairs_[topology::pair_key(l.a, l.b)].first.insert(l.metro);
    for (const TransitObs& t : obs.transits) {
      MetroId m = t.metro_b_side >= 0 ? t.metro_b_side : t.metro_a_side;
      if (m >= 0) pairs_[topology::pair_key(t.a, t.b)].second.insert(m);
    }
  }

  bool pair_inconsistent(AsId a, AsId b, GeoScope g) const {
    auto it = pairs_.find(topology::pair_key(a, b));
    return it != pairs_.end() && inconsistent(it->second, g);
  }

  std::vector<bool> consistent_set(GeoScope g,
                                   const std::vector<AsId>& universe) const {
    std::map<AsId, int> pos;
    for (std::size_t i = 0; i < universe.size(); ++i)
      pos[universe[i]] = static_cast<int>(i);
    std::vector<std::pair<int, int>> bad;
    for (const auto& [key, ev] : pairs_) {  // std::map: sorted keys
      auto ia = pos.find(static_cast<AsId>(key & 0xffffffffULL));
      auto ib = pos.find(static_cast<AsId>(key >> 32));
      if (ia == pos.end() || ib == pos.end()) continue;
      if (inconsistent(ev, g)) bad.emplace_back(ia->second, ib->second);
    }
    std::vector<bool> alive(universe.size(), true);
    while (true) {
      std::vector<int> count(universe.size(), 0);
      for (auto [a, b] : bad) {
        if (!alive[static_cast<std::size_t>(a)] || !alive[static_cast<std::size_t>(b)])
          continue;
        ++count[static_cast<std::size_t>(a)];
        ++count[static_cast<std::size_t>(b)];
      }
      auto worst = std::max_element(count.begin(), count.end());
      if (worst == count.end() || *worst == 0) break;
      alive[static_cast<std::size_t>(worst - count.begin())] = false;
    }
    return alive;
  }

 private:
  using Sets = std::pair<std::set<MetroId>, std::set<MetroId>>;  // direct, transit
  bool inconsistent(const Sets& ev, GeoScope g) const {
    for (MetroId d : ev.first)
      for (MetroId t : ev.second)
        if (static_cast<int>(net_->metro_scope(d, t)) <= static_cast<int>(g))
          return true;
    return false;
  }
  const topology::Internet* net_;
  std::map<std::uint64_t, Sets> pairs_;
};

// Random observations over a few ASes so pairs collect several metros of
// both kinds, including ungeolocated (-1) ones the store must skip.
TraceObservations random_obs(util::Rng& rng, int num_ases, int num_metros) {
  auto metro = [&] { return rng.uniform_int(-1, num_metros - 1); };
  TraceObservations o;
  const int links = rng.uniform_int(0, 3);
  for (int k = 0; k < links; ++k) {
    AsId a = rng.uniform_int(0, num_ases - 1), b = rng.uniform_int(0, num_ases - 1);
    if (a != b) o.links.push_back({a, b, metro(), false});
  }
  const int transits = rng.uniform_int(0, 3);
  for (int k = 0; k < transits; ++k) {
    AsId a = rng.uniform_int(0, num_ases - 1), b = rng.uniform_int(0, num_ases - 1);
    if (a != b) o.transits.push_back({a, b, 99, metro(), metro()});
  }
  return o;
}

// A random trace from one of a few VPs, so the well-positioned state (and
// with it each transit metro's flag) varies as the store ingests.
TraceResult random_trace(util::Rng& rng, int num_ases, int num_metros) {
  TraceResult t;
  t.vp_id = rng.uniform_int(0, 3);
  t.src_as = rng.uniform_int(0, num_ases - 1);
  t.src_metro = rng.uniform_int(0, num_metros - 1);
  const int hops = rng.uniform_int(0, 3);
  for (int k = 0; k < hops; ++k) {
    Hop h;
    h.as = rng.uniform_int(0, num_ases - 1);
    h.observed_ingress = rng.uniform_int(-1, num_metros - 1);
    t.hops.push_back(h);
  }
  return t;
}

void expect_matches_reference(const EvidenceStore& t,
                              const ReferenceConsistency& ref, int num_ases,
                              const std::vector<std::vector<AsId>>& universes) {
  for (int gi = 0; gi < topology::kNumGeoScopes; ++gi) {
    const auto g = static_cast<GeoScope>(gi);
    for (AsId a = 0; a < num_ases; ++a)
      for (AsId b = 0; b < num_ases; ++b)
        ASSERT_EQ(t.pair_inconsistent(a, b, g), ref.pair_inconsistent(a, b, g))
            << "pair " << a << "-" << b << " scope " << gi;
    for (const auto& u : universes)
      ASSERT_EQ(t.consistent_set(g, u), ref.consistent_set(g, u)) << "scope " << gi;
  }
}

// E_m of every metro, entry by entry; returns the number of filled entries.
std::size_t expect_same_estimated_matrices(const topology::Internet& net,
                                           const EvidenceStore& x,
                                           const EvidenceStore& y) {
  std::size_t filled = 0;
  for (MetroId m = 0; m < static_cast<MetroId>(net.metros.size()); ++m) {
    core::MetroContext ctx(net, m);
    const core::EstimatedMatrix ex = core::build_estimated_matrix(ctx, x);
    const core::EstimatedMatrix ey = core::build_estimated_matrix(ctx, y);
    for (std::size_t i = 0; i < ctx.size(); ++i)
      for (std::size_t j = 0; j < ctx.size(); ++j) {
        EXPECT_EQ(ex.filled(i, j), ey.filled(i, j)) << "metro " << m;
        EXPECT_EQ(ex.value(i, j), ey.value(i, j)) << "metro " << m;
      }
    filled += ex.total_filled();
  }
  return filled;
}

TEST_F(ConsistencyTest, IndexMatchesBruteForceAfterRandomIngest) {
  constexpr int kAses = 24;
  const int metros = static_cast<int>(net_->metros.size());
  std::vector<std::vector<AsId>> universes(3);
  for (AsId a = 0; a < kAses; ++a) universes[0].push_back(a);
  for (AsId a = kAses - 1; a >= 0; a -= 2) universes[1].push_back(a);  // reordered subset
  universes[2] = {3, 40, 7, 11, 5};  // includes an AS with no evidence
  std::size_t filled = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    util::Rng rng(seed);
    EvidenceStore t(*net_);
    ReferenceConsistency ref(*net_);
    for (int step = 0; step < 400; ++step) {
      TraceObservations o = random_obs(rng, kAses, metros);
      t.ingest(random_trace(rng, kAses, metros), o);
      ref.ingest(o);
      if (step % 100 == 99)
        expect_matches_reference(t, ref, kAses, universes);
    }
    // A fresh store loaded from the checkpoint rebuilds the same index,
    // re-saves the same bytes, derives the same E_m everywhere, and keeps
    // the index exact under further ingest.
    util::checkpoint::Encoder enc;
    t.save(enc);
    EvidenceStore loaded(*net_);
    util::checkpoint::Decoder dec(enc.data());
    loaded.load(dec);
    util::checkpoint::Encoder again;
    loaded.save(again);
    EXPECT_EQ(enc.data(), again.data());
    expect_matches_reference(loaded, ref, kAses, universes);
    filled += expect_same_estimated_matrices(*net_, t, loaded);
    for (int step = 0; step < 100; ++step) {
      TraceObservations o = random_obs(rng, kAses, metros);
      const TraceResult tr = random_trace(rng, kAses, metros);
      t.ingest(tr, o);
      loaded.ingest(tr, o);
      ref.ingest(o);
    }
    expect_matches_reference(loaded, ref, kAses, universes);
    filled += expect_same_estimated_matrices(*net_, t, loaded);
  }
  EXPECT_GT(filled, 0u);  // the E_m comparison saw real fills
}

TEST(WellPositioned, NeverIssuedIsWellPositioned) {
  WellPositionedTracker wp;
  EXPECT_TRUE(wp.well_positioned(5, 1, 0));
}

TEST(WellPositioned, TraversedInterfaceQualifies) {
  WellPositionedTracker wp;
  TraceResult t;
  t.vp_id = 3;
  t.src_as = 1;
  t.src_metro = 0;
  Hop h0;
  h0.as = 1; h0.observed_ingress = 0; h0.responsive = true;
  Hop h1;
  h1.as = 2; h1.true_ingress = 4; h1.observed_ingress = 4; h1.responsive = true;
  t.hops = {h0, h1};
  wp.ingest(t);
  EXPECT_TRUE(wp.well_positioned(3, 2, 4));   // traversed AS 2 at metro 4
  EXPECT_TRUE(wp.well_positioned(3, 1, 0));   // its own interface
  EXPECT_FALSE(wp.well_positioned(3, 2, 5));  // wrong metro
  EXPECT_FALSE(wp.well_positioned(3, 9, 4));  // wrong AS
  // Another VP that never issued is still well positioned anywhere.
  EXPECT_TRUE(wp.well_positioned(4, 9, 9));
}

TEST(WellPositioned, UnresponsiveHopsNotRecorded) {
  WellPositionedTracker wp;
  TraceResult t;
  t.vp_id = 1;
  t.src_as = 0;
  t.src_metro = 0;
  Hop h;
  h.as = 2; h.true_ingress = 3; h.observed_ingress = -1; h.responsive = false;
  t.hops = {h};
  wp.ingest(t);
  EXPECT_FALSE(wp.well_positioned(1, 2, 3));
}

}  // namespace
}  // namespace metas::traceroute
