// EvidenceStore and E_m derivation tests (§3.4 transferability rules).
#include "core/evidence.hpp"

#include <map>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "topology/generator.hpp"

namespace metas::core {
namespace {

using topology::AsId;
using topology::MetroId;

// Geography: 2 continents x 2 countries x 2 metros = 8 metros.
// Metro 0 and 1 share a country; 0 and 2 share a continent; 0 and 4+ do not.
class EvidenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    topology::GeneratorConfig cfg;
    cfg.seed = 61;
    cfg.num_continents = 2;
    cfg.countries_per_continent = 2;
    cfg.metros_per_country = 2;
    cfg.num_focus_metros = 2;
    cfg.latent_dim = 8;
    net_ = std::make_unique<topology::Internet>(topology::generate_internet(cfg));
  }
  static void TearDownTestSuite() { net_.reset(); }

  // Two ASes guaranteed present at metro 0 (taken from the metro universe).
  static std::pair<AsId, AsId> two_ases_at_metro0() {
    const auto& m0 = net_->metros[0].ases;
    return {m0[0], m0[1]};
  }

  static traceroute::TraceResult trace_stub() {
    traceroute::TraceResult t;
    t.vp_id = 42;
    return t;
  }

  // A measurement by VP 42 that did NOT traverse any AS at metro 0: once
  // ingested, the VP is no longer well positioned there.
  static traceroute::TraceResult prior_trace_elsewhere() {
    traceroute::TraceResult prior = trace_stub();
    prior.src_as = 7;
    prior.src_metro = 3;
    traceroute::Hop h;
    h.as = 7;
    h.observed_ingress = 3;
    h.responsive = true;
    prior.hops = {h};
    return prior;
  }

  static std::unique_ptr<topology::Internet> net_;
};
std::unique_ptr<topology::Internet> EvidenceTest::net_;

TEST_F(EvidenceTest, DirectObservationFillsByScope) {
  auto [a, b] = two_ases_at_metro0();
  EvidenceStore ev(*net_);
  traceroute::TraceObservations obs;
  obs.links.push_back({a, b, 1, false});  // same country as metro 0
  ev.ingest(trace_stub(), obs);

  MetroContext ctx(*net_, 0);
  EstimatedMatrix e = build_estimated_matrix(ctx, ev);
  int ia = ctx.local(a), ib = ctx.local(b);
  ASSERT_GE(ia, 0);
  ASSERT_GE(ib, 0);
  EXPECT_TRUE(e.filled(ia, ib));
  EXPECT_DOUBLE_EQ(e.value(ia, ib), 0.7);  // same-country transfer
}

TEST_F(EvidenceTest, ClosestDirectObservationWins) {
  auto [a, b] = two_ases_at_metro0();
  EvidenceStore ev(*net_);
  traceroute::TraceObservations obs;
  obs.links.push_back({a, b, 4, false});  // other continent: 0.1
  obs.links.push_back({a, b, 2, false});  // same continent: 0.4
  ev.ingest(trace_stub(), obs);
  MetroContext ctx(*net_, 0);
  EstimatedMatrix e = build_estimated_matrix(ctx, ev);
  EXPECT_DOUBLE_EQ(e.value(ctx.local(a), ctx.local(b)), 0.4);
}

TEST_F(EvidenceTest, TransitFromWellPositionedVpGivesNegative) {
  auto [a, b] = two_ases_at_metro0();
  EvidenceStore ev(*net_);  // VP 42 never issued: well positioned
  traceroute::TraceObservations obs;
  obs.transits.push_back({a, b, 99, 0, 0});  // transit at the metro itself
  ev.ingest(trace_stub(), obs);
  MetroContext ctx(*net_, 0);
  EstimatedMatrix e = build_estimated_matrix(ctx, ev);
  EXPECT_DOUBLE_EQ(e.value(ctx.local(a), ctx.local(b)), -1.0);
}

TEST_F(EvidenceTest, TransitFromPoorlyPositionedVpIgnored) {
  auto [a, b] = two_ases_at_metro0();
  EvidenceStore ev(*net_);
  ev.ingest(prior_trace_elsewhere(), {});

  traceroute::TraceObservations obs;
  obs.transits.push_back({a, b, 99, 0, 0});
  ev.ingest(trace_stub(), obs);
  MetroContext ctx(*net_, 0);
  EstimatedMatrix e = build_estimated_matrix(ctx, ev);
  EXPECT_FALSE(e.filled(ctx.local(a), ctx.local(b)));
}

TEST_F(EvidenceTest, PoorlyPositionedTransitCountsOnlyForConsistency) {
  // Every transit crossing decides routing consistency; only well-positioned
  // ones are non-existence evidence.
  auto [a, b] = two_ases_at_metro0();
  EvidenceStore ev(*net_);
  ev.ingest(prior_trace_elsewhere(), {});

  traceroute::TraceObservations obs;
  obs.links.push_back({a, b, 4, false});     // weak positive 0.1
  obs.transits.push_back({a, b, 99, 0, 0});  // would be -1 if well positioned
  ev.ingest(trace_stub(), obs);

  const PairEvidence* pe = ev.find(a, b);
  ASSERT_NE(pe, nullptr);
  EXPECT_EQ(pe->transit, (std::map<MetroId, bool>{{0, false}}));
  EXPECT_TRUE(ev.pair_inconsistent(a, b, topology::GeoScope::kElsewhere));
  MetroContext ctx(*net_, 0);
  EstimatedMatrix e = build_estimated_matrix(ctx, ev);
  EXPECT_DOUBLE_EQ(e.value(ctx.local(a), ctx.local(b)), 0.1);
}

TEST_F(EvidenceTest, InconsistentPairGetsNoNegative) {
  auto [a, b] = two_ases_at_metro0();
  EvidenceStore ev(*net_);
  traceroute::TraceObservations obs;
  obs.links.push_back({a, b, 1, false});    // direct at metro 1
  obs.transits.push_back({a, b, 99, 1, 1}); // transit at metro 1 too
  ev.ingest(trace_stub(), obs);
  MetroContext ctx(*net_, 0);
  EstimatedMatrix e = build_estimated_matrix(ctx, ev);
  // The pair is inconsistent at country granularity, so the only fill is the
  // positive same-country transfer.
  EXPECT_DOUBLE_EQ(e.value(ctx.local(a), ctx.local(b)), 0.7);
}

TEST_F(EvidenceTest, MixedEvidenceKeepsBiggerAbsolute) {
  auto [a, b] = two_ases_at_metro0();
  EvidenceStore ev(*net_);
  traceroute::TraceObservations obs;
  obs.links.push_back({a, b, 4, false});     // weak positive 0.1
  obs.transits.push_back({a, b, 99, 0, 0});  // strong negative -1
  ev.ingest(trace_stub(), obs);
  MetroContext ctx(*net_, 0);
  EstimatedMatrix e = build_estimated_matrix(ctx, ev);
  EXPECT_DOUBLE_EQ(e.value(ctx.local(a), ctx.local(b)), -1.0);
}

TEST_F(EvidenceTest, PairsOutsideMetroIgnored) {
  // Evidence about a pair with no presence at metro 0 must not crash or fill.
  EvidenceStore ev(*net_);
  // Find an AS absent from metro 0.
  AsId outsider = topology::kInvalidAs;
  MetroContext ctx(*net_, 0);
  for (const auto& node : net_->ases)
    if (ctx.local(node.id) < 0) { outsider = node.id; break; }
  ASSERT_NE(outsider, topology::kInvalidAs);
  traceroute::TraceObservations obs;
  obs.links.push_back({outsider, ctx.as_at(0), 1, false});
  ev.ingest(trace_stub(), obs);
  EstimatedMatrix e = build_estimated_matrix(ctx, ev);
  EXPECT_EQ(e.total_filled(), 0u);
}

TEST_F(EvidenceTest, AccessorsWork) {
  auto [a, b] = two_ases_at_metro0();
  EvidenceStore ev(*net_);
  traceroute::TraceObservations obs;
  obs.links.push_back({a, b, 2, false});
  ev.ingest(trace_stub(), obs);
  const PairEvidence* pe = ev.find(a, b);
  ASSERT_NE(pe, nullptr);
  EXPECT_EQ(ev.find(b, a), pe);
  EXPECT_EQ(pe->direct, (std::set<MetroId>{2}));
  EXPECT_TRUE(pe->transit.empty());
  EXPECT_EQ(ev.pairs(), 1u);
  EXPECT_EQ(ev.find(a, a), nullptr);
}

}  // namespace
}  // namespace metas::core
