// Measurement-strategy taxonomy (§3.3.2).
//
// For a candidate link l_ijm, vantage points are bucketed by geography
// (same metro / country / continent / elsewhere relative to m) crossed with
// topology (inside AS i, inside i's customer cone, outside), and targets by
// geography crossed with {inside AS j, inside j's cone, IXP-adjacent target
// of j at m}.  A strategy is a (VP category, target category) pair -- 144 in
// total -- and P_m tracks the probability that a traceroute drawn from a
// strategy is informative for the link.
#pragma once

#include <cstdint>
#include <string>

#include "topology/internet.hpp"
#include "traceroute/vantage_point.hpp"

namespace metas::traceroute {

using topology::GeoScope;

/// Topological relation of a vantage point to the near-side AS i.
enum class VpTopo : std::uint8_t { kInAs, kInCone, kOutside };
constexpr int kNumVpTopo = 3;

/// Topological relation of a target to the far-side AS j.
enum class TargetTopo : std::uint8_t { kInAs, kInCone, kIxpAdjacent };
constexpr int kNumTargetTopo = 3;

constexpr int kVpCategories = topology::kNumGeoScopes * kNumVpTopo;        // 12
constexpr int kTargetCategories = topology::kNumGeoScopes * kNumTargetTopo;  // 12
constexpr int kNumStrategies = kVpCategories * kTargetCategories;           // 144

/// A (VP category, target category) pair.
struct Strategy {
  GeoScope vp_geo = GeoScope::kElsewhere;
  VpTopo vp_topo = VpTopo::kOutside;
  GeoScope tgt_geo = GeoScope::kElsewhere;
  TargetTopo tgt_topo = TargetTopo::kInCone;
};

/// Dense index in [0, kNumStrategies).
int strategy_index(const Strategy& s);
Strategy strategy_from_index(int idx);

/// Categorizes a vantage point for link l_ijm (near side AS i at metro m).
/// Returns the VP-category index in [0, kVpCategories).
int categorize_vp(const topology::Internet& net, const VantagePoint& vp,
                  topology::AsId i, topology::MetroId m);

/// Categorizes a target for link l_ijm (far side AS j at metro m).
/// Returns the target-category index in [0, kTargetCategories), or -1 if the
/// target is unusable for this link (outside j's customer cone and not an
/// IXP-adjacent address of j at m -- §3.3.2 excludes those).
int categorize_target(const topology::Internet& net, const ProbeTarget& tgt,
                      topology::AsId j, topology::MetroId m);

/// Dense strategy index of a (VP category, target category) pair.  Inline:
/// P_m evaluates it for every candidate strategy of every entry it scores.
constexpr int strategy_index(int vp_cat, int tgt_cat) {
  return vp_cat * kTargetCategories + tgt_cat;
}

}  // namespace metas::traceroute
