#include "traceroute/strategy.hpp"

#include "util/numeric.hpp"

namespace metas::traceroute {

namespace {
int vp_category(GeoScope g, VpTopo t) {
  return mac::enum_cast<int>(g) * kNumVpTopo + mac::enum_cast<int>(t);
}
int target_category(GeoScope g, TargetTopo t) {
  return mac::enum_cast<int>(g) * kNumTargetTopo + mac::enum_cast<int>(t);
}
}  // namespace

int strategy_index(const Strategy& s) {
  return vp_category(s.vp_geo, s.vp_topo) * kTargetCategories +
         target_category(s.tgt_geo, s.tgt_topo);
}

Strategy strategy_from_index(int idx) {
  Strategy s;
  int vp_cat = idx / kTargetCategories;
  int tgt_cat = idx % kTargetCategories;
  s.vp_geo = static_cast<GeoScope>(vp_cat / kNumVpTopo);
  s.vp_topo = static_cast<VpTopo>(vp_cat % kNumVpTopo);
  s.tgt_geo = static_cast<GeoScope>(tgt_cat / kNumTargetTopo);
  s.tgt_topo = static_cast<TargetTopo>(tgt_cat % kNumTargetTopo);
  return s;
}

int categorize_vp(const topology::Internet& net, const VantagePoint& vp,
                  topology::AsId i, topology::MetroId m) {
  GeoScope g = net.metro_scope(vp.metro, m);
  VpTopo t;
  if (vp.as == i) t = VpTopo::kInAs;
  else if (net.in_cone(i, vp.as)) t = VpTopo::kInCone;
  else t = VpTopo::kOutside;
  return vp_category(g, t);
}

int categorize_target(const topology::Internet& net, const ProbeTarget& tgt,
                      topology::AsId j, topology::MetroId m) {
  GeoScope g = net.metro_scope(tgt.metro, m);
  if (tgt.as == j) {
    if (tgt.ixp_adjacent && tgt.metro == m)
      return target_category(g, TargetTopo::kIxpAdjacent);
    return target_category(g, TargetTopo::kInAs);
  }
  if (net.in_cone(j, tgt.as)) return target_category(g, TargetTopo::kInCone);
  return -1;  // outside j's cone: very unlikely to reveal j's connectivity
}

}  // namespace metas::traceroute
