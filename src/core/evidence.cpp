#include "core/evidence.hpp"

#include <algorithm>

#include "util/checkpoint.hpp"
#include "util/numeric.hpp"

namespace metas::core {

using topology::GeoScope;
using topology::pair_key;

void EvidenceStore::ingest(const traceroute::TraceResult& trace,
                           const traceroute::TraceObservations& obs,
                           const traceroute::WellPositionedTracker& wp) {
  for (const auto& l : obs.links) {
    if (l.metro < 0) continue;
    pairs_[pair_key(l.a, l.b)].direct.insert(l.metro);
  }
  for (const auto& t : obs.transits) {
    MetroId m = t.metro_b_side >= 0 ? t.metro_b_side : t.metro_a_side;
    if (m < 0) continue;
    if (!wp.well_positioned(trace.vp_id, t.a, m)) continue;
    pairs_[pair_key(t.a, t.b)].transit.insert(m);
  }
}

const PairEvidence* EvidenceStore::find(AsId a, AsId b) const {
  auto it = pairs_.find(pair_key(a, b));
  return it == pairs_.end() ? nullptr : &it->second;
}

std::vector<std::uint64_t> EvidenceStore::sorted_keys() const {
  std::vector<std::uint64_t> keys;
  keys.reserve(pairs_.size());
  for (const auto& [key, ev] : pairs_)  // lint: allow(unordered-iter) -- key harvest only; sorted below before any consumer sees it
    keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

void EvidenceStore::save(util::checkpoint::Encoder& enc) const {
  const auto keys = sorted_keys();
  enc.u64(keys.size());
  for (std::uint64_t key : keys) {
    const PairEvidence& ev = pairs_.at(key);
    enc.u64(key);
    enc.u64(ev.direct.size());
    for (MetroId m : ev.direct) enc.i32(m);  // std::set iterates sorted
    enc.u64(ev.transit.size());
    for (MetroId m : ev.transit) enc.i32(m);
  }
}

void EvidenceStore::load(util::checkpoint::Decoder& dec) {
  pairs_.clear();
  const std::uint64_t n = dec.u64();
  for (std::uint64_t k = 0; k < n; ++k) {
    PairEvidence& ev = pairs_[dec.u64()];
    const std::uint64_t nd = dec.u64();
    for (std::uint64_t d = 0; d < nd; ++d) ev.direct.insert(dec.i32());
    const std::uint64_t nt = dec.u64();
    for (std::uint64_t t = 0; t < nt; ++t) ev.transit.insert(dec.i32());
  }
}

EstimatedMatrix build_estimated_matrix(
    const MetroContext& ctx, const EvidenceStore& evidence,
    const traceroute::ConsistencyTracker& consistency) {
  const auto& net = ctx.net();
  const MetroId m = ctx.metro();
  EstimatedMatrix e(ctx.size());

  // Per-granularity consistent-AS sets, computed once over the universe.
  std::vector<std::vector<bool>> consistent(topology::kNumGeoScopes);
  for (int g = 0; g < topology::kNumGeoScopes; ++g)
    consistent[mac::checked_cast<std::size_t>(g)] =
        consistency.consistent_set(static_cast<GeoScope>(g), ctx.ases());

  // Only the metro's own n(n-1)/2 pairs can land in E_m, so each is looked
  // up directly.  e.set writes are per-pair independent, so the fill does
  // not depend on visit order.
  const std::vector<AsId>& ases = ctx.ases();
  std::vector<GeoScope> scopes;
  for (std::size_t ia = 0; ia < ases.size(); ++ia) {
    for (std::size_t ib = ia + 1; ib < ases.size(); ++ib) {
      const PairEvidence* ev = evidence.find(ases[ia], ases[ib]);
      if (ev == nullptr) continue;

      // Positive: the geographically closest direct observation wins.
      if (!ev->direct.empty()) {
        GeoScope best = GeoScope::kElsewhere;
        for (MetroId dm : ev->direct)
          best = std::min(best, net.metro_scope(m, dm));
        e.set(ia, ib, positive_rating(best));
      }

      // Negative: the finest transit scope at which both ASes still route
      // consistently; inconsistent ASes yield no non-existence evidence.
      if (!ev->transit.empty()) {
        scopes.clear();
        for (MetroId tm : ev->transit) scopes.push_back(net.metro_scope(m, tm));
        std::sort(scopes.begin(), scopes.end());
        for (GeoScope g : scopes) {
          auto gi = mac::enum_cast<std::size_t>(g);
          if (consistent[gi][ia] && consistent[gi][ib]) {
            e.set(ia, ib, negative_rating(g));
            break;
          }
        }
      }
    }
  }
  return e;
}

}  // namespace metas::core
