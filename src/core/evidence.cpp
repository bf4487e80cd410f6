#include "core/evidence.hpp"

#include <algorithm>

#include "util/checkpoint.hpp"
#include "util/numeric.hpp"

namespace metas::core {

using topology::GeoScope;
using topology::pair_key;

void EvidenceStore::ingest(const traceroute::TraceResult& trace,
                           const traceroute::TraceObservations& obs) {
  for (const auto& l : obs.links) {
    if (l.metro < 0) continue;
    const std::uint64_t key = pair_key(l.a, l.b);
    PairEvidence& ev = pairs_[key];
    if (!ev.direct.insert(l.metro).second) continue;
    for (const auto& [tm, wp] : ev.transit) note_mix(key, l.metro, tm);
  }
  for (const auto& t : obs.transits) {
    MetroId m = t.metro_b_side >= 0 ? t.metro_b_side : t.metro_a_side;
    if (m < 0) continue;
    const bool wp = wp_.well_positioned(trace.vp_id, t.a, m);
    const std::uint64_t key = pair_key(t.a, t.b);
    PairEvidence& ev = pairs_[key];
    auto [it, inserted] = ev.transit.emplace(m, wp);
    it->second = it->second || wp;
    if (!inserted) continue;
    for (MetroId dm : ev.direct) note_mix(key, dm, m);
  }
  // Last: every check above reads the state from before this trace.
  wp_.ingest(trace);
}

void EvidenceStore::note_mix(std::uint64_t key, MetroId direct,
                             MetroId transit) {
  const GeoScope g = net_->metro_scope(direct, transit);
  auto [it, inserted] = inconsistent_.emplace(key, g);
  if (!inserted) it->second = std::min(it->second, g);
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

bool EvidenceStore::pair_inconsistent(AsId a, AsId b, GeoScope g) const {
  auto it = inconsistent_.find(pair_key(a, b));
  return it != inconsistent_.end() &&
         mac::enum_cast<int>(it->second) <= mac::enum_cast<int>(g);
}

std::vector<bool> EvidenceStore::consistent_set(
    GeoScope g, const std::vector<AsId>& universe) const {
  // Collect inconsistent pairs restricted to the universe.
  std::unordered_map<AsId, int> pos;
  for (std::size_t i = 0; i < universe.size(); ++i)
    pos[universe[i]] = mac::checked_cast<int>(i);

  // Sorted-key traversal (R10): the greedy elimination below breaks count
  // ties by universe index, so it is order-independent today -- ordered
  // traversal keeps that property structural rather than incidental.
  struct Pair { int a, b; };
  std::vector<Pair> bad;
  for (const auto& [key, finest] : inconsistent_) {
    if (mac::enum_cast<int>(finest) > mac::enum_cast<int>(g)) continue;
    AsId a = mac::checked_cast<AsId>(key & 0xffffffffULL);
    AsId b = mac::checked_cast<AsId>(key >> 32);
    auto ia = pos.find(a);
    auto ib = pos.find(b);
    if (ia == pos.end() || ib == pos.end()) continue;
    bad.push_back({ia->second, ib->second});
  }
  std::vector<bool> alive(universe.size(), true);
  std::vector<int> count(universe.size(), 0);
  for (const Pair& p : bad) {
    ++count[mac::checked_cast<std::size_t>(p.a)];
    ++count[mac::checked_cast<std::size_t>(p.b)];
  }
  // Iteratively drop the AS involved in the most live inconsistent pairs.
  while (true) {
    int worst = -1, worst_count = 0;
    for (std::size_t i = 0; i < universe.size(); ++i) {
      if (!alive[i]) continue;
      if (count[i] > worst_count) {
        worst_count = count[i];
        worst = mac::checked_cast<int>(i);
      }
    }
    if (worst < 0 || worst_count == 0) break;
    alive[mac::checked_cast<std::size_t>(worst)] = false;
    for (const Pair& p : bad) {
      if (p.a == worst && alive[mac::checked_cast<std::size_t>(p.b)])
        --count[mac::checked_cast<std::size_t>(p.b)];
      if (p.b == worst && alive[mac::checked_cast<std::size_t>(p.a)])
        --count[mac::checked_cast<std::size_t>(p.a)];
    }
    count[mac::checked_cast<std::size_t>(worst)] = 0;
  }
  return alive;
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
    for (const auto& [m, wp] : ev.transit) {  // std::map iterates sorted
      enc.i32(m);
      enc.b(wp);
    }
  }
  wp_.save(enc);
}

void EvidenceStore::load(util::checkpoint::Decoder& dec) {
  pairs_.clear();
  inconsistent_.clear();
  const std::uint64_t n = dec.u64();
  for (std::uint64_t k = 0; k < n; ++k) {
    const std::uint64_t key = dec.u64();
    PairEvidence& ev = pairs_[key];
    const std::uint64_t nd = dec.u64();
    for (std::uint64_t d = 0; d < nd; ++d) ev.direct.insert(dec.i32());
    const std::uint64_t nt = dec.u64();
    for (std::uint64_t t = 0; t < nt; ++t) {
      const MetroId m = dec.i32();
      ev.transit[m] = dec.b();
    }
    for (MetroId d : ev.direct)
      for (const auto& [tm, wp] : ev.transit) note_mix(key, d, tm);
  }
  wp_.load(dec);
}

EstimatedMatrix build_estimated_matrix(const MetroContext& ctx,
                                       const EvidenceStore& evidence) {
  const auto& net = ctx.net();
  const MetroId m = ctx.metro();
  EstimatedMatrix e(ctx.size());

  // Per-granularity consistent-AS sets, computed once over the universe.
  std::vector<std::vector<bool>> consistent(topology::kNumGeoScopes);
  for (int g = 0; g < topology::kNumGeoScopes; ++g)
    consistent[mac::checked_cast<std::size_t>(g)] =
        evidence.consistent_set(static_cast<GeoScope>(g), ctx.ases());

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

      // Negative: the finest well-positioned transit scope at which both
      // ASes still route consistently; inconsistent ASes and crossings seen
      // only from poorly positioned VPs yield no non-existence evidence.
      scopes.clear();
      for (const auto& [tm, wp] : ev->transit)
        if (wp) scopes.push_back(net.metro_scope(m, tm));
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
  return e;
}

}  // namespace metas::core
