#include "traceroute/consistency.hpp"

#include <algorithm>

#include "util/checkpoint.hpp"
#include "util/numeric.hpp"

namespace metas::traceroute {

using topology::AsId;
using topology::GeoScope;
using topology::MetroId;
using topology::pair_key;

void ConsistencyTracker::ingest(const TraceObservations& obs) {
  for (const LinkObs& l : obs.links) {
    if (l.metro < 0) continue;
    const std::uint64_t key = pair_key(l.a, l.b);
    PairEvidence& ev = pair_data_[key];
    if (!ev.direct.insert(l.metro).second) continue;
    for (MetroId t : ev.transit) note_mix(key, l.metro, t);
  }
  for (const TransitObs& t : obs.transits) {
    MetroId m = t.metro_b_side >= 0 ? t.metro_b_side : t.metro_a_side;
    if (m < 0) continue;
    const std::uint64_t key = pair_key(t.a, t.b);
    PairEvidence& ev = pair_data_[key];
    if (!ev.transit.insert(m).second) continue;
    for (MetroId d : ev.direct) note_mix(key, d, m);
  }
}

void ConsistencyTracker::note_mix(std::uint64_t key, MetroId direct,
                                  MetroId transit) {
  const GeoScope g = net_->metro_scope(direct, transit);
  auto [it, inserted] = inconsistent_.emplace(key, g);
  if (!inserted) it->second = std::min(it->second, g);
}

bool ConsistencyTracker::pair_inconsistent(AsId a, AsId b, GeoScope g) const {
  auto it = inconsistent_.find(pair_key(a, b));
  return it != inconsistent_.end() &&
         mac::enum_cast<int>(it->second) <= mac::enum_cast<int>(g);
}

std::vector<bool> ConsistencyTracker::consistent_set(
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

void WellPositionedTracker::ingest(const TraceResult& trace) {
  ++issued_[trace.vp_id];
  auto& seen = traversed_[trace.vp_id];
  for (const Hop& h : trace.hops) {
    if (!h.responsive || h.observed_ingress < 0) continue;
    seen.insert(key(h.as, h.observed_ingress));
  }
  // The probe's own AS at its own metro counts as traversed.
  if (!trace.hops.empty())
    seen.insert(key(trace.src_as, trace.src_metro));
}

bool WellPositionedTracker::well_positioned(int vp_id, AsId i, MetroId m) const {
  auto it = issued_.find(vp_id);
  if (it == issued_.end() || it->second == 0) return true;  // never issued
  auto ts = traversed_.find(vp_id);
  return ts != traversed_.end() && ts->second.count(key(i, m)) != 0;
}

void ConsistencyTracker::save(util::checkpoint::Encoder& enc) const {
  std::vector<std::uint64_t> keys;
  keys.reserve(pair_data_.size());
  for (const auto& [key, ev] : pair_data_)  // lint: allow(unordered-iter) -- key harvest only; sorted below before anything is emitted
    keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  enc.u64(keys.size());
  for (std::uint64_t key : keys) {
    const PairEvidence& ev = pair_data_.at(key);
    enc.u64(key);
    enc.u64(ev.direct.size());
    for (MetroId m : ev.direct) enc.i32(m);  // std::set iterates sorted
    enc.u64(ev.transit.size());
    for (MetroId m : ev.transit) enc.i32(m);
  }
}

void ConsistencyTracker::load(util::checkpoint::Decoder& dec) {
  pair_data_.clear();
  const std::uint64_t n = dec.u64();
  for (std::uint64_t k = 0; k < n; ++k) {
    PairEvidence& ev = pair_data_[dec.u64()];
    const std::uint64_t nd = dec.u64();
    for (std::uint64_t d = 0; d < nd; ++d) ev.direct.insert(dec.i32());
    const std::uint64_t nt = dec.u64();
    for (std::uint64_t t = 0; t < nt; ++t) ev.transit.insert(dec.i32());
  }
  inconsistent_.clear();
  for (const auto& [key, ev] : pair_data_)  // lint: allow(unordered-iter) -- note_mix folds with min per key; the index is independent of visit order
    for (MetroId d : ev.direct)
      for (MetroId t : ev.transit) note_mix(key, d, t);
}

void WellPositionedTracker::save(util::checkpoint::Encoder& enc) const {
  std::vector<int> vp_ids;
  vp_ids.reserve(issued_.size());
  for (const auto& [vp, count] : issued_)  // lint: allow(unordered-iter) -- key harvest only; sorted below before anything is emitted
    vp_ids.push_back(vp);
  std::sort(vp_ids.begin(), vp_ids.end());
  enc.u64(vp_ids.size());
  for (int vp : vp_ids) {
    enc.i32(vp);
    enc.u64(issued_.at(vp));
    auto it = traversed_.find(vp);
    std::vector<std::uint64_t> seen;
    if (it != traversed_.end()) {
      seen.reserve(it->second.size());
      for (std::uint64_t k : it->second)  // lint: allow(unordered-iter) -- key harvest only; sorted below before anything is emitted
        seen.push_back(k);
      std::sort(seen.begin(), seen.end());
    }
    enc.u64(seen.size());
    for (std::uint64_t k : seen) enc.u64(k);
  }
}

void WellPositionedTracker::load(util::checkpoint::Decoder& dec) {
  issued_.clear();
  traversed_.clear();
  const std::uint64_t n = dec.u64();
  for (std::uint64_t k = 0; k < n; ++k) {
    const int vp = dec.i32();
    issued_[vp] = dec.u64();
    auto& seen = traversed_[vp];
    const std::uint64_t ns = dec.u64();
    for (std::uint64_t s = 0; s < ns; ++s) seen.insert(dec.u64());
  }
}

}  // namespace metas::traceroute
