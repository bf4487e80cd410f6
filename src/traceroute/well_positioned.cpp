#include "traceroute/well_positioned.hpp"

#include <algorithm>
#include <vector>

#include "util/checkpoint.hpp"
#include "util/numeric.hpp"

namespace metas::traceroute {

using topology::AsId;
using topology::MetroId;

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
