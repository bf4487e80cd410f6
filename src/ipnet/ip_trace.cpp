#include "ipnet/ip_trace.hpp"

#include <cctype>

#include "util/numeric.hpp"

namespace metas::ipnet {

using topology::AsId;
using topology::kInvalidAs;
using topology::MetroId;

IpTraceResult to_ip_trace(const traceroute::TraceResult& trace,
                          const AddressPlan& plan) {
  IpTraceResult out;
  out.src_as = trace.src_as;
  out.src_metro = trace.src_metro;
  out.dst_as = trace.dst_as;
  if (trace.hops.empty()) return out;

  // The probe's own address.
  IpHop first;
  first.ip = plan.host_address(trace.src_as, trace.src_metro);
  first.responsive = true;
  first.rdns = plan.rdns(first.ip);
  out.hops.push_back(first);

  for (std::size_t k = 1; k < trace.hops.size(); ++k) {
    const auto& prev = trace.hops[k - 1];
    const auto& hop = trace.hops[k];
    IpHop h;
    h.responsive = hop.responsive;
    if (hop.responsive) {
      // The ingress interface of this AS on the link from the previous AS,
      // at the true interconnection metro.
      h.ip = plan.interface_ip(hop.as, prev.as, hop.as, hop.true_ingress);
      h.rdns = plan.rdns(h.ip);
    }
    out.hops.push_back(h);
  }
  return out;
}

void BorderMapper::ingest(const IpTraceResult& trace) {
  const auto& hops = trace.hops;
  for (std::size_t k = 1; k < hops.size(); ++k) {
    if (!hops[k].responsive) continue;
    if (known_.count(hops[k].ip) != 0) continue;  // already resolved
    AsId naive = naive_map(hops[k].ip);
    if (naive == kInvalidAs) continue;

    // Evidence kind (i): the prober *knows* the destination AS, so when the
    // trace genuinely terminated, its final responsive hop sits in the
    // destination AS regardless of whose space numbered the interface.
    if (k + 1 == hops.size()) {
      if (trace.dst_as != kInvalidAs && trace.dst_as != naive)
        votes_[hops[k].ip][trace.dst_as] += 4;
      continue;
    }

    // Evidence kind (ii), mid-path: the far-side-numbering signature (naive
    // owner repeats the previous hop's) plus the next hop's naive owner as a
    // weak candidate vote.
    if (!hops[k - 1].responsive || !hops[k + 1].responsive) continue;
    AsId prev = naive_map(hops[k - 1].ip);
    if (prev != naive) continue;
    AsId candidate = naive_map(hops[k + 1].ip);
    if (candidate == kInvalidAs || candidate == naive) continue;
    votes_[hops[k].ip][candidate] += 1;
  }
}

AsId BorderMapper::naive_map(Ip ip) const {
  auto owner = announced_->lookup(ip);
  return owner ? mac::checked_cast<AsId>(*owner) : kInvalidAs;
}

AsId BorderMapper::map(Ip ip) const {
  auto k = known_.find(ip);
  if (k != known_.end()) return k->second;
  auto it = votes_.find(ip);
  if (it != votes_.end()) {
    AsId best = kInvalidAs;
    int best_votes = 0, total = 0;
    // Lowest-AS tie-break keeps the argmax independent of hash-map order.
    // Behavior-neutral: a tied winner can hold at most half the votes, so
    // it always fails the strict-majority test below regardless of which
    // tied AS is picked.
    for (const auto& [as, v] : it->second) {
      total += v;
      if (v > best_votes || (v == best_votes && as < best)) {
        best_votes = v;
        best = as;
      }
    }
    // A strict majority of the evidence is required to override the
    // longest-prefix match.
    if (best != kInvalidAs && 2 * best_votes > total) return best;
  }
  return naive_map(ip);
}

MetroId InterfaceGeolocator::locate(Ip ip, const std::string& rdns) const {
  // 1. IXP peering-LAN prefix: the IXP's metro.
  if (auto ixp_id = ixp_prefixes_->lookup(ip)) {
    for (const auto& ixp : *ixps_)
      if (ixp.id == *ixp_id) return ixp.metro;
  }
  // 2. rDNS hint: "...m<digits>..." label.
  auto pos = rdns.find(".m");
  if (pos != std::string::npos) {
    std::size_t start = pos + 2;
    std::size_t end = start;
    while (end < rdns.size() && std::isdigit(mac::checked_cast<unsigned char>(rdns[end])))
      ++end;
    if (end > start)
      return mac::checked_cast<MetroId>(std::stoi(rdns.substr(start, end - start)));
  }
  return -1;
}

}  // namespace metas::ipnet
