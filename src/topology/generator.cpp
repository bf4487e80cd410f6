#include "topology/generator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "util/numeric.hpp"

namespace metas::topology {

namespace {

using util::Rng;

// Latent-model noise and thresholds.
constexpr double kLinkNoise = 0.08;  // stddev of the per-pair score noise
constexpr double kGlobalPeerThreshold = 1.55;
constexpr double kFeatureNoise = 0.30;  // noise deriving features from latents
constexpr double kPolicyKnownProb = 0.88;
// Link probability between two route-server users of one IXP.
constexpr double kIxpRsMeshProb = 0.95;

// The generator works in int ids end to end (metro ids, AS ids, config
// counts); every container subscript and size crosses to std::size_t
// through the checked boundary.
inline std::size_t uz(std::int64_t i) { return mac::checked_cast<std::size_t>(i); }

// Footprint bitmask helpers (metros are limited to 64 so a pair's shared
// footprint test is a single AND).
std::uint64_t mask_of(const std::vector<MetroId>& metros) {
  std::uint64_t m = 0;
  for (MetroId x : metros) m |= (1ULL << x);
  return m;
}

struct ClassParams {
  double frac_lo, frac_hi;     // fraction of all metros in the footprint
  double home_country_bias;    // weight multiplier for home-country metros
  double home_continent_bias;  // weight multiplier for home-continent metros
  double contentness;
  double eyeballness;
  double bias;                 // peering appetite
  double inconsistent_prob;    // probability of inconsistent routing (§3.4)
};

ClassParams params_for(AsClass c) {
  switch (c) {
    case AsClass::kTier1:      return {0.70, 0.95, 1.5, 1.5, 0.10, 0.10, -0.95, 0.30};
    case AsClass::kTier2:      return {0.30, 0.60, 2.0, 3.0, 0.15, 0.20,  0.00, 0.20};
    case AsClass::kHypergiant: return {0.50, 0.85, 1.5, 1.5, 1.20, 0.25,  0.55, 0.50};
    case AsClass::kTransit:    return {0.15, 0.40, 3.0, 5.0, 0.20, 0.20,  0.25, 0.20};
    case AsClass::kLargeIsp:   return {0.08, 0.25, 8.0, 3.0, 0.15, 1.20,  0.30, 0.05};
    case AsClass::kContent:    return {0.10, 0.35, 3.0, 2.5, 1.00, 0.10,  0.45, 0.25};
    case AsClass::kEnterprise: return {0.03, 0.10, 8.0, 3.0, 0.20, 0.50, -0.10, 0.05};
    case AsClass::kStub:       return {0.02, 0.06, 8.0, 3.0, 0.10, 0.80, -0.05, 0.05};
  }
  throw std::logic_error("params_for: unknown class");
}

// Extra score demanded of a pair before peering, by policy (stricter
// policies require more mutual value).
double policy_penalty(PeeringPolicy p) {
  switch (p) {
    case PeeringPolicy::kOpen: return 0.0;
    case PeeringPolicy::kSelective: return 0.35;
    case PeeringPolicy::kRestrictive: return 1.10;
    case PeeringPolicy::kNone: return 0.60;
  }
  return 0.6;
}

constexpr int kIdioOffset0 = 0;  // latent[0]: idiosyncratic trait
constexpr int kContentDim = 1;
constexpr int kEyeballDim = 2;
constexpr int kContinentOffset = 3;

}  // namespace

double pair_score(const AsNode& a, const AsNode& b, int num_continents) {
  const auto& x = a.latent;
  const auto& y = b.latent;
  double ca = x[kContentDim], ea = x[kEyeballDim];
  double cb = y[kContentDim], eb = y[kEyeballDim];
  // Content block: content<->content attraction, strong content<->eyeball
  // complementarity, mild eyeball<->eyeball attraction.
  double s = 0.8 * ca * cb + 1.2 * (ca * eb + ea * cb) + 0.25 * ea * eb;
  s += x[kIdioOffset0] * y[kIdioOffset0];
  for (std::size_t d = kContinentOffset;
       d < mac::checked_cast<std::size_t>(kContinentOffset + num_continents); ++d)
    s += x[d] * y[d];
  for (std::size_t d = mac::checked_cast<std::size_t>(kContinentOffset + num_continents);
       d < x.size(); ++d)
    s += x[d] * y[d];
  s += a.latent_bias + b.latent_bias;
  return s;
}

Internet generate_internet(const GeneratorConfig& cfg) {
  if (cfg.total_metros() > 64)
    throw std::invalid_argument("generate_internet: more than 64 metros");
  if (cfg.latent_dim < kContinentOffset + cfg.num_continents + 1)
    throw std::invalid_argument("generate_internet: latent_dim too small");
  if (cfg.num_focus_metros > cfg.total_metros())
    throw std::invalid_argument("generate_internet: too many focus metros");

  Rng rng(cfg.seed);
  Internet net;
  net.num_continents = cfg.num_continents;
  net.num_countries = cfg.num_continents * cfg.countries_per_continent;

  // ---- Geography -------------------------------------------------------
  const int M = cfg.total_metros();
  static const char* kFocusNames[] = {"Amsterdam", "NewYork",   "Santiago",
                                      "Singapore", "Sydney",    "Tokyo",
                                      "SaoPaulo",  "Frankfurt", "London"};
  std::vector<int> focus_ids;
  for (int f = 0; f < cfg.num_focus_metros; ++f)
    focus_ids.push_back(f * M / cfg.num_focus_metros);

  std::vector<double> gravity(uz(M), 1.0);
  net.metros.resize(uz(M));
  for (int m = 0; m < M; ++m) {
    Metro& metro = net.metros[uz(m)];
    metro.id = m;
    metro.country = m / cfg.metros_per_country;
    metro.continent = metro.country / cfg.countries_per_continent;
    auto it = std::find(focus_ids.begin(), focus_ids.end(), m);
    if (it != focus_ids.end()) {
      std::size_t fi = mac::checked_cast<std::size_t>(it - focus_ids.begin());
      metro.name = fi < std::size(kFocusNames) ? kFocusNames[fi]
                                               : "Focus" + std::to_string(fi);
      gravity[uz(m)] = 7.0;
    } else {
      metro.name = "Metro" + std::to_string(m);
      gravity[uz(m)] = 0.7 + rng.uniform() * 0.8;
    }
  }

  // ---- ASes ------------------------------------------------------------
  struct Band { AsClass cls; int count; };
  const Band bands[] = {
      {AsClass::kTier1, cfg.num_tier1},       {AsClass::kTier2, cfg.num_tier2},
      {AsClass::kHypergiant, cfg.num_hypergiant},
      {AsClass::kTransit, cfg.num_transit},   {AsClass::kLargeIsp, cfg.num_large_isp},
      {AsClass::kContent, cfg.num_content},   {AsClass::kEnterprise, cfg.num_enterprise},
      {AsClass::kStub, cfg.num_stub},
  };

  const int N = cfg.total_ases();
  net.ases.reserve(uz(N));
  std::vector<std::uint64_t> fmask(uz(N), 0);

  for (const Band& band : bands) {
    for (int k = 0; k < band.count; ++k) {
      AsNode node;
      node.id = mac::checked_cast<AsId>(net.ases.size());
      node.cls = band.cls;
      const ClassParams p = params_for(band.cls);

      node.home_continent = rng.uniform_int(0, cfg.num_continents - 1);
      int country_lo = node.home_continent * cfg.countries_per_continent;
      node.home_country =
          country_lo + rng.uniform_int(0, cfg.countries_per_continent - 1);
      int metro_lo = node.home_country * cfg.metros_per_country;
      MetroId home_metro = mac::checked_cast<MetroId>(
          metro_lo + rng.uniform_int(0, cfg.metros_per_country - 1));

      // Footprint: home metro plus weighted draws favouring focus metros and
      // home geography.
      int want = std::max(
          1, mac::checked_cast<int>(std::lround(
                 M * rng.uniform(p.frac_lo, p.frac_hi))));
      std::vector<double> w(uz(M));
      for (int m = 0; m < M; ++m) {
        double wt = gravity[uz(m)];
        if (net.metros[uz(m)].country == node.home_country)
          wt *= p.home_country_bias;
        else if (net.metros[uz(m)].continent == node.home_continent)
          wt *= p.home_continent_bias;
        w[uz(m)] = wt;
      }
      node.footprint.push_back(home_metro);
      w[uz(home_metro)] = 0.0;
      while (mac::checked_cast<int>(node.footprint.size()) < want) {
        double total = 0.0;
        for (double x : w) total += x;
        if (total <= 0.0) break;
        std::size_t m = rng.weighted_index(w);
        node.footprint.push_back(mac::checked_cast<MetroId>(m));
        w[m] = 0.0;
      }
      std::sort(node.footprint.begin(), node.footprint.end());

      // Latent peering-strategy vector.
      node.latent.assign(uz(cfg.latent_dim), 0.0);
      node.latent[uz(kIdioOffset0)] = rng.normal(0.0, 0.35);
      node.latent[uz(kContentDim)] =
          std::max(0.0, p.contentness + rng.normal(0.0, 0.20));
      node.latent[uz(kEyeballDim)] =
          std::max(0.0, p.eyeballness + rng.normal(0.0, 0.20));
      node.latent[uz(kContinentOffset + node.home_continent)] = 1.05;
      for (int d = kContinentOffset + cfg.num_continents; d < cfg.latent_dim; ++d)
        node.latent[uz(d)] = rng.normal(0.0, 0.32);
      node.latent_bias = p.bias + rng.normal(0.0, 0.30);

      // Observable features derived (noisily) from latent state.
      double pol = node.latent_bias + rng.normal(0.0, kFeatureNoise);
      if (pol > 0.35) node.features.policy = PeeringPolicy::kOpen;
      else if (pol > -0.15) node.features.policy = PeeringPolicy::kSelective;
      else if (pol > -0.60) node.features.policy = PeeringPolicy::kRestrictive;
      else node.features.policy = PeeringPolicy::kNone;
      node.features.policy_known = rng.bernoulli(kPolicyKnownProb);
      if (!node.features.policy_known)
        node.features.policy = PeeringPolicy::kNone;

      double tdir = node.latent[uz(kContentDim)] - node.latent[uz(kEyeballDim)] +
                    rng.normal(0.0, kFeatureNoise);
      if (tdir > 0.55) node.features.traffic = TrafficProfile::kHeavyOutbound;
      else if (tdir > 0.20) node.features.traffic = TrafficProfile::kMostlyOutbound;
      else if (tdir > -0.20) node.features.traffic = TrafficProfile::kBalanced;
      else if (tdir > -0.55) node.features.traffic = TrafficProfile::kMostlyInbound;
      else node.features.traffic = TrafficProfile::kHeavyInbound;

      node.features.eyeballs =
          node.latent[uz(kEyeballDim)] > 0.05
              ? node.latent[uz(kEyeballDim)] * rng.pareto(2.0e4, 1.3)
              : rng.uniform(0.0, 500.0);
      node.features.ip_space = rng.pareto(256.0, 1.1);
      node.features.country = node.home_country;

      node.consistent_routing = !rng.bernoulli(p.inconsistent_prob);
      // Responsiveness to probes is highly heterogeneous in practice: many
      // networks rate-limit or drop ICMP entirely.
      node.responsiveness = rng.bernoulli(0.25) ? rng.uniform(0.25, 0.55)
                                                : rng.uniform(0.70, 0.99);

      fmask[uz(node.id)] = mask_of(node.footprint);
      net.ases.push_back(std::move(node));
    }
  }

  net.providers.assign(uz(N), {});
  net.customers.assign(uz(N), {});
  net.peers.assign(uz(N), {});

  // Per-(AS, metro) activity level: how aggressively the AS interconnects at
  // that metro. Most presences are "full" (activity 1); the rest are partial
  // PoPs. Because the level is drawn once per (AS, metro) and reused for all
  // of that AS's pairs, per-metro instantiation stays *structured* and the
  // metro connectivity matrices remain effectively low-rank -- the paper's
  // central premise (Appx. B).
  std::vector<std::vector<double>> activity(
      uz(N), std::vector<double>(uz(M), 0.0));
  for (const AsNode& a : net.ases)
    for (MetroId m : a.footprint)
      activity[mac::checked_cast<std::size_t>(a.id)][mac::checked_cast<std::size_t>(m)] =
          rng.bernoulli(0.80) ? 1.0 : rng.uniform(0.20, 0.62);
  // Deterministic instantiation rule: a link present somewhere exists at a
  // shared metro iff the two activity levels are jointly high enough. Being
  // a function of per-(AS, metro) state only, this keeps T_m low-rank.
  auto present_at = [&](AsId a, AsId b, MetroId m) {
    return activity[mac::checked_cast<std::size_t>(a)][mac::checked_cast<std::size_t>(m)] +
               activity[mac::checked_cast<std::size_t>(b)][mac::checked_cast<std::size_t>(m)] >=
           1.35;
  };

  // During generation, link metros accumulate unsorted; sorted at the end.
  auto add_link = [&](AsId a, AsId b, Relationship rel,
                      std::vector<MetroId> where) {
    LinkInfo& li = net.link_map[pair_key(a, b)];
    li.rel = rel;
    for (MetroId m : where) li.metros.push_back(m);
  };
  auto add_link_metro = [&](AsId a, AsId b, MetroId m) {
    auto it = net.link_map.find(pair_key(a, b));
    if (it == net.link_map.end()) {
      add_link(a, b, Relationship::kPeerToPeer, {m});
      net.peers[uz(a)].push_back(b);
      net.peers[uz(b)].push_back(a);
    } else {
      it->second.metros.push_back(m);
    }
  };

  auto shared_metros = [&](AsId a, AsId b) {
    std::vector<MetroId> out;
    std::uint64_t inter = fmask[uz(a)] & fmask[uz(b)];
    while (inter != 0) {
      int m = std::countr_zero(inter);
      out.push_back(mac::checked_cast<MetroId>(m));
      inter &= inter - 1;
    }
    return out;
  };

  // ---- Customer-provider hierarchy --------------------------------------
  auto class_range = [&](AsClass c) {
    std::vector<AsId> ids;
    for (const AsNode& a : net.ases)
      if (a.cls == c) ids.push_back(a.id);
    return ids;
  };
  const auto tier1 = class_range(AsClass::kTier1);
  const auto tier2 = class_range(AsClass::kTier2);
  const auto transit = class_range(AsClass::kTransit);
  const auto large_isp = class_range(AsClass::kLargeIsp);

  // Transit market share: a heavy-tailed per-AS attractiveness makes a few
  // providers dominate each region, giving the c2p rows the blocky structure
  // real regional markets show (and keeping metro matrices low-rank).
  std::vector<double> market_share(mac::checked_cast<std::size_t>(N), 1.0);
  for (auto& msv : market_share) msv = rng.pareto(1.0, 1.2);
  auto choose_providers = [&](AsId cust, const std::vector<AsId>& pool,
                              int lo, int hi) {
    if (pool.empty()) return;
    int want = rng.uniform_int(lo, hi);
    std::vector<double> w(pool.size());
    const AsNode& cn = net.ases[uz(cust)];
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const AsNode& pn = net.ases[uz(pool[i])];
      bool shares = (fmask[uz(cust)] & fmask[uz(pool[i])]) != 0;
      double wt = (shares ? 2.0 : 0.4) * market_share[uz(pool[i])];
      if (pn.home_country == cn.home_country) wt *= 8.0;
      else if (pn.home_continent == cn.home_continent) wt *= 2.5;
      w[i] = wt;
    }
    std::vector<AsId> chosen;
    for (int k = 0; k < want; ++k) {
      double total = 0.0;
      for (double x : w) total += x;
      if (total <= 0.0) break;
      std::size_t pi = rng.weighted_index(w);
      w[pi] = 0.0;
      chosen.push_back(pool[pi]);
    }
    for (AsId prov : chosen) {
      net.providers[uz(cust)].push_back(prov);
      net.customers[uz(prov)].push_back(cust);
      auto shared = shared_metros(cust, prov);
      if (shared.empty()) {
        // Model the provider extending a PoP to reach the customer.
        MetroId hm = net.ases[uz(cust)].footprint.front();
        auto& pf = net.ases[uz(prov)].footprint;
        pf.insert(std::lower_bound(pf.begin(), pf.end(), hm), hm);
        fmask[uz(prov)] |= (1ULL << hm);
        shared = {hm};
      }
      std::vector<MetroId> where;
      for (MetroId m : shared)
        if (present_at(cust, prov, m)) where.push_back(m);
      if (where.empty()) where.push_back(rng.pick(shared));
      add_link(cust, prov, Relationship::kCustomerToProvider, where);
    }
  };

  std::vector<AsId> t12 = tier1;
  t12.insert(t12.end(), tier2.begin(), tier2.end());
  std::vector<AsId> mid = t12;
  mid.insert(mid.end(), transit.begin(), transit.end());
  std::vector<AsId> edge_pool = transit;
  edge_pool.insert(edge_pool.end(), large_isp.begin(), large_isp.end());
  edge_pool.insert(edge_pool.end(), tier2.begin(), tier2.end());

  for (const AsNode& a : net.ases) {
    switch (a.cls) {
      case AsClass::kTier1: break;  // no providers
      case AsClass::kTier2: choose_providers(a.id, tier1, 2, 3); break;
      case AsClass::kHypergiant: choose_providers(a.id, t12, 1, 2); break;
      case AsClass::kTransit: choose_providers(a.id, t12, 1, 3); break;
      case AsClass::kLargeIsp: choose_providers(a.id, mid, 1, 3); break;
      case AsClass::kContent:
      case AsClass::kEnterprise: choose_providers(a.id, edge_pool, 1, 3); break;
      case AsClass::kStub: choose_providers(a.id, edge_pool, 1, 2); break;
    }
  }

  // ---- Tier-1 peering clique --------------------------------------------
  for (std::size_t i = 0; i < tier1.size(); ++i) {
    for (std::size_t j = i + 1; j < tier1.size(); ++j) {
      auto shared = shared_metros(tier1[i], tier1[j]);
      if (shared.empty()) continue;
      std::vector<MetroId> where;
      for (MetroId m : shared)
        if (present_at(tier1[i], tier1[j], m)) where.push_back(m);
      if (where.empty()) where.push_back(rng.pick(shared));
      add_link(tier1[i], tier1[j], Relationship::kPeerToPeer, where);
      net.peers[uz(tier1[i])].push_back(tier1[j]);
      net.peers[uz(tier1[j])].push_back(tier1[i]);
    }
  }

  // ---- Bilateral peering from the latent factor model --------------------
  for (AsId i = 0; i < N; ++i) {
    for (AsId j = i + 1; j < N; ++j) {
      if ((fmask[uz(i)] & fmask[uz(j)]) == 0) continue;
      if (net.link_map.count(pair_key(i, j)) != 0) continue;
      const AsNode& a = net.ases[uz(i)];
      const AsNode& b = net.ases[uz(j)];
      double s = pair_score(a, b, cfg.num_continents) +
                 rng.normal(0.0, kLinkNoise);
      // Policy penalties use the *true* latent appetite bucket, not the
      // (possibly hidden) reported policy.
      auto bucket = [](double bias) {
        if (bias > 0.35) return PeeringPolicy::kOpen;
        if (bias > -0.15) return PeeringPolicy::kSelective;
        if (bias > -0.60) return PeeringPolicy::kRestrictive;
        return PeeringPolicy::kNone;
      };
      double threshold = kGlobalPeerThreshold +
                         policy_penalty(bucket(a.latent_bias)) +
                         policy_penalty(bucket(b.latent_bias));
      if (s <= threshold) continue;

      auto shared = shared_metros(i, j);
      std::vector<MetroId> where;
      for (MetroId m : shared)
        if (present_at(i, j, m)) where.push_back(m);
      if (where.empty()) where.push_back(rng.pick(shared));
      add_link(i, j, Relationship::kPeerToPeer, where);
      net.peers[uz(i)].push_back(j);
      net.peers[uz(j)].push_back(i);
    }
  }

  // ---- IXPs and route-server meshes --------------------------------------
  // Every focus metro hosts an IXP; other metros host one with prob 0.4.
  for (int m = 0; m < M; ++m) {
    bool focus =
        std::find(focus_ids.begin(), focus_ids.end(), m) != focus_ids.end();
    if (!focus && !rng.bernoulli(0.4)) continue;
    Ixp ixp;
    ixp.id = mac::checked_cast<int>(net.ixps.size());
    ixp.metro = m;
    for (const AsNode& a : net.ases) {
      if ((fmask[uz(a.id)] & (1ULL << m)) == 0) continue;
      double join = 0.15, rs = 0.2;
      switch (a.features.policy) {
        case PeeringPolicy::kOpen: join = 0.60; rs = 0.70; break;
        case PeeringPolicy::kSelective: join = 0.35; rs = 0.25; break;
        case PeeringPolicy::kRestrictive: join = 0.08; rs = 0.02; break;
        case PeeringPolicy::kNone: join = 0.15; rs = 0.20; break;
      }
      if (!rng.bernoulli(join)) continue;
      ixp.members.push_back(a.id);
      if (rng.bernoulli(rs)) ixp.route_server_users.push_back(a.id);
    }
    for (std::size_t i = 0; i < ixp.route_server_users.size(); ++i)
      for (std::size_t j = i + 1; j < ixp.route_server_users.size(); ++j)
        if (rng.bernoulli(kIxpRsMeshProb))
          add_link_metro(ixp.route_server_users[i], ixp.route_server_users[j],
                         mac::checked_cast<MetroId>(m));
    net.metros[uz(m)].ixps.push_back(ixp.id);
    net.ixps.push_back(std::move(ixp));
  }

  // ---- Normalize links, fill metro membership, build truth ---------------
  // Sorted-key traversal (R10): both loops below are per-entry independent,
  // but ordered traversal keeps them trivially safe to parallelize or to
  // grow output-affecting logic later.
  const std::vector<std::uint64_t> link_keys = net.sorted_link_keys();
  for (std::uint64_t key : link_keys) {
    LinkInfo& li = net.link_map.at(key);
    std::sort(li.metros.begin(), li.metros.end());
    li.metros.erase(std::unique(li.metros.begin(), li.metros.end()),
                    li.metros.end());
  }
  for (const AsNode& a : net.ases)
    for (MetroId m : a.footprint)
      net.metros[mac::checked_cast<std::size_t>(m)].ases.push_back(a.id);

  net.truth.reserve(uz(M));
  for (int m = 0; m < M; ++m)
    net.truth.emplace_back(mac::checked_cast<MetroId>(m), net.metros[uz(m)].ases);
  for (std::uint64_t key : link_keys) {
    const LinkInfo& li = net.link_map.at(key);
    AsId a = mac::checked_cast<AsId>(key & 0xffffffffULL);
    AsId b = mac::checked_cast<AsId>(key >> 32);
    for (MetroId m : li.metros) {
      MetroTruth& t = net.truth[mac::checked_cast<std::size_t>(m)];
      int ia = t.local_index(a), ib = t.local_index(b);
      if (ia >= 0 && ib >= 0)
        t.set_link(mac::checked_cast<std::size_t>(ia), mac::checked_cast<std::size_t>(ib),
                   true);
    }
  }

  net.finalize_derived_state();
  return net;
}

}  // namespace metas::topology
