// Geography: continents, countries, metros, and IXPs.
//
// metAScritic operates at metro granularity; geographic transferability
// (§3.4) needs the metro -> country -> continent hierarchy, and the IXP
// route-server effect (§2, Appx. B) needs per-metro IXP membership.
#pragma once

#include <string>
#include <vector>

#include "topology/as_node.hpp"

namespace metas::topology {

/// Geographic proximity buckets used for both measurement-strategy
/// categorization (§3.3.2) and rating transferability (§3.4).
enum class GeoScope : std::uint8_t {
  kSameMetro,
  kSameCountry,
  kSameContinent,
  kElsewhere,
};
constexpr int kNumGeoScopes = 4;

/// An Internet exchange point within a metro. Members connected to the route
/// server form a (nearly) full peering mesh -- the rank-1 block of Appx. B.
struct Ixp {
  int id = 0;
  MetroId metro = -1;
  std::vector<AsId> members;
  std::vector<AsId> route_server_users;  // subset of members
};

/// A metropolitan area.
struct Metro {
  MetroId id = -1;
  std::string name;
  int country = 0;
  int continent = 0;
  std::vector<AsId> ases;   // ASes with presence here
  std::vector<int> ixps;    // indices into Internet::ixps
};

/// Relates two (country, continent) placements.
GeoScope geo_scope(int country_a, int continent_a, int country_b,
                   int continent_b);

}  // namespace metas::topology
