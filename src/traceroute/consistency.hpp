// Consistent-routing detection and well-positioned-vantage-point tracking
// (§3.4, Appx. D.5).
//
// An AS routes consistently toward a peer at a granularity if observations
// never mix direct interconnections and transit crossings within that
// granularity.  ASes participating in inconsistent pairs are eliminated
// iteratively (highest inconsistency count first) until the remaining
// submatrix is consistent -- only those ASes support non-existence inference
// and geographic transferability.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "topology/internet.hpp"
#include "traceroute/observations.hpp"
#include "util/numeric.hpp"

namespace metas::util::checkpoint {
class Encoder;
class Decoder;
}  // namespace metas::util::checkpoint

namespace metas::traceroute {

class ConsistencyTracker {
 public:
  explicit ConsistencyTracker(const topology::Internet& net) : net_(&net) {}

  /// Records observations from one traceroute.
  void ingest(const TraceObservations& obs);

  /// True if the pair mixes direct and transit evidence within `g`
  /// (i.e., a direct metro and a transit metro that are `g`-close).  O(log I)
  /// for I inconsistent pairs.
  bool pair_inconsistent(topology::AsId a, topology::AsId b,
                         topology::GeoScope g) const;

  /// Iteratively eliminates the ASes with the most inconsistent pairs at
  /// granularity `g`; returns a membership flag per AS id in `universe`
  /// (true = consistent, usable for transfer / non-existence inference).
  /// Walks only the inconsistent-pair index, not every tracked pair.
  std::vector<bool> consistent_set(topology::GeoScope g,
                                   const std::vector<topology::AsId>& universe) const;

  std::size_t pairs_tracked() const { return pair_data_.size(); }

  /// Checkpoint serialization in sorted-key order (byte-stable across runs).
  void save(util::checkpoint::Encoder& enc) const;
  void load(util::checkpoint::Decoder& dec);

 private:
  struct PairEvidence {
    std::set<topology::MetroId> direct;
    std::set<topology::MetroId> transit;
  };
  /// Folds one new (direct, transit) metro combination into the index.
  void note_mix(std::uint64_t key, topology::MetroId direct,
                topology::MetroId transit);

  const topology::Internet* net_;  // lint: allow(view-member) -- the World owns the Internet and every checker scoped inside a run of it
  std::unordered_map<std::uint64_t, PairEvidence> pair_data_;
  // Derived from pair_data_ (never serialized; load() rebuilds it): pair key
  // -> the finest scope at which the pair is inconsistent, i.e. the closest
  // (direct, transit) metro combination.  Evidence only grows and a pair
  // inconsistent at scope g is inconsistent at every coarser one, so
  // ingest() keeps this exact incrementally.
  std::map<std::uint64_t, topology::GeoScope> inconsistent_;
};

/// Tracks which (AS, metro) interfaces each vantage point has traversed.
/// A VP is well positioned for (i, m) if it has never issued a measurement or
/// has previously crossed AS i at metro m (§3.4).
class WellPositionedTracker {
 public:
  /// Records a completed traceroute (responsive hops only).
  void ingest(const TraceResult& trace);

  bool well_positioned(int vp_id, topology::AsId i, topology::MetroId m) const;

  /// Checkpoint serialization in sorted-key order (byte-stable across runs).
  void save(util::checkpoint::Encoder& enc) const;
  void load(util::checkpoint::Decoder& dec);

 private:
  static std::uint64_t key(topology::AsId as, topology::MetroId m) {
    return (mac::checked_cast<std::uint64_t>(mac::checked_cast<std::uint32_t>(as)) << 16) |
           mac::checked_cast<std::uint16_t>(m);
  }
  std::unordered_map<int, std::size_t> issued_;
  std::unordered_map<int, std::unordered_set<std::uint64_t>> traversed_;
};

}  // namespace metas::traceroute
