// Well-positioned-vantage-point tracking (§3.4): a transit crossing is
// trusted as non-existence evidence only when the issuing VP was well
// positioned for the crossing.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "topology/internet.hpp"
#include "traceroute/observations.hpp"
#include "util/numeric.hpp"

namespace metas::util::checkpoint {
class Encoder;
class Decoder;
}  // namespace metas::util::checkpoint

namespace metas::traceroute {

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
