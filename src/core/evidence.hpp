// Global evidence store: every direct-link and transit observation collected
// across all traceroutes, from which the per-metro estimated matrix E_m is
// derived with geographic transferability (§3.4).
//
// The same per-pair observations serve twice.  Direct metros and transit
// crossings from well-positioned vantage points fill E_m; direct and *all*
// transit metros decide which ASes route consistently (§3.4, Appx. D.5): an
// AS routes consistently toward a peer at a granularity if observations
// never mix direct interconnections and transit crossings within that
// granularity.  ASes in inconsistent pairs are eliminated iteratively
// (highest inconsistency count first) until the remaining submatrix is
// consistent -- only those ASes support non-existence inference, so the
// negative fill additionally requires both ASes to route consistently at
// the relevant granularity at E_m build time.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "core/estimated_matrix.hpp"
#include "core/metro_context.hpp"
#include "traceroute/observations.hpp"
#include "traceroute/well_positioned.hpp"

namespace metas::util::checkpoint {
class Encoder;
class Decoder;
}  // namespace metas::util::checkpoint

namespace metas::core {

/// Accumulated evidence about one AS pair.
struct PairEvidence {
  std::set<MetroId> direct;  // metros with a witnessed interconnection
  /// Metros with a transit crossing -> whether any crossing there came from
  /// a well-positioned vantage point.  Every crossing counts toward routing
  /// consistency; only flagged ones yield non-existence evidence.
  std::map<MetroId, bool> transit;
};

class EvidenceStore {
 public:
  explicit EvidenceStore(const topology::Internet& net) : net_(&net) {}

  /// Ingests one traceroute.  A transit crossing is flagged when the issuing
  /// vantage point was well positioned for the near-side AS at the crossing
  /// metro *before* this trace; the trace then updates the well-positioned
  /// state, last.
  void ingest(const traceroute::TraceResult& trace,
              const traceroute::TraceObservations& obs);

  /// Well-positioned state as of the last ingest (§3.4).
  bool well_positioned(int vp_id, AsId i, MetroId m) const {
    return wp_.well_positioned(vp_id, i, m);
  }

  const PairEvidence* find(AsId a, AsId b) const;
  std::size_t pairs() const { return pairs_.size(); }

  const std::unordered_map<std::uint64_t, PairEvidence>& all() const {
    return pairs_;
  }

  /// Pair keys in ascending order: the sanctioned way to traverse `all()`,
  /// so no consumer depends on unordered iteration order (tools/lint.py
  /// R10).  O(P log P); cache the result when looping.
  std::vector<std::uint64_t> sorted_keys() const;

  /// True if the pair mixes direct and transit evidence within `g`
  /// (i.e., a direct metro and a transit metro that are `g`-close).  O(log I)
  /// for I inconsistent pairs.
  bool pair_inconsistent(AsId a, AsId b, topology::GeoScope g) const;

  /// Iteratively eliminates the ASes with the most inconsistent pairs at
  /// granularity `g`; returns a membership flag per AS id in `universe`
  /// (true = consistent, usable for transfer / non-existence inference).
  /// Walks only the inconsistent-pair index, not every stored pair.
  std::vector<bool> consistent_set(topology::GeoScope g,
                                   const std::vector<AsId>& universe) const;

  /// Checkpoint serialization in sorted-key order (byte-stable across runs).
  void save(util::checkpoint::Encoder& enc) const;
  void load(util::checkpoint::Decoder& dec);

 private:
  /// Folds one new (direct, transit) metro combination into the index.
  void note_mix(std::uint64_t key, MetroId direct, MetroId transit);

  const topology::Internet* net_;  // lint: allow(view-member) -- the World owns the Internet and every store scoped inside a run of it
  std::unordered_map<std::uint64_t, PairEvidence> pairs_;
  // Derived from pairs_ (never serialized; load() rebuilds it): pair key ->
  // the finest scope at which the pair is inconsistent, i.e. the closest
  // (direct, transit) metro combination.  Evidence only grows and a pair
  // inconsistent at scope g is inconsistent at every coarser one, so
  // ingest() keeps this exact incrementally.
  std::map<std::uint64_t, topology::GeoScope> inconsistent_;
  traceroute::WellPositionedTracker wp_;
};

/// Derives E_m for a metro from global evidence (§3.4):
///  - positive fill: best geographic scope of any direct observation;
///  - negative fill: closest well-positioned transit scope, only when both
///    ASes are routing consistently at that granularity.
EstimatedMatrix build_estimated_matrix(const MetroContext& ctx,
                                       const EvidenceStore& evidence);

}  // namespace metas::core
