// The estimated connectivity matrix E_m (§3.4): entries in [-1, 1] built
// from traceroute evidence with geographic transferability.
//
//   +1 / +0.7 / +0.4 / +0.1  direct interconnection seen at the metro /
//                            same country / same continent / elsewhere
//   -1 / -0.7 / -0.4 / -0.1  only transit crossings seen, closest one at the
//                            metro / country / continent / elsewhere
//
// When both kinds of evidence exist the biggest absolute value wins.
#pragma once

#include <cstdint>
#include <vector>

#include "topology/metro.hpp"

namespace metas::core {

/// Rating assigned to a direct-link observation at geographic scope `g`.
double positive_rating(topology::GeoScope g);
/// Rating assigned to transit-only evidence whose closest crossing is at `g`.
double negative_rating(topology::GeoScope g);

/// Symmetric, partially-filled n x n rating matrix.
class EstimatedMatrix {
 public:
  EstimatedMatrix() = default;  // empty matrix; resize by assignment
  explicit EstimatedMatrix(std::size_t n);

  std::size_t size() const { return n_; }

  bool filled(std::size_t i, std::size_t j) const { return mask_[i * n_ + j] != 0; }
  double value(std::size_t i, std::size_t j) const { return values_[i * n_ + j]; }

  /// Sets (i, j) and (j, i); when already filled, keeps the entry with the
  /// larger |value| (§3.4). Diagonal writes are rejected.
  void set(std::size_t i, std::size_t j, double v);

  /// Number of filled entries in row i (excluding the diagonal).
  std::size_t row_filled(std::size_t i) const { return row_count_[i]; }
  /// Number of filled entries in the upper triangle.
  std::size_t total_filled() const;

  /// Filled (i, j < i ordering avoided; returns upper-triangle pairs).
  std::vector<std::pair<std::size_t, std::size_t>> filled_entries() const;

 private:
  std::size_t n_ = 0;
  std::vector<double> values_;
  std::vector<std::uint8_t> mask_;
  std::vector<std::size_t> row_count_;
};

}  // namespace metas::core
