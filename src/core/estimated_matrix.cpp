#include "core/estimated_matrix.hpp"

#include <cmath>
#include <stdexcept>

#include "util/contracts.hpp"

namespace metas::core {

double positive_rating(topology::GeoScope g) {
  switch (g) {
    case topology::GeoScope::kSameMetro: return 1.0;
    case topology::GeoScope::kSameCountry: return 0.7;
    case topology::GeoScope::kSameContinent: return 0.4;
    case topology::GeoScope::kElsewhere: return 0.1;
  }
  return 0.1;
}

double negative_rating(topology::GeoScope g) {
  return -positive_rating(g);
}

EstimatedMatrix::EstimatedMatrix(std::size_t n)
    : n_(n), values_(n * n, 0.0), mask_(n * n, 0), row_count_(n, 0) {}

void EstimatedMatrix::set(std::size_t i, std::size_t j, double v) {
  if (i == j) throw std::invalid_argument("EstimatedMatrix::set: diagonal");
  if (i >= n_ || j >= n_) throw std::out_of_range("EstimatedMatrix::set");
  // Ratings are geo-scope confidences in [-1, 1] (§3.4); anything outside
  // means a caller skipped positive_rating()/negative_rating().
  MAC_REQUIRE(std::isfinite(v) && v >= -1.0 && v <= 1.0, "v=", v);
  std::size_t a = i * n_ + j, b = j * n_ + i;
  if (mask_[a] != 0) {
    if (std::fabs(v) <= std::fabs(values_[a])) return;
    values_[a] = values_[b] = v;
    return;
  }
  mask_[a] = mask_[b] = 1;
  values_[a] = values_[b] = v;
  ++row_count_[i];
  ++row_count_[j];
}

std::size_t EstimatedMatrix::total_filled() const {
  std::size_t c = 0;
  for (std::size_t i = 0; i < n_; ++i) c += row_count_[i];
  return c / 2;
}

std::vector<std::pair<std::size_t, std::size_t>> EstimatedMatrix::filled_entries()
    const {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  out.reserve(total_filled());
  for (std::size_t i = 0; i < n_; ++i)
    for (std::size_t j = i + 1; j < n_; ++j)
      if (filled(i, j)) out.emplace_back(i, j);
  return out;
}

}  // namespace metas::core
