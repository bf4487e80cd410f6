#include "core/als.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "linalg/solve.hpp"
#include "util/contracts.hpp"
#include "util/numeric.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"

namespace metas::core {

std::vector<RatingEntry> rating_entries(const EstimatedMatrix& e) {
  std::vector<RatingEntry> out;
  for (auto [i, j] : e.filled_entries()) out.push_back({i, j, e.value(i, j)});
  return out;
}

AlsCompleter::AlsCompleter(std::size_t n, const FeatureMatrix& features,
                           AlsConfig cfg)
    : n_(n), total_(n + features.count()), cfg_(cfg), features_(&features) {
  if (cfg.rank < 1) throw std::invalid_argument("AlsCompleter: rank < 1");
  if (cfg.lambda <= 0.0) throw std::invalid_argument("AlsCompleter: lambda <= 0");
  if (cfg.iterations < 1)
    throw std::invalid_argument("AlsCompleter: iterations < 1");
  for (const auto& row : features.rows)
    if (row.size() != n)
      throw std::invalid_argument("AlsCompleter: feature row size mismatch");
}

void AlsCompleter::fit(const std::vector<RatingEntry>& observed) {
  MAC_SPAN("als.fit");
  MAC_COUNT("als.fits_started");
  MAC_COUNT_N("als.observed_entries", observed.size());
  for (const RatingEntry& e : observed)
    if (e.i == e.j || e.i >= n_ || e.j >= n_)
      throw std::invalid_argument("AlsCompleter::fit: bad entry index");
  const auto r = mac::checked_cast<std::size_t>(cfg_.rank);

  // Class-balance factor: equalize the total weight of positive and
  // negative observations so the completion does not collapse toward the
  // over-observed existing links.
  double neg_boost = 1.0;
  if (cfg_.balance_classes) {
    double pos_w = 0.0, neg_w = 0.0;
    for (const RatingEntry& e : observed)
      (e.value > 0.0 ? pos_w : neg_w) += std::fabs(e.value);
    if (neg_w > 0.0 && pos_w > 0.0)
      neg_boost = std::min(kAlsBalanceCap, std::max(1.0, pos_w / neg_w));
  }
  // Each entry is a rating of both its rows; a row keeps `observed` order.
  start_.assign(n_ + 1, 0);
  for (const RatingEntry& e : observed) {
    ++start_[e.i + 1];
    ++start_[e.j + 1];
  }
  for (std::size_t i = 0; i < n_; ++i) start_[i + 1] += start_[i];
  cols_.resize(start_[n_]);
  vals_.resize(start_[n_]);
  wts_.resize(start_[n_]);
  std::vector<std::size_t> next(start_.begin(), start_.end() - 1);
  auto place = [&](std::size_t row, std::size_t col, double v, double w) {
    const std::size_t t = next[row]++;
    cols_[t] = col;
    vals_[t] = v;
    wts_[t] = w;
  };
  for (const RatingEntry& e : observed) {
    double w = 1.0;
    double target = e.value;
    if (cfg_.confidence_weighting) {
      // Connectivity mode: the rating magnitude is *confidence*, not signal
      // strength -- train against the sign and weight by the magnitude.
      w = std::max(kAlsConfidenceFloor, std::fabs(e.value));
      target = e.value > 0.0 ? 1.0 : -1.0;
    }
    if (e.value < 0.0) w *= neg_boost;
    MAC_ASSERT(w > 0.0 && std::isfinite(w), "w=", w, " value=", e.value);
    place(e.i, e.j, target, w);
    place(e.j, e.i, target, w);
  }
  scratch_.assign(r * r + 2 * r + r * (r + 1) / 2, 0.0);

  // Random small init; deterministic under the config seed.
  util::Rng rng(cfg_.seed);
  p_ = linalg::Matrix(total_, r);
  q_ = linalg::Matrix(total_, r);
  for (std::size_t i = 0; i < total_; ++i)
    for (std::size_t k = 0; k < r; ++k) {
      p_(i, k) = rng.normal(0.0, 0.1);
      q_(i, k) = rng.normal(0.0, 0.1);
    }

  MAC_REQUIRE(cfg_.iterations > 0, "iterations=", cfg_.iterations);
  iterations_run_ = 0;
  for (int it = 0; it < cfg_.iterations; ++it) {
    // Cooperative stop between sweeps: the first sweep always completes so
    // the factors are fitted, later ones may be cut by cancellation or a
    // deadline.  Without a control this is a no-op (identical iterations).
    if (it > 0 && control_ != nullptr && control_->stop_requested()) {
      MAC_COUNT("als.fits_truncated");
      break;
    }
    MAC_SPAN("als.iteration");
    double delta = solve_side(q_, p_);
    delta += solve_side(p_, q_);
    ++iterations_run_;
    MAC_COUNT("als.iterations_run");
    // Summed factor-update magnitude: the per-iteration convergence signal.
    MAC_HISTOGRAM("als.factor_delta", delta);
  }
  MAC_COUNT("als.fits_completed");
#if METASCRITIC_CONTRACTS
  // Convergence postcondition: every factor entry must stay finite -- a NaN
  // here would silently poison every downstream rating.
  for (double x : p_.data()) MAC_ENSURE(std::isfinite(x), "NaN/Inf in P");
  for (double x : q_.data()) MAC_ENSURE(std::isfinite(x), "NaN/Inf in Q");
#endif
  fitted_ = true;
}

// Row i < n observes its ratings, then feature f at column n + f (weight
// feature_weight, value features.rows[f][i]) for f = 0..F-1.  Feature row
// n + f observes AS columns 0..n-1 at weight feature_weight, so all F
// feature rows share one Gram matrix and factor; only their right-hand
// sides differ.  Every Gram entry and right-hand-side accumulator still sums
// (w * f_a) * f_b and (w * v) * f_a over the row's terms in that order, and
// rows are written in index order, so the result is the same bit for bit
// as solving each row's normal equations on its own.
template <std::size_t R>
double AlsCompleter::solve_side_rank(const linalg::Matrix& fixed,
                                     linalg::Matrix& solved,
                                     std::size_t& rows_solved,
                                     std::size_t& rows_degenerate) {
  const std::size_t r = R != 0 ? R : mac::checked_cast<std::size_t>(cfg_.rank);
  const std::size_t nf = features_->count();
  const double fw = cfg_.feature_weight;
  const double* fx = fixed.data().data();
  double* sx = solved.data().data();
  // The Gram accumulators form a packed lower triangle: entry (b, a), a <= b,
  // is gram(a, b).  With the rank fixed it and the weighted factor row are
  // locals the compiler can keep in registers; otherwise they live in
  // scratch_ after the factor and the right-hand side.
  std::array<double, R == 0 ? 1 : R * (R + 1) / 2> tri_fixed{};
  std::array<double, R == 0 ? 1 : R> wf_fixed{};
  double* chol = scratch_.data();
  double* rhs = chol + r * r;
  double* wf = R == 0 ? rhs + r : wf_fixed.data();
  double* tri = R == 0 ? wf + r : tri_fixed.data();
  double delta = 0.0;

  auto clear = [&] {
    std::fill(tri, tri + r * (r + 1) / 2, 0.0);
    std::fill(rhs, rhs + r, 0.0);
  };
  auto add_gram = [&](std::size_t c, double w) {
    const double* f = fx + c * r;
#pragma GCC unroll 16
    for (std::size_t a = 0; a < r; ++a) wf[a] = w * f[a];
    double* tb = tri;
#pragma GCC unroll 16
    for (std::size_t b = 0; b < r; ++b) {
      const double fb = f[b];
#pragma GCC unroll 16
      for (std::size_t a = 0; a <= b; ++a) tb[a] += wf[a] * fb;
      tb += b + 1;
    }
  };
  auto add_rhs = [&](std::size_t c, double wv) {
    const double* f = fx + c * r;
    for (std::size_t a = 0; a < r; ++a) rhs[a] += wv * f[a];
  };
  // Adds the ridge and factors the Gram; a failed factor means a
  // numerically degenerate row, which keeps its previous factors.
  auto factor = [&](double reg) {
    const double* tb = tri;
    for (std::size_t b = 0; b < r; ++b, tb += b)
      std::copy(tb, tb + b + 1, chol + b * r);
    for (std::size_t a = 0; a < r; ++a) chol[a * r + a] += reg;
    return linalg::cholesky_factor_inplace(chol, r);
  };
  auto store = [&](std::size_t row) {
    linalg::cholesky_substitute_inplace(chol, rhs, r);
    double* x = sx + row * r;
    for (std::size_t a = 0; a < r; ++a) {
      delta += std::fabs(rhs[a] - x[a]);
      x[a] = rhs[a];
    }
    ++rows_solved;
  };

  for (std::size_t row = 0; row < n_; ++row) {
    const std::size_t terms = start_[row + 1] - start_[row] + nf;
    if (terms == 0) continue;
    clear();
    for (std::size_t t = start_[row]; t < start_[row + 1]; ++t) {
      add_gram(cols_[t], wts_[t]);
      add_rhs(cols_[t], wts_[t] * vals_[t]);
    }
    for (std::size_t f = 0; f < nf; ++f) {
      add_gram(n_ + f, fw);
      add_rhs(n_ + f, fw * features_->rows[f][row]);
    }
    if (!factor(cfg_.lambda * static_cast<double>(terms))) {
      ++rows_degenerate;
      continue;
    }
    store(row);
  }

  if (nf == 0 || n_ == 0) return delta;
  clear();
  for (std::size_t i = 0; i < n_; ++i) add_gram(i, fw);
  if (!factor(cfg_.lambda * static_cast<double>(n_))) {
    rows_degenerate += nf;
    return delta;
  }
  for (std::size_t f = 0; f < nf; ++f) {
    const std::vector<double>& values = features_->rows[f];
    std::fill(rhs, rhs + r, 0.0);
    for (std::size_t i = 0; i < n_; ++i) add_rhs(i, fw * values[i]);
    store(n_ + f);
  }
  return delta;
}

double AlsCompleter::solve_side(const linalg::Matrix& fixed,
                                linalg::Matrix& solved) {
  MAC_SPAN("als.solve_side");
  // Ranks 1..kStaticRanks get a body with the rank known at compile time;
  // entry 0 reads it at run time.
  constexpr std::size_t kStaticRanks = 16;
  using Body = double (AlsCompleter::*)(const linalg::Matrix&, linalg::Matrix&,
                                        std::size_t&, std::size_t&);
  static constexpr auto kBodies =
      []<std::size_t... R>(std::index_sequence<R...>) {
        return std::array<Body, sizeof...(R)>{
            &AlsCompleter::solve_side_rank<R>...};
      }(std::make_index_sequence<kStaticRanks + 1>{});
  const auto r = mac::checked_cast<std::size_t>(cfg_.rank);
  std::size_t rows_solved = 0, rows_degenerate = 0;
  const double delta = (this->*kBodies[r <= kStaticRanks ? r : 0])(
      fixed, solved, rows_solved, rows_degenerate);
  MAC_COUNT_N("als.rows_solved", rows_solved);
  MAC_COUNT_N("als.rows_degenerate", rows_degenerate);
  return delta;
}

double AlsCompleter::predict(std::size_t i, std::size_t j) const {
  if (!fitted_) throw std::logic_error("AlsCompleter::predict before fit");
  if (i >= n_ || j >= n_)
    throw std::out_of_range("AlsCompleter::predict: index out of range");
  const auto r = mac::checked_cast<std::size_t>(cfg_.rank);
  double s = 0.0;
  for (std::size_t k = 0; k < r; ++k)
    s += p_(i, k) * q_(j, k) + p_(j, k) * q_(i, k);
  double out = std::clamp(0.5 * s, -1.0, 1.0);
  MAC_ENSURE(out >= -1.0 && out <= 1.0, "out=", out);
  return out;
}

double AlsCompleter::mse(const std::vector<RatingEntry>& held_out) const {
  if (held_out.empty()) return 0.0;
  double s = 0.0;
  for (const RatingEntry& e : held_out) {
    double d = predict(e.i, e.j) - e.value;
    s += d * d;
  }
  return s / static_cast<double>(held_out.size());
}

linalg::Matrix AlsCompleter::completed() const {
  linalg::Matrix m(n_, n_);
  for (std::size_t i = 0; i < n_; ++i)
    for (std::size_t j = i + 1; j < n_; ++j) {
      double v = predict(i, j);
      m(i, j) = v;
      m(j, i) = v;
    }
  return m;
}

}  // namespace metas::core
