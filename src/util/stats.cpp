#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "util/numeric.hpp"
#include "util/rng.hpp"

namespace metas::util {

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size());
}

double stddev(const std::vector<double>& xs) { return std::sqrt(variance(xs)); }

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) throw std::invalid_argument("percentile: empty input");
  if (p < 0.0 || p > 100.0)
    throw std::invalid_argument("percentile: p out of [0,100]");
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) return xs[0];
  double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  auto lo = mac::narrow<std::size_t>(std::floor(rank));
  auto hi = mac::narrow<std::size_t>(std::ceil(rank));
  double frac = rank - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

double pearson(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size()) throw std::invalid_argument("pearson: size mismatch");
  if (x.empty()) throw std::invalid_argument("pearson: empty input");
  double mx = mean(x), my = mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    double dx = x[i] - mx, dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (mac::exact_zero(sxx) || mac::exact_zero(syy)) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double correlation_ratio(const std::vector<int>& categories,
                         const std::vector<double>& outcome) {
  if (categories.size() != outcome.size())
    throw std::invalid_argument("correlation_ratio: size mismatch");
  if (categories.empty())
    throw std::invalid_argument("correlation_ratio: empty input");
  double grand = mean(outcome);
  std::map<int, std::pair<double, std::size_t>> groups;  // sum, count
  for (std::size_t i = 0; i < categories.size(); ++i) {
    auto& g = groups[categories[i]];
    g.first += outcome[i];
    g.second += 1;
  }
  double between = 0.0;
  for (const auto& [cat, g] : groups) {
    double gm = g.first / static_cast<double>(g.second);
    between += static_cast<double>(g.second) * (gm - grand) * (gm - grand);
  }
  double total = 0.0;
  for (double y : outcome) total += (y - grand) * (y - grand);
  if (mac::exact_zero(total)) return 0.0;
  return std::sqrt(between / total);
}

double ks_distance(std::vector<double> a, std::vector<double> b) {
  if (a.empty() || b.empty())
    throw std::invalid_argument("ks_distance: empty sample");
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::size_t ia = 0, ib = 0;
  double d = 0.0;
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  while (ia < a.size() && ib < b.size()) {
    // Advance both sides past the smaller value (ties move together so
    // identical samples yield distance zero).
    double x = std::min(a[ia], b[ib]);
    while (ia < a.size() && a[ia] <= x) ++ia;
    while (ib < b.size() && b[ib] <= x) ++ib;
    double fa = static_cast<double>(ia) / na;
    double fb = static_cast<double>(ib) / nb;
    d = std::max(d, std::fabs(fa - fb));
  }
  return d;
}

double ks_distance_uniform(std::vector<double> sample) {
  if (sample.empty())
    throw std::invalid_argument("ks_distance_uniform: empty sample");
  std::sort(sample.begin(), sample.end());
  double d = 0.0;
  const double n = static_cast<double>(sample.size());
  for (std::size_t i = 0; i < sample.size(); ++i) {
    double x = std::clamp(sample[i], 0.0, 1.0);
    double lo = static_cast<double>(i) / n;
    double hi = static_cast<double>(i + 1) / n;
    d = std::max(d, std::max(std::fabs(hi - x), std::fabs(x - lo)));
  }
  return d;
}

ConfidenceInterval bootstrap_ci_mean(const std::vector<double>& xs, Rng& rng,
                                     int resamples) {
  ConfidenceInterval ci;
  ci.point = mean(xs);
  if (xs.size() < 2) {
    ci.lo = ci.hi = ci.point;
    return ci;
  }
  std::vector<double> means;
  means.reserve(mac::checked_cast<std::size_t>(resamples));
  std::vector<double> draw(xs.size());
  for (int r = 0; r < resamples; ++r) {
    for (std::size_t i = 0; i < xs.size(); ++i) draw[i] = xs[rng.index(xs.size())];
    means.push_back(mean(draw));
  }
  ci.lo = percentile(means, 2.5);
  ci.hi = percentile(means, 97.5);
  return ci;
}

}  // namespace metas::util
