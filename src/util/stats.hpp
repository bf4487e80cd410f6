// Descriptive statistics and association measures used across the evaluation:
// Pearson correlation (continuous/binary features, Fig. 1), correlation ratio
// (categorical features, Fig. 1), Kolmogorov-Smirnov distance (Fig. 4
// probability calibration), percentiles and bootstrap confidence intervals
// (Fig. 15 threshold sweep).
#pragma once

#include <cstddef>
#include <vector>

namespace metas::util {
class Rng;

/// Arithmetic mean; 0 for an empty range.
double mean(const std::vector<double>& xs);

/// Population variance; 0 for fewer than two samples.
double variance(const std::vector<double>& xs);

/// Population standard deviation.
double stddev(const std::vector<double>& xs);

/// p-th percentile (p in [0,100]) with linear interpolation.
/// Throws std::invalid_argument on empty input or p out of range.
double percentile(std::vector<double> xs, double p);

/// Pearson correlation coefficient. Returns 0 when either side is constant.
/// Throws std::invalid_argument on size mismatch or empty input.
double pearson(const std::vector<double>& x, const std::vector<double>& y);

/// Correlation ratio (eta) between a categorical variable (integer labels)
/// and a continuous/binary outcome: sqrt of between-class variance over total
/// variance. Returns 0 when the outcome is constant.
/// Throws std::invalid_argument on size mismatch or empty input.
double correlation_ratio(const std::vector<int>& categories,
                         const std::vector<double>& outcome);

/// Two-sample Kolmogorov-Smirnov distance between empirical CDFs.
/// Throws std::invalid_argument if either sample is empty.
double ks_distance(std::vector<double> a, std::vector<double> b);

/// One-sample KS distance between an empirical sample and the uniform [0,1]
/// CDF -- the "perfect prediction line" of Fig. 4.
double ks_distance_uniform(std::vector<double> sample);

/// Symmetric 95% bootstrap confidence interval on the mean.
struct ConfidenceInterval {
  double lo = 0.0;
  double hi = 0.0;
  double point = 0.0;
};
ConfidenceInterval bootstrap_ci_mean(const std::vector<double>& xs, Rng& rng,
                                     int resamples = 1000);

}  // namespace metas::util
