// Unit and property tests for util/stats.
#include "util/stats.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace metas::util {
namespace {

TEST(Stats, MeanBasics) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(mean({2.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Stats, VarianceAndStddev) {
  EXPECT_DOUBLE_EQ(variance({5.0}), 0.0);
  EXPECT_DOUBLE_EQ(variance({1.0, 1.0, 1.0}), 0.0);
  // Population variance of {2, 4, 4, 4, 5, 5, 7, 9} is 4.
  std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(variance(xs), 4.0);
  EXPECT_DOUBLE_EQ(stddev(xs), 2.0);
}

TEST(Stats, PercentileInterpolation) {
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 2.5);
}

TEST(Stats, PercentileErrors) {
  EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, -1.0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 101.0), std::invalid_argument);
}

TEST(Stats, PearsonPerfectCorrelation) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y{2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  std::vector<double> yneg{10, 8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, yneg), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantSideIsZero) {
  EXPECT_DOUBLE_EQ(pearson({1, 1, 1}, {1, 2, 3}), 0.0);
}

TEST(Stats, PearsonErrors) {
  EXPECT_THROW(pearson({1.0}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(pearson({}, {}), std::invalid_argument);
}

// Pearson is invariant under positive affine transforms of either side.
class PearsonAffineTest : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(PearsonAffineTest, InvariantUnderAffineTransform) {
  auto [scale, shift] = GetParam();
  Rng rng(42);
  std::vector<double> x(50), y(50), y2(50);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.normal();
    y[i] = 0.5 * x[i] + rng.normal(0.0, 0.3);
    y2[i] = scale * y[i] + shift;
  }
  EXPECT_NEAR(pearson(x, y), pearson(x, y2), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Affine, PearsonAffineTest,
                         ::testing::Values(std::pair{2.0, 0.0},
                                           std::pair{0.1, 5.0},
                                           std::pair{10.0, -3.0},
                                           std::pair{1.0, 100.0}));

TEST(Stats, CorrelationRatioPerfectSeparation) {
  // Outcome fully determined by category -> eta = 1.
  std::vector<int> cats{0, 0, 1, 1, 2, 2};
  std::vector<double> out{1, 1, 5, 5, 9, 9};
  EXPECT_NEAR(correlation_ratio(cats, out), 1.0, 1e-12);
}

TEST(Stats, CorrelationRatioNoSeparation) {
  // Same group means -> eta = 0.
  std::vector<int> cats{0, 0, 1, 1};
  std::vector<double> out{1, 3, 1, 3};
  EXPECT_NEAR(correlation_ratio(cats, out), 0.0, 1e-12);
}

TEST(Stats, CorrelationRatioConstantOutcome) {
  EXPECT_DOUBLE_EQ(correlation_ratio({0, 1, 2}, {4, 4, 4}), 0.0);
}

TEST(Stats, CorrelationRatioBounds) {
  Rng rng(7);
  std::vector<int> cats(100);
  std::vector<double> out(100);
  for (std::size_t i = 0; i < cats.size(); ++i) {
    cats[i] = rng.uniform_int(0, 4);
    out[i] = rng.normal() + 0.3 * cats[i];
  }
  double eta = correlation_ratio(cats, out);
  EXPECT_GE(eta, 0.0);
  EXPECT_LE(eta, 1.0);
}

TEST(Stats, KsDistanceIdenticalSamples) {
  std::vector<double> a{1, 2, 3, 4, 5};
  EXPECT_NEAR(ks_distance(a, a), 0.0, 1e-12);
}

TEST(Stats, KsDistanceDisjointSamples) {
  EXPECT_NEAR(ks_distance({1, 2, 3}, {10, 11, 12}), 1.0, 1e-12);
}

TEST(Stats, KsDistanceUniformOfUniformGridIsSmall) {
  std::vector<double> grid;
  for (int i = 0; i < 1000; ++i) grid.push_back((i + 0.5) / 1000.0);
  EXPECT_LT(ks_distance_uniform(grid), 0.01);
}

TEST(Stats, KsDistanceUniformOfConstantIsLarge) {
  std::vector<double> all_half(100, 0.5);
  EXPECT_NEAR(ks_distance_uniform(all_half), 0.5, 0.02);
}

TEST(Stats, KsErrors) {
  EXPECT_THROW(ks_distance({}, {1.0}), std::invalid_argument);
  EXPECT_THROW(ks_distance_uniform({}), std::invalid_argument);
}

TEST(Stats, BootstrapCiCoversMean) {
  Rng rng(3);
  std::vector<double> xs(200);
  for (double& x : xs) x = rng.normal(10.0, 2.0);
  auto ci = bootstrap_ci_mean(xs, rng, 500);
  EXPECT_LT(ci.lo, 10.0 + 0.5);
  EXPECT_GT(ci.hi, 10.0 - 0.5);
  EXPECT_LE(ci.lo, ci.point);
  EXPECT_GE(ci.hi, ci.point);
}

TEST(Stats, BootstrapCiDegenerate) {
  Rng rng(3);
  auto ci = bootstrap_ci_mean({5.0}, rng);
  EXPECT_DOUBLE_EQ(ci.lo, 5.0);
  EXPECT_DOUBLE_EQ(ci.hi, 5.0);
}

}  // namespace
}  // namespace metas::util
