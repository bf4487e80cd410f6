// Hybrid ALS completion tests: recovery of planted low-rank structure,
// feature contributions, and API contracts.
#include "core/als.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "linalg/solve.hpp"
#include "util/curves.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"

namespace metas::core {
namespace {

FeatureMatrix no_features() { return FeatureMatrix{}; }

// Builds a planted rank-k +-1 matrix from random factor vectors.
struct Planted {
  std::size_t n;
  std::vector<std::vector<double>> x;
  bool link(std::size_t i, std::size_t j) const {
    double s = 0.0;
    for (std::size_t d = 0; d < x[i].size(); ++d) s += x[i][d] * x[j][d];
    return s > 0.0;
  }
};

Planted plant(std::size_t n, std::size_t k, util::Rng& rng) {
  Planted p;
  p.n = n;
  p.x.assign(n, std::vector<double>(k));
  for (auto& row : p.x)
    for (double& v : row) v = rng.normal();
  return p;
}

TEST(Als, ConfigValidation) {
  AlsConfig bad;
  bad.rank = 0;
  auto f = no_features();
  EXPECT_THROW(AlsCompleter(5, f, bad), std::invalid_argument);
  bad.rank = 2;
  bad.lambda = 0.0;
  EXPECT_THROW(AlsCompleter(5, f, bad), std::invalid_argument);
  bad.lambda = 0.08;
  bad.iterations = 0;
  EXPECT_THROW(AlsCompleter(5, f, bad), std::invalid_argument);
  bad.iterations = -3;
  EXPECT_THROW(AlsCompleter(5, f, bad), std::invalid_argument);
}

TEST(Als, PredictBeforeFitThrows) {
  auto f = no_features();
  AlsCompleter c(5, f, AlsConfig{});
  EXPECT_THROW(c.predict(0, 1), std::logic_error);
}

TEST(Als, BadEntriesRejected) {
  auto f = no_features();
  AlsCompleter c(3, f, AlsConfig{});
  EXPECT_THROW(c.fit({{1, 1, 1.0}}), std::invalid_argument);
  EXPECT_THROW(c.fit({{0, 5, 1.0}}), std::invalid_argument);
}

TEST(Als, RecoverBlockMatrix) {
  // Two communities of 10; links within, none across. Rank-2 structure.
  const std::size_t n = 20;
  util::Rng rng(1);
  std::vector<RatingEntry> train;
  std::vector<std::pair<std::size_t, std::size_t>> heldout;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      bool link = (i < 10) == (j < 10);
      if (rng.uniform() < 0.5)
        train.push_back({i, j, link ? 1.0 : -1.0});
      else
        heldout.emplace_back(i, j);
    }
  }
  AlsConfig cfg;
  cfg.rank = 3;
  auto f = no_features();
  AlsCompleter c(n, f, cfg);
  c.fit(train);
  std::size_t correct = 0;
  for (auto [i, j] : heldout) {
    bool link = (i < 10) == (j < 10);
    if ((c.predict(i, j) > 0.0) == link) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / heldout.size(), 0.95);
}

TEST(Als, PredictionSymmetricAndClamped) {
  util::Rng rng(2);
  auto p = plant(15, 2, rng);
  std::vector<RatingEntry> train;
  for (std::size_t i = 0; i < p.n; ++i)
    for (std::size_t j = i + 1; j < p.n; ++j)
      if (rng.uniform() < 0.6) train.push_back({i, j, p.link(i, j) ? 1.0 : -1.0});
  auto f = no_features();
  AlsConfig cfg;
  cfg.rank = 4;
  AlsCompleter c(p.n, f, cfg);
  c.fit(train);
  for (std::size_t i = 0; i < p.n; ++i)
    for (std::size_t j = 0; j < p.n; ++j) {
      if (i == j) continue;
      double v = c.predict(i, j);
      EXPECT_DOUBLE_EQ(v, c.predict(j, i));
      EXPECT_GE(v, -1.0);
      EXPECT_LE(v, 1.0);
    }
}

TEST(Als, CompletedMatrixMatchesPredict) {
  util::Rng rng(3);
  auto p = plant(10, 2, rng);
  std::vector<RatingEntry> train;
  for (std::size_t i = 0; i < p.n; ++i)
    for (std::size_t j = i + 1; j < p.n; ++j)
      train.push_back({i, j, p.link(i, j) ? 1.0 : -1.0});
  auto f = no_features();
  AlsCompleter c(p.n, f, AlsConfig{});
  c.fit(train);
  linalg::Matrix m = c.completed();
  EXPECT_DOUBLE_EQ(m(3, 7), c.predict(3, 7));
  EXPECT_DOUBLE_EQ(m(7, 3), m(3, 7));
  EXPECT_DOUBLE_EQ(m(4, 4), 0.0);
}

TEST(Als, FeaturesRescueEmptyRows) {
  // Community membership is exposed only through a feature; rows of
  // community B have no observed entries at all (completely-out case).
  const std::size_t n = 24;
  FeatureMatrix feats;
  feats.names = {"community"};
  feats.rows.assign(1, std::vector<double>(n));
  for (std::size_t i = 0; i < n; ++i)
    feats.rows[0][i] = i % 2 == 0 ? 1.0 : -1.0;

  auto truth = [](std::size_t i, std::size_t j) {
    return (i % 2) == (j % 2);
  };
  std::vector<RatingEntry> train;
  for (std::size_t i = 0; i < 16; ++i)
    for (std::size_t j = i + 1; j < 16; ++j)
      train.push_back({i, j, truth(i, j) ? 1.0 : -1.0});

  AlsConfig cfg;
  cfg.rank = 4;
  cfg.feature_weight = 1.0;
  AlsCompleter with_f(n, feats, cfg);
  with_f.fit(train);
  auto empty = no_features();
  AlsCompleter without_f(n, empty, cfg);
  without_f.fit(train);

  // Score pairs where at least one side is unobserved (indices >= 16).
  std::vector<util::Scored> sf, snf;
  for (std::size_t i = 16; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      sf.push_back({with_f.predict(i, j), truth(i, j)});
      snf.push_back({without_f.predict(i, j), truth(i, j)});
    }
  EXPECT_GT(util::auc(sf), util::auc(snf));
  EXPECT_GT(util::auc(sf), 0.8);
}

TEST(Als, MseDecreasesOnTrainingData) {
  util::Rng rng(5);
  auto p = plant(20, 3, rng);
  std::vector<RatingEntry> train;
  for (std::size_t i = 0; i < p.n; ++i)
    for (std::size_t j = i + 1; j < p.n; ++j)
      train.push_back({i, j, p.link(i, j) ? 1.0 : -1.0});
  auto f = no_features();
  AlsConfig weak;
  weak.rank = 1;
  AlsConfig strong;
  strong.rank = 6;
  AlsCompleter cw(p.n, f, weak), cs(p.n, f, strong);
  cw.fit(train);
  cs.fit(train);
  // Compare against the +-1 targets the completer trains on.
  EXPECT_LT(cs.mse(train), cw.mse(train));
}

TEST(Als, DeterministicUnderSeed) {
  util::Rng rng(6);
  auto p = plant(12, 2, rng);
  std::vector<RatingEntry> train;
  for (std::size_t i = 0; i < p.n; ++i)
    for (std::size_t j = i + 1; j < p.n; ++j)
      if (rng.uniform() < 0.7) train.push_back({i, j, p.link(i, j) ? 1.0 : -1.0});
  auto f = no_features();
  AlsCompleter a(p.n, f, AlsConfig{}), b(p.n, f, AlsConfig{});
  a.fit(train);
  b.fit(train);
  for (std::size_t i = 0; i < p.n; ++i)
    for (std::size_t j = i + 1; j < p.n; ++j)
      EXPECT_DOUBLE_EQ(a.predict(i, j), b.predict(i, j));
}

// Property sweep: completion accuracy grows with observed fraction.
class AlsCoverageTest : public ::testing::TestWithParam<double> {};

TEST_P(AlsCoverageTest, AccuracyAboveBaseline) {
  double frac = GetParam();
  util::Rng rng(7);
  auto p = plant(40, 3, rng);
  std::vector<RatingEntry> train;
  std::vector<util::Scored> test;
  AlsConfig cfg;
  cfg.rank = 5;
  auto f = no_features();
  AlsCompleter c(p.n, f, cfg);
  for (std::size_t i = 0; i < p.n; ++i)
    for (std::size_t j = i + 1; j < p.n; ++j)
      if (rng.uniform() < frac) train.push_back({i, j, p.link(i, j) ? 1.0 : -1.0});
  c.fit(train);
  for (std::size_t i = 0; i < p.n; ++i)
    for (std::size_t j = i + 1; j < p.n; ++j)
      test.push_back({c.predict(i, j), p.link(i, j)});
  EXPECT_GT(util::auc(test), frac >= 0.4 ? 0.9 : 0.65);
}

INSTANTIATE_TEST_SUITE_P(Fractions, AlsCoverageTest,
                         ::testing::Values(0.2, 0.4, 0.6, 0.8));

// Reference for the production kernel: the straightforward fit, with one
// observation list per augmented row (feature entries copied in) and one
// linalg::solve_regularized per row.  AlsCompleter's CSR store, shared
// feature-row factor and fixed-rank bodies must reproduce it bit for bit.
struct ReferenceFit {
  linalg::Matrix p, q;
  std::uint64_t rows_solved = 0, rows_degenerate = 0;

  double predict(std::size_t i, std::size_t j) const {
    double s = 0.0;
    for (std::size_t k = 0; k < p.cols(); ++k)
      s += p(i, k) * q(j, k) + p(j, k) * q(i, k);
    return std::clamp(0.5 * s, -1.0, 1.0);
  }
};

ReferenceFit reference_fit(std::size_t n, const FeatureMatrix& features,
                           const AlsConfig& cfg,
                           const std::vector<RatingEntry>& observed) {
  const std::size_t total = n + features.count();
  const auto r = static_cast<std::size_t>(cfg.rank);
  std::vector<std::vector<std::size_t>> cols(total);
  std::vector<std::vector<double>> vals(total), wts(total);
  auto add = [&](std::size_t row, std::size_t col, double v, double w) {
    cols[row].push_back(col);
    vals[row].push_back(v);
    wts[row].push_back(w);
  };
  double neg_boost = 1.0;
  if (cfg.balance_classes) {
    double pos_w = 0.0, neg_w = 0.0;
    for (const RatingEntry& e : observed)
      (e.value > 0.0 ? pos_w : neg_w) += std::fabs(e.value);
    if (neg_w > 0.0 && pos_w > 0.0)
      neg_boost = std::min(kAlsBalanceCap, std::max(1.0, pos_w / neg_w));
  }
  for (const RatingEntry& e : observed) {
    double w = 1.0;
    double target = e.value;
    if (cfg.confidence_weighting) {
      w = std::max(kAlsConfidenceFloor, std::fabs(e.value));
      target = e.value > 0.0 ? 1.0 : -1.0;
    }
    if (e.value < 0.0) w *= neg_boost;
    add(e.i, e.j, target, w);
    add(e.j, e.i, target, w);
  }
  for (std::size_t f = 0; f < features.count(); ++f)
    for (std::size_t i = 0; i < n; ++i) {
      add(i, n + f, features.rows[f][i], cfg.feature_weight);
      add(n + f, i, features.rows[f][i], cfg.feature_weight);
    }

  ReferenceFit fit;
  util::Rng rng(cfg.seed);
  fit.p = linalg::Matrix(total, r);
  fit.q = linalg::Matrix(total, r);
  for (std::size_t i = 0; i < total; ++i)
    for (std::size_t k = 0; k < r; ++k) {
      fit.p(i, k) = rng.normal(0.0, 0.1);
      fit.q(i, k) = rng.normal(0.0, 0.1);
    }
  auto solve_side = [&](const linalg::Matrix& fixed, linalg::Matrix& solved) {
    linalg::Matrix gram(r, r);
    linalg::Vector rhs(r);
    for (std::size_t row = 0; row < total; ++row) {
      if (cols[row].empty()) continue;
      for (std::size_t a = 0; a < r; ++a) {
        rhs[a] = 0.0;
        for (std::size_t b = 0; b < r; ++b) gram(a, b) = 0.0;
      }
      for (std::size_t t = 0; t < cols[row].size(); ++t) {
        const std::size_t c = cols[row][t];
        const double w = wts[row][t], v = vals[row][t];
        for (std::size_t a = 0; a < r; ++a) {
          const double fa = fixed(c, a);
          rhs[a] += w * v * fa;
          for (std::size_t b = a; b < r; ++b) gram(a, b) += w * fa * fixed(c, b);
        }
      }
      for (std::size_t a = 0; a < r; ++a)
        for (std::size_t b = 0; b < a; ++b) gram(a, b) = gram(b, a);
      const double reg = cfg.lambda * static_cast<double>(cols[row].size());
      auto x = linalg::solve_regularized(gram, rhs, reg);
      if (!x) {
        ++fit.rows_degenerate;
        continue;
      }
      ++fit.rows_solved;
      for (std::size_t a = 0; a < r; ++a) solved(row, a) = (*x)[a];
    }
  };
  for (int it = 0; it < cfg.iterations; ++it) {
    solve_side(fit.q, fit.p);
    solve_side(fit.p, fit.q);
  }
  return fit;
}

std::uint64_t counter_value(const char* name) {
  return util::telemetry::Registry::instance().counter(name).value();
}

// Random ratings over ASes 0..n-4 (the last three ASes have none), with
// magnitudes below 1 so transferred low-confidence entries are exercised.
std::vector<RatingEntry> random_ratings(std::size_t n, double frac,
                                        util::Rng& rng) {
  std::vector<RatingEntry> out;
  for (std::size_t i = 0; i + 3 < n; ++i)
    for (std::size_t j = i + 1; j + 3 < n; ++j)
      if (rng.uniform() < frac)
        out.push_back({i, j, (rng.bernoulli(0.35) ? 1.0 : -1.0) *
                                 rng.uniform(0.02, 0.95)});
  return out;
}

struct KernelCase {
  const char* name;
  std::size_t num_features;
  double feature_weight;
  bool weighting;  // confidence weighting and class balancing
};

class AlsReferenceTest
    : public ::testing::TestWithParam<std::tuple<int, KernelCase>> {};

TEST_P(AlsReferenceTest, MatchesPerRowSolveBitForBit) {
  const auto [rank, kc] = GetParam();
  const std::size_t n = 26;
  util::Rng rng(static_cast<std::uint64_t>(rank) * 131 + kc.num_features);
  FeatureMatrix feats;
  feats.rows.assign(kc.num_features, std::vector<double>(n));
  for (auto& row : feats.rows)
    for (double& v : row) v = rng.uniform(-1.0, 1.0);
  AlsConfig cfg;
  cfg.rank = rank;
  cfg.feature_weight = kc.feature_weight;
  cfg.confidence_weighting = kc.weighting;
  cfg.balance_classes = kc.weighting;
  cfg.seed = 11;
  AlsCompleter c(n, feats, cfg);

  // Two fits on one completer: the second must not see the first's store.
  for (double frac : {0.3, 0.15}) {
    const auto observed = random_ratings(n, frac, rng);
    const std::uint64_t solved0 = counter_value("als.rows_solved");
    const std::uint64_t degenerate0 = counter_value("als.rows_degenerate");
    c.fit(observed);
    const std::uint64_t solved = counter_value("als.rows_solved") - solved0;
    const std::uint64_t degenerate =
        counter_value("als.rows_degenerate") - degenerate0;
    const ReferenceFit ref = reference_fit(n, feats, cfg, observed);
#if METASCRITIC_TELEMETRY_ENABLED
    EXPECT_EQ(solved, ref.rows_solved);
    EXPECT_EQ(degenerate, ref.rows_degenerate);
#else
    EXPECT_EQ(solved + degenerate, 0u);
#endif
    std::size_t pairs = 0, interior = 0, mismatches = 0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        const double got = c.predict(i, j);
        if (got != ref.predict(i, j)) ++mismatches;
        ++pairs;
        if (got > -1.0 && got < 1.0) ++interior;
      }
    EXPECT_EQ(mismatches, 0u) << "frac " << frac;
    // Clamping to [-1, 1] must not hide a difference.
    EXPECT_GE(static_cast<double>(interior), 0.9 * static_cast<double>(pairs))
        << "frac " << frac;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndShapes, AlsReferenceTest,
    ::testing::Combine(
        ::testing::Values(1, 2, 7, 16, 17, 24, 48),
        ::testing::Values(KernelCase{"NoFeatures", 0, 0.5, true},
                          KernelCase{"Features", 5, 0.5, true},
                          KernelCase{"ZeroFeatureWeight", 5, 0.0, true},
                          KernelCase{"Unweighted", 5, 0.3, false})),
    [](const auto& info) {
      return "Rank" + std::to_string(std::get<0>(info.param)) +
             std::get<1>(info.param).name;
    });

}  // namespace
}  // namespace metas::core
