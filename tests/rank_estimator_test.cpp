// Rank-estimation tests (§3.2): recovering a planted effective rank from a
// partially observed matrix (the controlled experiment of Appx. E.5).
#include "core/rank_estimator.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "test_world.hpp"
#include "util/rng.hpp"

namespace metas::core {
namespace {

// Builds an EstimatedMatrix whose entries are a random sample of a planted
// *continuous* rank-k matrix plus small noise -- the construction of the
// paper's controlled experiment (Appx. E.5).
EstimatedMatrix planted_sample(std::size_t n, std::size_t k, double frac,
                               util::Rng& rng) {
  double scale = 1.0 / std::sqrt(static_cast<double>(k));
  std::vector<std::vector<double>> x(n, std::vector<double>(k));
  for (auto& row : x)
    for (double& v : row) v = rng.normal(0.0, scale);
  EstimatedMatrix e(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.uniform() > frac) continue;
      double s = rng.normal(0.0, 0.01);
      for (std::size_t d = 0; d < k; ++d) s += x[i][d] * x[j][d];
      e.set(i, j, std::clamp(s, -1.0, 1.0));
    }
  }
  return e;
}

TEST(RankEstimator, StaticModeFindsPlantedRankBallpark) {
  util::Rng rng(42);
  const std::size_t planted = 4;
  EstimatedMatrix e = planted_sample(60, planted, 0.6, rng);

  MetroContext ctx = testing::shared_focus_context();
  // Use an empty feature matrix: the planted structure has no side info.
  FeatureMatrix feats;
  RankEstimatorConfig cfg;
  cfg.max_rank = 16;
  cfg.patience = 4;
  cfg.als.feature_weight = 0.0;
  cfg.als.confidence_weighting = false;  // continuous planted values
  cfg.als.balance_classes = false;
  RankEstimator est(ctx, feats, cfg);
  RankEstimateResult res = est.run_static(e);
  EXPECT_GE(res.best_rank, 2);
  EXPECT_LE(res.best_rank, 10);
  ASSERT_FALSE(res.history.empty());
  // History is (rank, mse) ascending in rank.
  for (std::size_t h = 1; h < res.history.size(); ++h)
    EXPECT_EQ(res.history[h].first, res.history[h - 1].first + 1);
  // Best MSE is near the minimum of the recorded history (the acceptance
  // rule requires a relative improvement, so small later dips may not be
  // adopted).
  double best = 1e30;
  for (auto [r, m] : res.history) best = std::min(best, m);
  EXPECT_LE(res.best_mse,
            best * (1.0 + kRankRelImprovement) + kRankMinImprovement);
}

TEST(RankEstimator, HigherPlantedRankGivesHigherEstimate) {
  util::Rng rng(43);
  MetroContext ctx = testing::shared_focus_context();
  FeatureMatrix feats;
  RankEstimatorConfig cfg;
  cfg.max_rank = 20;
  cfg.patience = 4;
  cfg.als.feature_weight = 0.0;
  cfg.als.confidence_weighting = false;
  cfg.als.balance_classes = false;
  cfg.seed = 5;
  RankEstimator est(ctx, feats, cfg);

  EstimatedMatrix low = planted_sample(60, 2, 0.7, rng);
  EstimatedMatrix high = planted_sample(60, 10, 0.7, rng);
  int r_low = est.run_static(low).best_rank;
  int r_high = est.run_static(high).best_rank;
  EXPECT_LT(r_low, r_high);
}

TEST(RankEstimator, StopsEarlyWithPatience) {
  util::Rng rng(44);
  EstimatedMatrix e = planted_sample(40, 2, 0.7, rng);
  MetroContext ctx = testing::shared_focus_context();
  FeatureMatrix feats;
  RankEstimatorConfig cfg;
  cfg.max_rank = 30;
  cfg.patience = 2;
  cfg.als.feature_weight = 0.0;
  cfg.als.confidence_weighting = false;
  cfg.als.balance_classes = false;
  RankEstimator est(ctx, feats, cfg);
  RankEstimateResult res = est.run_static(e);
  // With a rank-2 matrix the loop must stop well before max_rank.
  EXPECT_LT(static_cast<int>(res.history.size()), cfg.max_rank);
}

TEST(RankEstimator, DrivenModeIssuesMeasurements) {
  auto& w = testing::shared_world();
  MetroContext ctx = testing::shared_focus_context();
  FeatureMatrix feats = encode_features(ctx);
  ProbabilityMatrix pm(ctx, *w.ms, nullptr);
  SchedulerConfig scfg;
  scfg.batch_size = 60;
  scfg.seed = 3;
  MeasurementScheduler sched(ctx, *w.ms, pm, scfg);
  RankEstimatorConfig cfg;
  cfg.max_rank = 6;
  cfg.patience = 2;
  cfg.budget_per_iteration = 200;
  RankEstimator est(ctx, feats, cfg);
  RankEstimateResult res = est.run(sched, *w.ms);
  EXPECT_GE(res.best_rank, 1);
  EXPECT_FALSE(res.history.empty());
}

}  // namespace
}  // namespace metas::core
