// Unit and property tests for PR/ROC curves and their scalar summaries.
#include "util/curves.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace metas::util {
namespace {

std::vector<Scored> perfect(std::size_t n_pos, std::size_t n_neg) {
  std::vector<Scored> data;
  for (std::size_t i = 0; i < n_pos; ++i) data.push_back({1.0 + 0.01 * i, true});
  for (std::size_t i = 0; i < n_neg; ++i) data.push_back({-1.0 - 0.01 * i, false});
  return data;
}

TEST(Confusion, CountsAndDerivedMetrics) {
  std::vector<Scored> data{{0.9, true}, {0.8, false}, {0.2, true}, {0.1, false}};
  Confusion c = confusion_at(data, 0.5);
  EXPECT_EQ(c.tp, 1u);
  EXPECT_EQ(c.fp, 1u);
  EXPECT_EQ(c.fn, 1u);
  EXPECT_EQ(c.tn, 1u);
  EXPECT_DOUBLE_EQ(c.precision(), 0.5);
  EXPECT_DOUBLE_EQ(c.recall(), 0.5);
  EXPECT_DOUBLE_EQ(c.f_score(), 0.5);
}

TEST(Confusion, EmptyDenominatorsAreZero) {
  Confusion c;
  EXPECT_DOUBLE_EQ(c.precision(), 0.0);
  EXPECT_DOUBLE_EQ(c.recall(), 0.0);
  EXPECT_DOUBLE_EQ(c.f_score(), 0.0);
}

TEST(Curves, PerfectClassifierAreasAreOne) {
  auto data = perfect(20, 30);
  EXPECT_NEAR(auprc(data), 1.0, 1e-9);
  EXPECT_NEAR(auc(data), 1.0, 1e-9);
}

TEST(Curves, InvertedClassifierAucIsZero) {
  std::vector<Scored> data;
  for (int i = 0; i < 10; ++i) data.push_back({-1.0 - i * 0.1, true});
  for (int i = 0; i < 10; ++i) data.push_back({1.0 + i * 0.1, false});
  EXPECT_NEAR(auc(data), 0.0, 1e-9);
}

TEST(Curves, RandomScoresGiveHalfAuc) {
  Rng rng(11);
  std::vector<Scored> data;
  for (int i = 0; i < 4000; ++i) data.push_back({rng.uniform(), rng.bernoulli(0.3)});
  EXPECT_NEAR(auc(data), 0.5, 0.04);
}

TEST(Curves, AuprcOfRandomScoresApproachesBaseRate) {
  Rng rng(13);
  const double base = 0.25;
  std::vector<Scored> data;
  for (int i = 0; i < 6000; ++i) data.push_back({rng.uniform(), rng.bernoulli(base)});
  EXPECT_NEAR(auprc(data), base, 0.05);
}

TEST(Curves, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(auprc({}), 0.0);
  EXPECT_DOUBLE_EQ(auc({}), 0.0);
  // All positives: ROC undefined -> 0; PR trivially 1.
  std::vector<Scored> all_pos{{0.5, true}, {0.1, true}};
  EXPECT_DOUBLE_EQ(auc(all_pos), 0.0);
  EXPECT_NEAR(auprc(all_pos), 1.0, 1e-12);
}

TEST(Curves, PrCurveMonotoneRecall) {
  Rng rng(5);
  std::vector<Scored> data;
  for (int i = 0; i < 500; ++i)
    data.push_back({rng.normal(), rng.bernoulli(0.4)});
  auto pts = pr_curve(data);
  ASSERT_FALSE(pts.empty());
  for (std::size_t i = 1; i < pts.size(); ++i)
    EXPECT_GE(pts[i].x, pts[i - 1].x);
  EXPECT_NEAR(pts.back().x, 1.0, 1e-12);  // lowest threshold recalls all
}

TEST(Curves, RocCurveMonotoneBothAxes) {
  Rng rng(6);
  std::vector<Scored> data;
  for (int i = 0; i < 500; ++i)
    data.push_back({rng.normal() + (rng.bernoulli(0.5) ? 0.5 : 0.0),
                    rng.bernoulli(0.5)});
  auto pts = roc_curve(data);
  ASSERT_FALSE(pts.empty());
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GE(pts[i].x, pts[i - 1].x);
    EXPECT_GE(pts[i].y, pts[i - 1].y);
  }
}

// Property: AUC equals the probability a random positive outscores a random
// negative (the rank statistic), checked against a brute-force count.
class AucRankTest : public ::testing::TestWithParam<int> {};

TEST_P(AucRankTest, MatchesRankStatistic) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<Scored> data;
  for (int i = 0; i < 150; ++i) {
    bool pos = rng.bernoulli(0.4);
    // Distinct scores so ties do not complicate the brute-force count.
    data.push_back({rng.uniform() + (pos ? 0.2 : 0.0), pos});
  }
  double pairs = 0.0, wins = 0.0;
  for (const auto& p : data) {
    if (!p.positive) continue;
    for (const auto& q : data) {
      if (q.positive) continue;
      pairs += 1.0;
      if (p.score > q.score) wins += 1.0;
      else if (p.score == q.score) wins += 0.5;
    }
  }
  ASSERT_GT(pairs, 0.0);
  EXPECT_NEAR(auc(data), wins / pairs, 0.01);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AucRankTest, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace metas::util
