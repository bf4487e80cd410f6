// Probability-matrix (P_m) tests: availability, Beta updates, penalties,
// and hierarchical priors.
#include "core/probability.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>

#include <gtest/gtest.h>

#include "test_world.hpp"
#include "util/checkpoint.hpp"
#include "util/rng.hpp"

namespace metas::core {
namespace {

class ProbabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ctx_ = std::make_unique<MetroContext>(testing::shared_focus_context());
    pm_ = std::make_unique<ProbabilityMatrix>(*ctx_, *testing::shared_world().ms,
                                              nullptr);
  }
  std::unique_ptr<MetroContext> ctx_;
  std::unique_ptr<ProbabilityMatrix> pm_;
};

using traceroute::kNumStrategies;
using traceroute::kTargetCategories;
using traceroute::kVpCategories;

// Reference P_m: the dense 12 x 12 category-grid evaluation, with the pool
// factor computed by log10 and a penalty lookup for every strategy.  It keeps
// its own availability counts, strategy mask and penalties, and reads
// strategy_prob() (the uncached Beta mean) from the matrix under test.
struct ReferencePm {
  std::size_t n = 0;
  std::vector<std::array<int, kVpCategories>> vc;
  std::vector<std::array<int, kTargetCategories>> tc;
  std::array<bool, kNumStrategies> allowed{};
  std::map<std::uint64_t, double> penalties;
  double penalty_factor = ProbabilityConfig{}.penalty_factor;
  // Pool products seen, split at the log10 saturation point (999).
  mutable std::size_t pools_below = 0, pools_at = 0, pools_above = 0;

  explicit ReferencePm(std::size_t size) : n(size), vc(size), tc(size) {
    allowed.fill(true);
  }

  std::uint64_t key(int near, int far, int s) const {
    return (static_cast<std::uint64_t>(near) * n + static_cast<std::uint64_t>(far)) *
               kNumStrategies +
           static_cast<std::uint64_t>(s);
  }

  double dir_prob(const ProbabilityMatrix& pm, int near, int far, int* best_vp,
                  int* best_tgt) const {
    const auto& v_counts = vc[static_cast<std::size_t>(near)];
    const auto& t_counts = tc[static_cast<std::size_t>(far)];
    double best = 0.0;
    for (int v = 0; v < kVpCategories; ++v) {
      if (v_counts[static_cast<std::size_t>(v)] == 0) continue;
      for (int t = 0; t < kTargetCategories; ++t) {
        if (t_counts[static_cast<std::size_t>(t)] == 0) continue;
        int s = traceroute::strategy_index(v, t);
        if (!allowed[static_cast<std::size_t>(s)]) continue;
        double p = pm.strategy_prob(s);
        double pool = static_cast<double>(v_counts[static_cast<std::size_t>(v)]) *
                      static_cast<double>(t_counts[static_cast<std::size_t>(t)]);
        if (pool < 999.0) ++pools_below;
        else if (pool > 999.0) ++pools_above;
        else ++pools_at;
        p *= 1.0 + 0.08 * std::min(3.0, std::log10(pool + 1.0));
        auto pen = penalties.find(key(near, far, s));
        if (pen != penalties.end()) p *= pen->second;
        if (p > best) {
          best = p;
          *best_vp = v;
          *best_tgt = t;
        }
      }
    }
    return std::min(best, 1.0);
  }

  StrategyChoice choose(const ProbabilityMatrix& pm, int i, int j) const {
    StrategyChoice a, b;
    a.probability = dir_prob(pm, i, j, &a.vp_cat, &a.tgt_cat);
    b.probability = dir_prob(pm, j, i, &b.vp_cat, &b.tgt_cat);
    b.swapped = true;
    return a.probability >= b.probability ? a : b;
  }

  void record(int i, int j, const StrategyChoice& c, bool informative) {
    if (c.vp_cat < 0 || c.tgt_cat < 0 || informative) return;
    int near = c.swapped ? j : i, far = c.swapped ? i : j;
    auto [it, inserted] = penalties.emplace(
        key(near, far, traceroute::strategy_index(c.vp_cat, c.tgt_cat)), 1.0);
    it->second *= penalty_factor;
  }

  void restrict_to_ixp_mapped() {
    using traceroute::TargetTopo;
    using traceroute::VpTopo;
    for (int s = 0; s < kNumStrategies; ++s) {
      traceroute::Strategy st = traceroute::strategy_from_index(s);
      allowed[static_cast<std::size_t>(s)] =
          (st.vp_topo == VpTopo::kInAs || st.vp_topo == VpTopo::kInCone) &&
          (st.vp_geo == topology::GeoScope::kSameMetro ||
           st.vp_geo == topology::GeoScope::kSameCountry) &&
          st.tgt_topo != TargetTopo::kInCone;
    }
  }
};

void expect_same_choices(const ProbabilityMatrix& pm, const ReferencePm& ref) {
  const int n = static_cast<int>(ref.n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      StrategyChoice got = pm.choose(i, j), want = ref.choose(pm, i, j);
      ASSERT_TRUE(got.probability == want.probability)  // bit-identical
          << i << "," << j << ": " << got.probability << " vs " << want.probability;
      ASSERT_EQ(got.vp_cat, want.vp_cat) << i << "," << j;
      ASSERT_EQ(got.tgt_cat, want.tgt_cat) << i << "," << j;
      ASSERT_EQ(got.swapped, want.swapped) << i << "," << j;
      ASSERT_TRUE(pm.entry_prob(i, j) == want.probability) << i << "," << j;
    }
  }
}

// Random outcomes on random entries, mirrored into the reference; about a
// third are informative, the rest add or deepen link penalties.
void random_records(ProbabilityMatrix& pm, ReferencePm& ref, util::Rng& rng,
                    int count) {
  for (int k = 0; k < count; ++k) {
    int i = static_cast<int>(rng.index(ref.n));
    int j = static_cast<int>(rng.index(ref.n));
    if (i == j) continue;
    StrategyChoice c = pm.choose(i, j);
    bool informative = rng.bernoulli(0.3);
    pm.record(i, j, c, informative);
    ref.record(i, j, c, informative);
  }
}

// Saves `pm`, loads it into a fresh matrix over the same context, and checks
// the reload re-saves the same bytes.
std::unique_ptr<ProbabilityMatrix> reload(const ProbabilityMatrix& pm,
                                          const MetroContext& ctx) {
  util::checkpoint::Encoder enc;
  pm.save(enc);
  auto fresh = std::make_unique<ProbabilityMatrix>(ctx, *testing::shared_world().ms,
                                                   nullptr);
  util::checkpoint::Decoder dec(enc.data());
  fresh->load(dec);
  util::checkpoint::Encoder again;
  fresh->save(again);
  EXPECT_EQ(enc.data(), again.data());
  return fresh;
}

TEST_F(ProbabilityTest, ChooseMatchesDenseGridReference) {
  const auto& ms = *testing::shared_world().ms;
  ReferencePm ref(ctx_->size());
  for (std::size_t i = 0; i < ctx_->size(); ++i) {
    auto v = ms.vp_category_counts(ctx_->as_at(i), ctx_->metro());
    auto t = ms.target_category_counts(ctx_->as_at(i), ctx_->metro());
    std::copy(v.begin(), v.end(), ref.vc[i].begin());
    std::copy(t.begin(), t.end(), ref.tc[i].begin());
  }
  util::Rng rng(5);
  expect_same_choices(*pm_, ref);
  random_records(*pm_, ref, rng, 4000);
  expect_same_choices(*pm_, ref);
  EXPECT_FALSE(ref.penalties.empty());

  auto loaded = reload(*pm_, *ctx_);
  expect_same_choices(*loaded, ref);

  pm_->restrict_to_ixp_mapped();
  loaded->restrict_to_ixp_mapped();
  ref.restrict_to_ixp_mapped();
  expect_same_choices(*pm_, ref);
  random_records(*pm_, ref, rng, 2000);
  expect_same_choices(*pm_, ref);
  loaded = reload(*pm_, *ctx_);
  expect_same_choices(*loaded, ref);
}

TEST_F(ProbabilityTest, ChooseMatchesDenseGridAcrossPoolSaturation) {
  // Availability counts chosen so VP x target pool products land below, at
  // and above 999 (27 x 37 = 999, 2 x 499 = 998, 1000 x 1), installed
  // through a checkpoint so load() has to rebuild every derived index.
  const std::array<int, 10> kCounts{0, 0, 1, 2, 27, 37, 499, 998, 1000, 5000};
  const std::size_t n = ctx_->size();
  ReferencePm ref(n);
  util::Rng rng(9);
  util::checkpoint::Encoder enc;
  enc.u64(n);
  enc.u64(n);
  for (auto& row : ref.vc)
    for (int& c : row) enc.i32(c = kCounts[rng.index(kCounts.size())]);
  enc.u64(n);
  for (auto& row : ref.tc)
    for (int& c : row) enc.i32(c = kCounts[rng.index(kCounts.size())]);
  for (int s = 0; s < kNumStrategies; ++s) enc.f64(1.0 + rng.uniform(0.0, 5.0));
  for (int s = 0; s < kNumStrategies; ++s) enc.f64(2.0 + rng.uniform(0.0, 5.0));
  for (int s = 0; s < kNumStrategies; ++s) enc.b(true);
  enc.u64(0);  // no penalties yet
  util::checkpoint::Decoder dec(enc.data());
  pm_->load(dec);

  expect_same_choices(*pm_, ref);
  EXPECT_GT(ref.pools_below, 0u);
  EXPECT_GT(ref.pools_at, 0u);
  EXPECT_GT(ref.pools_above, 0u);
  random_records(*pm_, ref, rng, 4000);
  expect_same_choices(*pm_, ref);
  auto loaded = reload(*pm_, *ctx_);
  expect_same_choices(*loaded, ref);
}

TEST_F(ProbabilityTest, LoadRejectsStateOutsideTheMetro) {
  // load() rebuilds arrays indexed by the loaded rows and penalty keys, so a
  // checkpoint whose rows, counts or keys do not fit the metro is refused.
  const std::uint64_t n = ctx_->size();
  auto checkpoint = [n](std::uint64_t rows, int count, std::uint64_t pen_key) {
    util::checkpoint::Encoder enc;
    enc.u64(n);
    for (int cats : {kVpCategories, kTargetCategories}) {
      enc.u64(rows);
      for (std::uint64_t r = 0; r < rows; ++r)
        for (int c = 0; c < cats; ++c) enc.i32(count);
    }
    for (int s = 0; s < kNumStrategies; ++s) enc.f64(1.0);
    for (int s = 0; s < kNumStrategies; ++s) enc.f64(2.0);
    for (int s = 0; s < kNumStrategies; ++s) enc.b(true);
    enc.u64(1);
    enc.u64(pen_key);
    enc.f64(0.6);
    return enc.take();
  };
  auto load = [this](const std::string& bytes) {
    util::checkpoint::Decoder dec(bytes);
    pm_->load(dec);
  };
  const std::uint64_t past_last_key = n * n * kNumStrategies;
  EXPECT_NO_THROW(load(checkpoint(n, 1, past_last_key - 1)));
  using util::checkpoint::CheckpointError;
  EXPECT_THROW(load(checkpoint(n - 1, 1, 0)), CheckpointError);
  EXPECT_THROW(load(checkpoint(n, -1, 0)), CheckpointError);
  EXPECT_THROW(load(checkpoint(n, 1, past_last_key)), CheckpointError);
}

TEST_F(ProbabilityTest, InitialStrategyProbsAreUniformPrior) {
  for (int s = 0; s < traceroute::kNumStrategies; ++s)
    EXPECT_NEAR(pm_->strategy_prob(s), 1.0 / 3.0, 1e-9);
}

TEST_F(ProbabilityTest, ChooseReturnsAvailableStrategy) {
  StrategyChoice c = pm_->choose(0, 1);
  EXPECT_GE(c.vp_cat, 0);
  EXPECT_GE(c.tgt_cat, 0);
  EXPECT_GT(c.probability, 0.0);
  EXPECT_LE(c.probability, 1.0);
}

TEST_F(ProbabilityTest, SuccessRaisesFailureLowersStrategyProb) {
  StrategyChoice c = pm_->choose(0, 1);
  int s = traceroute::strategy_index(c.vp_cat, c.tgt_cat);
  double before = pm_->strategy_prob(s);
  pm_->record(0, 1, c, true);
  EXPECT_GT(pm_->strategy_prob(s), before);
  double after_success = pm_->strategy_prob(s);
  pm_->record(0, 1, c, false);
  EXPECT_LT(pm_->strategy_prob(s), after_success);
}

TEST_F(ProbabilityTest, RepeatedFailurePenalizesLink) {
  double p0 = pm_->entry_prob(2, 3);
  // Hammer the same link with failures. entry_prob is the max over all
  // available strategies, so the drop only shows once every tied
  // alternative has been tried and penalized (at most 144 strategies in
  // two orientations).
  for (int k = 0; k < 300; ++k) pm_->record(2, 3, pm_->choose(2, 3), false);
  double p1 = pm_->entry_prob(2, 3);
  EXPECT_LT(p1, p0);
}

TEST_F(ProbabilityTest, EntryProbIsSymmetricInOrientationChoice) {
  // choose() considers both orientations, so it never returns a worse
  // probability than either single orientation.
  StrategyChoice c = pm_->choose(1, 2);
  EXPECT_GT(c.probability, 0.0);
  StrategyChoice r = pm_->choose(2, 1);
  EXPECT_NEAR(c.probability, r.probability, 1e-12);
}

TEST_F(ProbabilityTest, PriorsTransferAcrossMetros) {
  // Record a clear pattern, export, and check a fresh matrix starts biased.
  StrategyChoice c = pm_->choose(0, 1);
  int s = traceroute::strategy_index(c.vp_cat, c.tgt_cat);
  for (int k = 0; k < 30; ++k) pm_->record(0, 1, c, true);

  StrategyPriors pool;
  pm_->export_priors(pool);
  EXPECT_EQ(pool.metros_observed, 1);
  EXPECT_GT(pool.alpha[static_cast<std::size_t>(s)], 20.0);

  ProbabilityMatrix warm(*ctx_, *testing::shared_world().ms, &pool);
  ProbabilityMatrix cold(*ctx_, *testing::shared_world().ms, nullptr);
  EXPECT_GT(warm.strategy_prob(s), cold.strategy_prob(s));
}

TEST_F(ProbabilityTest, PriorStrengthIsCapped) {
  StrategyChoice c = pm_->choose(0, 1);
  int s = traceroute::strategy_index(c.vp_cat, c.tgt_cat);
  for (int k = 0; k < 500; ++k) pm_->record(0, 1, c, true);
  StrategyPriors pool;
  pm_->export_priors(pool);
  ProbabilityConfig cfg;
  ProbabilityMatrix warm(*ctx_, *testing::shared_world().ms, &pool, cfg);
  // Even with 500 pooled successes, the warm prior stays a prior: a run of
  // failures can still pull the estimate down.
  double before = warm.strategy_prob(s);
  StrategyChoice fixed = c;
  for (int k = 0; k < 40; ++k) warm.record(0, 1, fixed, false);
  EXPECT_LT(warm.strategy_prob(s), before * 0.8);
}

TEST_F(ProbabilityTest, IxpMappedRestrictionNarrowsChoices) {
  pm_->restrict_to_ixp_mapped();
  StrategyChoice c = pm_->choose(0, 1);
  if (c.vp_cat >= 0) {
    auto st = traceroute::strategy_from_index(
        traceroute::strategy_index(c.vp_cat, c.tgt_cat));
    EXPECT_NE(st.vp_topo, traceroute::VpTopo::kOutside);
    EXPECT_NE(st.tgt_topo, traceroute::TargetTopo::kInCone);
  }
}

}  // namespace
}  // namespace metas::core
