// Measurement-scheduler tests: batches, policies, exploration limits,
// give-up behaviour.
#include "core/scheduler.hpp"

#include <gtest/gtest.h>

#include "test_world.hpp"
#include "util/checkpoint.hpp"

namespace metas::core {
namespace {

class SchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ctx_ = std::make_unique<MetroContext>(testing::shared_focus_context());
    pm_ = std::make_unique<ProbabilityMatrix>(
        *ctx_, *testing::shared_world().ms, nullptr);
  }
  SchedulerConfig cfg_with(SelectionPolicy p, int batch = 40) {
    SchedulerConfig cfg;
    cfg.policy = p;
    cfg.batch_size = batch;
    cfg.seed = 77;
    return cfg;
  }
  std::unique_ptr<MetroContext> ctx_;
  std::unique_ptr<ProbabilityMatrix> pm_;
};

TEST_F(SchedulerTest, BatchIssuesMeasurementsAndLogsHistory) {
  auto& w = testing::shared_world();
  MeasurementScheduler sched(*ctx_, *w.ms, *pm_,
                             cfg_with(SelectionPolicy::kMetascritic));
  EstimatedMatrix e = w.ms->build_matrix(*ctx_);
  std::size_t before = w.ms->traceroutes_issued();
  BatchResult got = sched.run_batch(e, 5);
  EXPECT_GT(got.selected, 0u);
  EXPECT_EQ(sched.history().size(), got.selected);
  EXPECT_LE(got.launched, got.selected);
  EXPECT_GE(w.ms->traceroutes_issued(), before);
  for (const auto& rec : sched.history()) {
    EXPECT_GE(rec.i, 0);
    EXPECT_GE(rec.j, 0);
    EXPECT_NE(rec.i, rec.j);
    EXPECT_GE(rec.estimated_prob, 0.0);
    EXPECT_LE(rec.estimated_prob, 1.0);
  }
}

TEST_F(SchedulerTest, FillRowsStopsWhenSatisfied) {
  auto& w = testing::shared_world();
  MeasurementScheduler sched(*ctx_, *w.ms, *pm_,
                             cfg_with(SelectionPolicy::kMetascritic, 60));
  // Target 1: the archives almost certainly filled one entry per row already
  // for most rows, so this should finish with few or no measurements.
  std::size_t issued = sched.fill_rows_to(1, 500);
  EstimatedMatrix e = w.ms->build_matrix(*ctx_);
  std::size_t deficient = 0;
  for (std::size_t i = 0; i < ctx_->size(); ++i)
    if (e.row_filled(i) < 1 && !sched.given_up()[i]) ++deficient;
  EXPECT_EQ(deficient, 0u);
  EXPECT_LE(issued, 500u);
}

TEST_F(SchedulerTest, BudgetIsRespected) {
  auto& w = testing::shared_world();
  SchedulerConfig cfg = cfg_with(SelectionPolicy::kMetascritic, 25);
  MeasurementScheduler sched(*ctx_, *w.ms, *pm_, cfg);
  std::size_t issued = sched.fill_rows_to(30, 50);
  EXPECT_LE(issued, 50u + static_cast<std::size_t>(cfg.batch_size));
}

TEST_F(SchedulerTest, RandomPolicyRuns) {
  auto& w = testing::shared_world();
  MeasurementScheduler sched(*ctx_, *w.ms, *pm_,
                             cfg_with(SelectionPolicy::kRandom));
  EstimatedMatrix e = w.ms->build_matrix(*ctx_);
  EXPECT_GT(sched.run_batch(e, 10).selected, 0u);
}

TEST_F(SchedulerTest, GreedyPolicyPicksHighProbabilityEntriesFirst) {
  auto& w = testing::shared_world();
  MeasurementScheduler sched(*ctx_, *w.ms, *pm_,
                             cfg_with(SelectionPolicy::kGreedy, 30));
  EstimatedMatrix e = w.ms->build_matrix(*ctx_);
  ASSERT_GT(sched.run_batch(e, 10).selected, 0u);
  // Recorded estimated probabilities are non-increasing-ish: check the
  // first pick is at least as probable as the last.
  const auto& h = sched.history();
  ASSERT_GE(h.size(), 2u);
  EXPECT_GE(h.front().estimated_prob + 1e-9, h.back().estimated_prob);
}

TEST_F(SchedulerTest, OnlyExplorePolicyMarksExploration) {
  auto& w = testing::shared_world();
  MeasurementScheduler sched(*ctx_, *w.ms, *pm_,
                             cfg_with(SelectionPolicy::kOnlyExplore, 20));
  EstimatedMatrix e = w.ms->build_matrix(*ctx_);
  BatchResult got = sched.run_batch(e, 10);
  // Exploration is limited to one per row per batch, so the count is
  // bounded by half the universe.
  EXPECT_LE(got.selected, ctx_->size() / 2 + 1);
}

TEST_F(SchedulerTest, ExplorationNeverRepeatsAnEntry) {
  auto& w = testing::shared_world();
  MeasurementScheduler sched(*ctx_, *w.ms, *pm_,
                             cfg_with(SelectionPolicy::kOnlyExplore, 15));
  EstimatedMatrix e = w.ms->build_matrix(*ctx_);
  sched.run_batch(e, 10);
  sched.run_batch(e, 10);
  std::set<std::pair<int, int>> seen;
  for (const auto& rec : sched.history()) {
    auto key = std::minmax(rec.i, rec.j);
    EXPECT_TRUE(seen.insert({key.first, key.second}).second)
        << "entry explored twice: " << rec.i << "," << rec.j;
  }
}

TEST_F(SchedulerTest, MeasurementsImproveCoverage) {
  auto& w = testing::shared_world();
  MeasurementScheduler sched(*ctx_, *w.ms, *pm_,
                             cfg_with(SelectionPolicy::kMetascritic, 120));
  EstimatedMatrix before = w.ms->build_matrix(*ctx_);
  sched.fill_rows_to(8, 600);
  EstimatedMatrix after = w.ms->build_matrix(*ctx_);
  EXPECT_GE(after.total_filled(), before.total_filled());
}

TEST_F(SchedulerTest, ContextsWithFewerThanTwoAsesRunEmptyBatches) {
  // A metro with zero or one AS has no entries: every policy must return an
  // empty batch (no unbounded explore sweep, no Rng::index(0) throw), and a
  // campaign ends at once without spending budget.
  auto& w = testing::shared_world();
  for (std::size_t keep : {std::size_t{0}, std::size_t{1}}) {
    topology::Internet net = w.net;
    net.metros.at(static_cast<std::size_t>(ctx_->metro())).ases.resize(keep);
    MetroContext tiny(net, ctx_->metro());
    ASSERT_EQ(tiny.size(), keep);
    for (SelectionPolicy p :
         {SelectionPolicy::kMetascritic, SelectionPolicy::kOnlyExploit,
          SelectionPolicy::kOnlyExplore, SelectionPolicy::kRandom,
          SelectionPolicy::kGreedy, SelectionPolicy::kIxpMapped}) {
      ProbabilityMatrix pm(tiny, *w.ms, nullptr);
      MeasurementScheduler sched(tiny, *w.ms, pm, cfg_with(p));
      BatchResult got = sched.run_batch(EstimatedMatrix(keep), 3);
      EXPECT_EQ(got.selected, 0u) << "keep=" << keep;
      EXPECT_EQ(got.launched, 0u) << "keep=" << keep;
      EXPECT_TRUE(sched.history().empty()) << "keep=" << keep;
      EXPECT_EQ(sched.fill_rows_to(3, 100), 0u) << "keep=" << keep;
      EXPECT_TRUE(sched.history().empty()) << "keep=" << keep;
    }
  }
}

TEST_F(SchedulerTest, LoadRejectsEntryKeysOutsideTheMetro) {
  // Per-entry state is dense over the metro's n x n keys, so a checkpoint
  // from a larger metro cannot be loaded into a smaller one.
  auto& w = testing::shared_world();
  MeasurementScheduler big(*ctx_, *w.ms, *pm_,
                           cfg_with(SelectionPolicy::kOnlyExplore, 10));
  ASSERT_GT(big.run_batch(w.ms->build_matrix(*ctx_), 10).selected, 0u);
  util::checkpoint::Encoder enc;
  big.save(enc);

  topology::Internet net = w.net;
  net.metros.at(static_cast<std::size_t>(ctx_->metro())).ases.resize(2);
  MetroContext tiny(net, ctx_->metro());
  ProbabilityMatrix pm(tiny, *w.ms, nullptr);
  MeasurementScheduler small(tiny, *w.ms, pm, cfg_with(SelectionPolicy::kOnlyExplore));
  util::checkpoint::Decoder dec(enc.data());
  EXPECT_THROW(small.load(dec), util::checkpoint::CheckpointError);
}

TEST_F(SchedulerTest, InterleavedSchedulersEachCountOnlyTheirOwnProbes) {
  // Two schedulers alive at once on one measurement plane: each report must
  // match its own measurement log, whatever the other one launched.
  auto& w = testing::shared_world();
  ASSERT_GE(w.focus_metros.size(), 2u);
  MetroContext ctx_b(w.net, w.focus_metros[1]);
  ProbabilityMatrix pm_b(ctx_b, *w.ms, nullptr);
  MeasurementScheduler a(*ctx_, *w.ms, *pm_,
                         cfg_with(SelectionPolicy::kMetascritic, 30));
  MeasurementScheduler b(ctx_b, *w.ms, pm_b,
                         cfg_with(SelectionPolicy::kMetascritic, 30));
  for (int target : {6, 8}) {
    a.fill_rows_to(target, 120);
    b.fill_rows_to(target, 120);
  }
  for (const MeasurementScheduler* s : {&a, &b}) {
    std::size_t launched = 0, faulted = 0, retries = 0;
    for (const IssuedRecord& rec : s->history()) {
      launched += static_cast<std::size_t>(rec.launched);
      faulted += static_cast<std::size_t>(rec.faulted);
      retries += static_cast<std::size_t>(std::max(0, rec.attempts - 1));
    }
    EXPECT_GT(launched, 0u);
    EXPECT_EQ(s->degradation().probes_launched, launched);
    EXPECT_EQ(s->degradation().probes_faulted, faulted);
    EXPECT_EQ(s->degradation().retries, retries);
  }
}

}  // namespace
}  // namespace metas::core
