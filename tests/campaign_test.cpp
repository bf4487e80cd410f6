// Campaign runner tests (DESIGN.md §12), in process: a run cancelled at a
// checkpoint and resumed into a freshly built world exports byte-identical
// CSVs, a checkpoint from a different campaign is refused with an error,
// and switching resilience off disables the scheduler's requeues too.
// tests/crash_recovery_test.cpp drives the same paths through the CLI.
#include "eval/campaign.hpp"

#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

namespace metas::eval {
namespace {

namespace fs = std::filesystem;

class CampaignTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("campaign_" + std::string(::testing::UnitTest::GetInstance()
                                          ->current_test_info()
                                          ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Seed 42, every focus metro, small scale, checkpointing to <dir>/ck/snap.
  CampaignConfig config(const std::string& out) const {
    CampaignConfig cfg;
    cfg.seed = 42;
    cfg.all_metros = true;
    cfg.out_dir = (dir_ / out).string();
    cfg.checkpoint_path = (dir_ / "ck" / "snap").string();
    return cfg;
  }

  /// Runs `cfg` in a world built just for this run.
  static CampaignResult run(const CampaignConfig& cfg,
                            const util::RunControl& control = {},
                            const CampaignHooks& hooks = {}) {
    World world = build_world(campaign_world_config(cfg));
    return run_campaign(cfg, world, control, hooks);
  }

  /// A run whose CancelToken trips right after checkpoint `at` lands.
  static CampaignResult run_cancelled_at(const CampaignConfig& cfg, int at) {
    util::CancelToken token;
    util::RunControl control;
    control.token = &token;
    CampaignHooks hooks;
    hooks.after_checkpoint = [&token, at](int written) {
      if (written == at) token.cancel();
    };
    return run(cfg, control, hooks);
  }

  static std::string read_file(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }

  fs::path dir_;
};

TEST_F(CampaignTest, CancelledRunResumesByteIdentical) {
  CampaignConfig ref_cfg = config("ref");
  ref_cfg.checkpoint_path.clear();
  const CampaignResult ref = run(ref_cfg);
  ASSERT_TRUE(ref.error.empty()) << ref.error;
  ASSERT_EQ(ref.completed.size(), 4u);

  const CampaignResult cut = run_cancelled_at(config("out"), 2);
  ASSERT_TRUE(cut.error.empty()) << cut.error;
  EXPECT_TRUE(cut.stopped_early);
  EXPECT_EQ(cut.checkpoints_written, 2);
  ASSERT_FALSE(cut.completed.empty());
  EXPECT_LT(cut.completed.size(), ref.completed.size());
  EXPECT_GT(cut.completed.back().degradation.phases_truncated, 0u);

  CampaignConfig resume_cfg = config("out");
  resume_cfg.resume_path = resume_cfg.checkpoint_path;
  const CampaignResult resumed = run(resume_cfg);
  ASSERT_TRUE(resumed.error.empty()) << resumed.error;
  EXPECT_FALSE(resumed.stopped_early);
  ASSERT_EQ(resumed.completed.size(), ref.completed.size());
  for (std::size_t k = 0; k < ref.completed.size(); ++k) {
    const MetroSummary& want = ref.completed[k];
    const MetroSummary& got = resumed.completed[k];
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.rank, want.rank);
    EXPECT_EQ(got.traces, want.traces);
    EXPECT_EQ(got.links, want.links);
    for (const char* kind : {"links", "ratings", "measurements"}) {
      const std::string file = want.name + "_" + kind + ".csv";
      const std::string expect = read_file(dir_ / "ref" / file);
      EXPECT_FALSE(expect.empty()) << file;
      EXPECT_EQ(read_file(dir_ / "out" / file), expect)
          << "export differs: " << file;
    }
  }
}

TEST_F(CampaignTest, MismatchedFingerprintIsAnError) {
  ASSERT_TRUE(run_cancelled_at(config("out"), 1).error.empty());

  // Same checkpoint, different metro selection: must refuse, not diverge.
  CampaignConfig cfg = config("out");
  cfg.all_metros = false;
  cfg.resume_path = cfg.checkpoint_path;
  const CampaignResult r = run(cfg);
  EXPECT_NE(r.error.find("different"), std::string::npos) << r.error;
  EXPECT_TRUE(r.completed.empty());
}

TEST_F(CampaignTest, FaultsWithoutResilienceNeverRequeue) {
  // The campaign's one resilience switch also governs the scheduler: with
  // it off, an infrastructure failure is an uninformative result, never a
  // requeue (DESIGN.md §7).
  CampaignConfig cfg = config("out");
  cfg.checkpoint_path.clear();
  cfg.faults = traceroute::FaultProfile::flaky();
  cfg.resilience = false;
  const CampaignResult r = run(cfg);
  ASSERT_TRUE(r.error.empty()) << r.error;
  ASSERT_EQ(r.completed.size(), 4u);
  std::size_t infra_failures = 0;
  for (const MetroSummary& m : r.completed) {
    EXPECT_EQ(m.degradation.requeues, 0u) << m.name;
    infra_failures += m.degradation.infra_failures;
  }
  EXPECT_GT(infra_failures, 0u) << "the fault profile never hit a probe";
}

}  // namespace
}  // namespace metas::eval
