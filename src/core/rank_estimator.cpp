#include "core/rank_estimator.hpp"

#include <algorithm>

#include "util/checkpoint.hpp"
#include "util/contracts.hpp"
#include "util/numeric.hpp"
#include "util/telemetry.hpp"

namespace metas::core {

namespace {

constexpr int kHoldoutPerRow = 3;   // entries removed per row for validation
constexpr int kHoldoutRepeats = 2;  // averaged splits per rank (damps noise)
static_assert(kHoldoutPerRow >= 1, "every holdout split removes entries");
static_assert(kHoldoutRepeats >= 1, "the holdout MSE averages >= 1 split");

// Splits filled entries into (train, holdout): up to `per_row` entries are
// removed per row; removing (i, j) counts toward both rows' quotas.
void holdout_split(const EstimatedMatrix& e, int per_row, util::Rng& rng,
                   std::vector<RatingEntry>& train,
                   std::vector<RatingEntry>& holdout) {
  const std::size_t n = e.size();
  std::vector<int> removed(n, 0);
  auto entries = e.filled_entries();
  std::vector<std::size_t> order = rng.sample_indices(entries.size(),
                                                      entries.size());
  std::vector<char> held(entries.size(), 0);
  for (std::size_t k : order) {
    auto [i, j] = entries[k];
    if (removed[i] >= per_row || removed[j] >= per_row) continue;
    // Keep at least one entry per touched row in the training set.
    if (e.row_filled(i) - mac::checked_cast<std::size_t>(removed[i]) <= 1) continue;
    if (e.row_filled(j) - mac::checked_cast<std::size_t>(removed[j]) <= 1) continue;
    held[k] = 1;
    ++removed[i];
    ++removed[j];
  }
  for (std::size_t k = 0; k < entries.size(); ++k) {
    auto [i, j] = entries[k];
    RatingEntry r{i, j, e.value(i, j)};
    (held[k] ? holdout : train).push_back(r);
  }
}

// Records candidate `r`'s holdout MSE and applies the acceptance rule:
// the first candidate is always accepted, a later one must beat the best
// MSE by max(kRankMinImprovement, kRankRelImprovement * best).  Returns
// true once `patience` candidates in a row have failed to.
bool accept_rank(const RankEstimatorConfig& cfg, int r, double mse,
                 double& best, int& no_improve, RankEstimateResult& res) {
  res.history.emplace_back(r, mse);
  double needed = best > 1e29 ? 0.0
                              : std::max(kRankMinImprovement,
                                         kRankRelImprovement * best);
  if (mse < best - needed) {
    best = mse;
    res.best_rank = r;
    res.best_mse = mse;
    no_improve = 0;
    return false;
  }
  return ++no_improve >= cfg.patience;
}

}  // namespace

double RankEstimator::holdout_mse_once(const EstimatedMatrix& e, int rank,
                                       util::Rng& rng) const {
  std::vector<RatingEntry> train, holdout;
  holdout_split(e, kHoldoutPerRow, rng, train, holdout);
  if (holdout.empty() || train.empty()) return 1.0;

  AlsConfig als = cfg_.als;
  als.rank = rank;
  AlsCompleter completer(ctx_->size(), *features_, als);
  completer.fit(train);

  // Only rows with more entries than the candidate rank are scored (§3.2);
  // sparser rows are set aside for this iteration.
  std::vector<RatingEntry> scored;
  for (const RatingEntry& h : holdout) {
    if (e.row_filled(h.i) > mac::checked_cast<std::size_t>(rank) &&
        e.row_filled(h.j) > mac::checked_cast<std::size_t>(rank))
      scored.push_back(h);
  }
  if (scored.empty()) scored = holdout;
  return completer.mse(scored);
}

double RankEstimator::holdout_mse(const EstimatedMatrix& e, int rank,
                                  util::Rng& rng) const {
  double s = 0.0;
  for (int k = 0; k < kHoldoutRepeats; ++k)
    s += holdout_mse_once(e, rank, rng);
  return s / kHoldoutRepeats;
}

void RankLoopState::save(util::checkpoint::Encoder& enc) const {
  enc.i32(next_rank);
  enc.f64(best);
  enc.i32(no_improve);
  enc.b(finished);
  enc.str(rng_state);
  enc.i32(partial.best_rank);
  enc.f64(partial.best_mse);
  enc.u64(partial.history.size());
  for (const auto& [rank, mse] : partial.history) {
    enc.i32(rank);
    enc.f64(mse);
  }
  enc.u64(partial.traceroutes_used);
  enc.b(partial.truncated);
}

void RankLoopState::load(util::checkpoint::Decoder& dec) {
  next_rank = dec.i32();
  best = dec.f64();
  no_improve = dec.i32();
  finished = dec.b();
  rng_state = dec.str();
  partial = RankEstimateResult{};
  partial.best_rank = dec.i32();
  partial.best_mse = dec.f64();
  const std::uint64_t nh = dec.u64();
  partial.history.reserve(nh);
  for (std::uint64_t k = 0; k < nh; ++k) {
    const int rank = dec.i32();
    partial.history.emplace_back(rank, dec.f64());
  }
  partial.traceroutes_used = dec.u64();
  partial.truncated = dec.b();
}

RankEstimateResult RankEstimator::run(MeasurementScheduler& scheduler,
                                      MeasurementSystem& ms,
                                      const RankRunOptions& opts) {
  MAC_REQUIRE(cfg_.max_rank >= 1, "max_rank=", cfg_.max_rank);
  util::Rng rng(cfg_.seed);
  RankEstimateResult res;
  double best = 1e30;
  int no_improve = 0;
  int start_rank = 1;
  if (opts.resume != nullptr) {
    // Continue a checkpointed loop: every local that influences control
    // flow or randomness is overwritten with the snapshot.
    if (opts.resume->finished) return opts.resume->partial;
    start_rank = opts.resume->next_rank;
    best = opts.resume->best;
    no_improve = opts.resume->no_improve;
    res = opts.resume->partial;
    rng.restore_state(opts.resume->rng_state);
  }
  scheduler.set_run_control(opts.control);
  for (int r = start_rank; r <= cfg_.max_rank; ++r) {
    // Cooperative stop between iterations: a rank candidate is the work
    // unit; the one in flight always finishes and is checkpointed.
    if (opts.control != nullptr && opts.control->stop_requested()) {
      res.truncated = true;
      break;
    }
    MAC_SPAN("pipeline.rank_iteration");
    MAC_COUNT("pipeline.rank_candidates_evaluated");
    res.traceroutes_used +=
        scheduler.fill_rows_to(r, cfg_.budget_per_iteration);
    EstimatedMatrix e = ms.build_matrix(*ctx_);
    double mse = holdout_mse(e, r, rng);
    MAC_HISTOGRAM("pipeline.rank_holdout_mse", mse);
    const bool stop = accept_rank(cfg_, r, mse, best, no_improve, res);
    if (opts.on_iteration) {
      // Rank boundary: hand the caller everything a resume at this exact
      // point needs, including whether the loop already decided to stop
      // (so a resumed run does not iterate past the patience break).
      RankLoopState st;
      st.next_rank = r + 1;
      st.best = best;
      st.no_improve = no_improve;
      st.finished = stop || r == cfg_.max_rank;
      st.rng_state = rng.save_state();
      st.partial = res;
      opts.on_iteration(st);
    }
    if (stop) break;
  }
  MAC_ENSURE(res.best_rank >= 1 && res.best_rank <= cfg_.max_rank,
             "best_rank=", res.best_rank, " max_rank=", cfg_.max_rank);
  return res;
}

RankEstimateResult RankEstimator::run_static(const EstimatedMatrix& e) {
  MAC_REQUIRE(cfg_.max_rank >= 1, "max_rank=", cfg_.max_rank);
  util::Rng rng(cfg_.seed);
  RankEstimateResult res;
  double best = 1e30;
  int no_improve = 0;
  for (int r = 1; r <= cfg_.max_rank; ++r) {
    if (accept_rank(cfg_, r, holdout_mse(e, r, rng), best, no_improve, res))
      break;
  }
  return res;
}

}  // namespace metas::core
