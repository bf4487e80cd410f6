#include "core/scheduler.hpp"

#include <algorithm>
#include <limits>

#include "util/checkpoint.hpp"
#include "util/contracts.hpp"
#include "util/numeric.hpp"
#include "util/telemetry.hpp"
#include "util/trace.hpp"

namespace metas::core {

namespace {

// Exploitation only picks an entry whose P_ij exceeds this floor.
constexpr double kExploitMinProb = 0.1;
// Requeue backoff after an infrastructure failure, in scheduler ticks (pick
// slots): kRequeueBackoffBase doubling per failure, capped.
constexpr std::uint64_t kRequeueBackoffBase = 8;
constexpr std::uint64_t kRequeueBackoffCap = 1024;
static_assert(kExploitMinProb >= 0.0 && kExploitMinProb <= 1.0);
static_assert(kRequeueBackoffBase >= 1 &&
              kRequeueBackoffCap >= kRequeueBackoffBase);

std::uint64_t entry_key(int i, int j, std::size_t n) {
  auto lo = mac::checked_cast<std::uint64_t>(std::min(i, j));
  auto hi = mac::checked_cast<std::uint64_t>(std::max(i, j));
  return lo * n + hi;
}
}  // namespace

MeasurementScheduler::MeasurementScheduler(const MetroContext& ctx,
                                           MeasurementSystem& ms,
                                           ProbabilityMatrix& pm,
                                           SchedulerConfig cfg)
    : ctx_(&ctx),
      ms_(&ms),
      pm_(&pm),
      cfg_(cfg),
      rng_(cfg.seed),
      fail_streak_(ctx.size(), 0),
      given_up_(ctx.size(), false),
      explored_entries_(ctx.size() * ctx.size(), 0),
      attempted_(ctx.size() * ctx.size(), 0),
      requeued_(ctx.size() * ctx.size()),
      exploit_p_(ctx.size(), -1.0) {
  MAC_REQUIRE(cfg.batch_size > 0, "batch_size=", cfg.batch_size);
  MAC_REQUIRE(cfg.epsilon >= 0.0 && cfg.epsilon <= 1.0,
              "epsilon=", cfg.epsilon);
  MAC_REQUIRE(cfg.row_fail_limit > 0, "row_fail_limit=", cfg.row_fail_limit);
  if (cfg_.policy == SelectionPolicy::kOnlyExploit) cfg_.epsilon = 0.0;
  if (cfg_.policy == SelectionPolicy::kOnlyExplore) cfg_.epsilon = 1.0;
  if (cfg_.policy == SelectionPolicy::kIxpMapped) {
    pm_->restrict_to_ixp_mapped();
    cfg_.epsilon = 0.0;
  }
}

std::size_t MeasurementScheduler::fill_rows_to(int target, std::size_t budget) {
  MAC_REQUIRE(target >= 1, "target=", target);
  MAC_SPAN("scheduler.fill_rows_to");
  MAC_COUNT("scheduler.campaigns_run");
  std::size_t issued = 0;
  std::fill(fail_streak_.begin(), fail_streak_.end(), 0);
  std::fill(given_up_.begin(), given_up_.end(), false);
  // A batch can select picks yet launch nothing (every entry requeued, or
  // the infrastructure blocking every attempt before launch).  A bounded
  // number of such dry batches lets backoff windows expire; beyond that the
  // campaign degrades gracefully instead of spinning.
  constexpr int kMaxDryBatches = 16;
  int dry_batches = 0;
  while (issued < budget) {
    // Cooperative stop: poll between batches so a cancellation or deadline
    // expiry finishes the current batch and degrades gracefully instead of
    // abandoning in-flight accounting.
    if (control_ != nullptr && control_->stop_requested()) {
      MAC_COUNT("scheduler.campaigns_stopped_early");
      break;
    }
    EstimatedMatrix e = ms_->build_matrix(*ctx_);
    bool any_deficient = false;
    for (std::size_t i = 0; i < ctx_->size(); ++i) {
      if (given_up_[i]) continue;
      if (e.row_filled(i) < mac::checked_cast<std::size_t>(target)) {
        any_deficient = true;
        break;
      }
    }
    if (!any_deficient) break;
    BatchResult got = run_batch(e, target);
    issued += got.launched;
    if (got.selected == 0) break;  // nothing selectable anymore
    if (got.launched == 0) {
      if (++dry_batches >= kMaxDryBatches) break;
    } else {
      dry_batches = 0;
    }
  }
  finish_campaign(target);
  // Budget accounting: overshoot is bounded by one batch worth of picks,
  // each of which may fail over a bounded number of times (the batch that
  // crosses the budget line is not truncated mid-flight).
  MAC_ENSURE(issued < budget + mac::checked_cast<std::size_t>(cfg_.batch_size) *
                                   mac::checked_cast<std::size_t>(
                                       kMaxProbeAttempts),
             "issued=", issued, " budget=", budget,
             " batch_size=", cfg_.batch_size);
  return issued;
}

bool MeasurementScheduler::under_backoff(int i, int j) const {
  return requeued_[entry_key(i, j, ctx_->size())].retry_at > sched_tick_;
}

void MeasurementScheduler::finish_campaign(int target) {
  const std::size_t n = ctx_->size();
  EstimatedMatrix e = ms_->build_matrix(*ctx_);
  degradation_.fill_target = target;
  degradation_.rows = n;
  degradation_.rows_at_target = 0;
  degradation_.rows_given_up = 0;
  double fill = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    auto filled = static_cast<double>(e.row_filled(i));
    fill += std::min(1.0, filled / static_cast<double>(target));
    if (e.row_filled(i) >= mac::checked_cast<std::size_t>(target))
      ++degradation_.rows_at_target;
    if (given_up_[i]) ++degradation_.rows_given_up;
  }
  degradation_.fill_fraction = n == 0 ? 0.0 : fill / static_cast<double>(n);
  // Quarantine/death are current measurement-system state, not cumulative
  // event counts -- they stay direct reads.
  degradation_.quarantined_vps = ms_->quarantined_vps();
  degradation_.dead_vps = ms_->dead_vps();
  MAC_COUNT_N("scheduler.rows_given_up", degradation_.rows_given_up);
  MAC_GAUGE_SET("scheduler.fill_fraction", degradation_.fill_fraction);
  // Counter *sample*: the gauge keeps only the last value, the trace keeps
  // the fill trajectory across campaigns (a Perfetto counter track).
  MAC_TRACE_COUNTER("scheduler.fill_fraction", degradation_.fill_fraction);
}

BatchResult MeasurementScheduler::run_batch(const EstimatedMatrix& e,
                                            int target) {
  const std::size_t n = ctx_->size();
  BatchResult result;
  if (n < 2) return result;  // no entries to measure
  // Optimistic per-batch fill counts: selected measurements are assumed
  // successful while composing the batch (§3.3.1).
  std::vector<std::size_t> sim_filled(n);
  for (std::size_t i = 0; i < n; ++i) sim_filled[i] = e.row_filled(i);

  std::vector<std::uint8_t> batch_explored_rows(n, 0);
  MAC_COUNT("scheduler.batches_run");

  if (cfg_.policy == SelectionPolicy::kGreedy && greedy_order_.empty()) {
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j)
        greedy_order_.emplace_back(
            pm_->entry_prob(mac::checked_cast<int>(i), mac::checked_cast<int>(j)),
            entry_key(mac::checked_cast<int>(i), mac::checked_cast<int>(j), n));
    std::sort(greedy_order_.begin(), greedy_order_.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
  }

  for (int slot = 0; slot < cfg_.batch_size; ++slot) {
    ++sched_tick_;  // the deterministic clock backoff windows count in
    Pick pick;
    switch (cfg_.policy) {
      case SelectionPolicy::kRandom:
        pick = pick_random(e);
        break;
      case SelectionPolicy::kGreedy:
        pick = pick_greedy(e);
        break;
      case SelectionPolicy::kMetascritic:
      case SelectionPolicy::kOnlyExploit:
      case SelectionPolicy::kOnlyExplore:
      case SelectionPolicy::kIxpMapped:
        if (rng_.bernoulli(cfg_.epsilon))
          pick = pick_explore(sim_filled, e, batch_explored_rows);
        else
          pick = pick_exploit(sim_filled, e, target);
        break;
    }
    if (pick.i < 0) continue;
    MAC_COUNT("scheduler.picks_selected");
    if (pick.exploration) {
      MAC_COUNT("scheduler.picks_exploration");
      batch_explored_rows[mac::checked_cast<std::size_t>(pick.i)] = 1;
      batch_explored_rows[mac::checked_cast<std::size_t>(pick.j)] = 1;
      explored_entries_[entry_key(pick.i, pick.j, n)] = 1;
    }
    sim_filled[mac::checked_cast<std::size_t>(pick.i)]++;
    sim_filled[mac::checked_cast<std::size_t>(pick.j)]++;
    result.launched += execute(pick);
    ++result.selected;
  }
  return result;
}

MeasurementScheduler::Pick MeasurementScheduler::pick_exploit(
    const std::vector<std::size_t>& sim_filled, const EstimatedMatrix& e,
    int target) {
  const std::size_t n = ctx_->size();
  // Deficient row with the fewest filled entries but at least one entry with
  // P above the threshold; ties broken at random.
  int best_row = -1;
  std::size_t best_fill = std::numeric_limits<std::size_t>::max();
  int ties = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (given_up_[i]) continue;
    if (sim_filled[i] >= mac::checked_cast<std::size_t>(target)) continue;
    if (sim_filled[i] < best_fill) {
      best_fill = sim_filled[i];
      best_row = mac::checked_cast<int>(i);
      ties = 1;
    } else if (sim_filled[i] == best_fill && rng_.bernoulli(1.0 / ++ties)) {
      best_row = mac::checked_cast<int>(i);
    }
  }
  if (best_row < 0) return {};
  if (best_row != exploit_row_ || pm_->version() != exploit_version_) {
    exploit_row_ = best_row;
    exploit_version_ = pm_->version();
    std::fill(exploit_p_.begin(), exploit_p_.end(), -1.0);
  }
  // Unfilled entry in that row with the highest P, skipping entries waiting
  // out an infrastructure backoff.
  int best_j = -1;
  double best_p = kExploitMinProb;
  bool skipped_backoff = false;
  for (std::size_t j = 0; j < n; ++j) {
    if (mac::checked_cast<int>(j) == best_row) continue;
    if (e.filled(mac::checked_cast<std::size_t>(best_row), j)) continue;
    if (under_backoff(best_row, mac::checked_cast<int>(j))) {
      skipped_backoff = true;
      continue;
    }
    double& p = exploit_p_[j];
    if (p < 0.0) p = pm_->entry_prob(best_row, mac::checked_cast<int>(j));
    if (p > best_p) {
      best_p = p;
      best_j = mac::checked_cast<int>(j);
    }
  }
  if (skipped_backoff) MAC_COUNT("scheduler.backoff_waits");
  if (best_j < 0) {
    // No measurable entry above the floor.  If entries were only skipped
    // because of backoff the row is not hopeless -- it becomes exploitable
    // again once the infrastructure recovers -- so only give up when the
    // row is genuinely unmeasurable.
    if (!skipped_backoff)
      given_up_[mac::checked_cast<std::size_t>(best_row)] = true;
    return {};
  }
  return {best_row, best_j, false};
}

MeasurementScheduler::Pick MeasurementScheduler::pick_explore(
    const std::vector<std::size_t>& sim_filled, const EstimatedMatrix& e,
    const std::vector<std::uint8_t>& batch_rows) {
  const std::size_t n = ctx_->size();
  // Entry (i, j) minimizing filled(i)+filled(j) with a usable traceroute,
  // at most one exploration per row per batch and one per entry ever.
  // Rows are scanned in increasing fill order and pairs in increasing
  // fill-sum order (anti-diagonal sweep), so the first usable hit minimizes
  // the sum without materializing all O(n^2) candidates.
  std::vector<std::size_t> rows(n);
  for (std::size_t i = 0; i < n; ++i) rows[i] = i;
  std::sort(rows.begin(), rows.end(), [&](std::size_t a, std::size_t b) {
    return sim_filled[a] < sim_filled[b];
  });
  for (std::size_t s = 1; s < 2 * n - 1; ++s) {
    for (std::size_t a = (s >= n ? s - n + 1 : 0); 2 * a < s; ++a) {
      std::size_t b = s - a;
      if (b >= n) continue;
      std::size_t i = rows[a], j = rows[b];
      if (batch_rows[i] != 0 || batch_rows[j] != 0) continue;
      if (i > j) std::swap(i, j);
      if (i == j || e.filled(i, j)) continue;
      if (explored_entries_[entry_key(mac::checked_cast<int>(i),
                                      mac::checked_cast<int>(j), n)] != 0)
        continue;
      if (under_backoff(mac::checked_cast<int>(i), mac::checked_cast<int>(j))) continue;
      if (pm_->entry_prob(mac::checked_cast<int>(i), mac::checked_cast<int>(j)) > 0.0)
        return {mac::checked_cast<int>(i), mac::checked_cast<int>(j), true};
    }
  }
  return {};
}

MeasurementScheduler::Pick MeasurementScheduler::pick_random(
    const EstimatedMatrix& e) {
  const std::size_t n = ctx_->size();
  for (int tries = 0; tries < 64; ++tries) {
    int i = mac::checked_cast<int>(rng_.index(n));
    int j = mac::checked_cast<int>(rng_.index(n));
    if (i == j) continue;
    if (e.filled(mac::checked_cast<std::size_t>(i), mac::checked_cast<std::size_t>(j)))
      continue;
    if (under_backoff(i, j)) continue;
    auto key = entry_key(i, j, n);
    if (attempted_[key] != 0) continue;
    attempted_[key] = 1;
    return {std::min(i, j), std::max(i, j), false};
  }
  return {};
}

MeasurementScheduler::Pick MeasurementScheduler::pick_greedy(
    const EstimatedMatrix& e) {
  const std::size_t n = ctx_->size();
  while (greedy_cursor_ < greedy_order_.size()) {
    auto [p, key] = greedy_order_[greedy_cursor_++];
    int i = mac::checked_cast<int>(key / n);
    int j = mac::checked_cast<int>(key % n);
    if (e.filled(mac::checked_cast<std::size_t>(i), mac::checked_cast<std::size_t>(j)))
      continue;
    if (under_backoff(i, j)) continue;
    if (attempted_[key] != 0) continue;
    attempted_[key] = 1;
    return {i, j, false};
  }
  return {};
}

std::size_t MeasurementScheduler::execute(const Pick& pick) {
  MAC_REQUIRE(pick.i >= 0 && pick.j >= 0 && pick.i != pick.j &&
                  mac::checked_cast<std::size_t>(pick.i) < ctx_->size() &&
                  mac::checked_cast<std::size_t>(pick.j) < ctx_->size(),
              "i=", pick.i, " j=", pick.j, " n=", ctx_->size());
  StrategyChoice choice = pm_->choose(pick.i, pick.j);
  IssuedRecord rec;
  rec.i = pick.i;
  rec.j = pick.j;
  rec.estimated_prob = choice.probability;
  rec.exploration = pick.exploration;
  if (choice.vp_cat < 0) {
    // No usable strategy: nothing ran, no budget spent.
    history_.push_back(rec);
    return 0;
  }
  AsId as_i = ctx_->as_at(mac::checked_cast<std::size_t>(pick.i));
  AsId as_j = ctx_->as_at(mac::checked_cast<std::size_t>(pick.j));
  MeasurementOutcome out = ms_->run_targeted(as_i, as_j, ctx_->metro(),
                                             choice.vp_cat, choice.tgt_cat,
                                             choice.swapped);
  rec.ran = out.ran;
  rec.informative = out.informative;
  rec.found_existence = out.revealed_direct;
  rec.found_nonexistence = out.revealed_transit;
  rec.infra_failure = out.infra_failure;
  rec.attempts = out.attempts;
  rec.launched = out.launched;
  rec.faulted = out.faulted;

  // Budget: probes that actually left the platform.  A selection collision
  // (candidates existed but e.g. the drawn VP sits in the target AS) keeps
  // the legacy one-unit accounting -- it is a scheduling outcome, not an
  // unspent pick -- so a fault-free run spends exactly what it used to.
  std::size_t spent = mac::checked_cast<std::size_t>(out.launched);
  if (!out.ran && !out.infra_failure) spent = 1;
  rec.spent = mac::checked_cast<int>(spent);
  history_.push_back(rec);

  // The report owns the accounting; the registry counters mirror it.
  // With resilience on, an infrastructure failure requeues the entry and
  // never counts toward fail_streak / give-up; with it off (the ablation)
  // it is treated like an uninformative result.
  const bool requeue = out.infra_failure && ms_->resilience().enabled;
  const auto launched = mac::checked_cast<std::size_t>(out.launched);
  const auto faulted = mac::checked_cast<std::size_t>(out.faulted);
  const auto retries =
      mac::checked_cast<std::size_t>(std::max(0, out.attempts - 1));
  const std::size_t infra = out.infra_failure ? 1 : 0;
  const std::size_t requeued = requeue ? 1 : 0;
  degradation_.probes_launched += launched;
  degradation_.probes_faulted += faulted;
  degradation_.retries += retries;
  degradation_.infra_failures += infra;
  degradation_.requeues += requeued;
  MAC_COUNT_N("scheduler.probes_launched", launched);
  MAC_COUNT_N("scheduler.probes_faulted", faulted);
  MAC_COUNT_N("scheduler.retries", retries);
  MAC_COUNT_N("scheduler.infra_failures", infra);
  MAC_COUNT_N("scheduler.requeues", requeued);

  const std::uint64_t key = entry_key(pick.i, pick.j, ctx_->size());
  if (requeue) {
    // The infrastructure, not the strategy, failed: requeue the entry with
    // exponential backoff and leave fail_streak / P_m untouched.
    Backoff& b = requeued_[key];
    int doublings = std::min(b.fails, 7);
    ++b.fails;
    b.retry_at = sched_tick_ + std::min(kRequeueBackoffBase << doublings,
                                        kRequeueBackoffCap);
    return spent;
  }
  requeued_[key] = {};

  pm_->record(pick.i, pick.j, choice, out.informative);

  auto i = mac::checked_cast<std::size_t>(pick.i);
  if (out.informative) {
    fail_streak_[i] = 0;
  } else if (!pick.exploration) {
    if (++fail_streak_[i] >= cfg_.row_fail_limit) given_up_[i] = true;
  }
  return spent;
}

namespace {

// Dense per-entry flags travel as the ascending list of set keys.
void save_flags(util::checkpoint::Encoder& enc,
                const std::vector<std::uint8_t>& flags) {
  std::uint64_t set = 0;
  for (std::uint8_t f : flags) set += f != 0 ? 1 : 0;
  enc.u64(set);
  for (std::size_t k = 0; k < flags.size(); ++k)
    if (flags[k] != 0) enc.u64(k);
}

void load_flags(util::checkpoint::Decoder& dec,
                std::vector<std::uint8_t>& flags) {
  std::fill(flags.begin(), flags.end(), 0);
  const std::uint64_t n = dec.u64();
  for (std::uint64_t k = 0; k < n; ++k) {
    const std::uint64_t key = dec.u64();
    if (key >= flags.size())
      throw util::checkpoint::CheckpointError("scheduler entry key out of range");
    flags[mac::checked_cast<std::size_t>(key)] = 1;
  }
}

}  // namespace

void MeasurementScheduler::save(util::checkpoint::Encoder& enc) const {
  enc.str(rng_.save_state());

  enc.u64(history_.size());
  for (const IssuedRecord& r : history_) {
    enc.i32(r.i);
    enc.i32(r.j);
    enc.f64(r.estimated_prob);
    enc.b(r.ran);
    enc.b(r.informative);
    enc.b(r.found_existence);
    enc.b(r.found_nonexistence);
    enc.b(r.exploration);
    enc.b(r.infra_failure);
    enc.i32(r.attempts);
    enc.i32(r.launched);
    enc.i32(r.faulted);
    enc.i32(r.spent);
  }

  enc.u64(fail_streak_.size());
  for (int f : fail_streak_) enc.i32(f);
  enc.u64(given_up_.size());
  for (bool g : given_up_) enc.b(g);

  save_flags(enc, explored_entries_);
  enc.u64(greedy_order_.size());
  for (const auto& [p, key] : greedy_order_) {
    enc.f64(p);
    enc.u64(key);
  }
  enc.u64(greedy_cursor_);
  save_flags(enc, attempted_);
  enc.u64(sched_tick_);

  std::uint64_t live = 0;
  for (const Backoff& b : requeued_) live += b.fails > 0 ? 1 : 0;
  enc.u64(live);
  for (std::size_t key = 0; key < requeued_.size(); ++key) {
    const Backoff& b = requeued_[key];
    if (b.fails == 0) continue;
    enc.u64(key);
    enc.u64(b.retry_at);
    enc.i32(b.fails);
  }

  degradation_.save(enc);
}

void MeasurementScheduler::load(util::checkpoint::Decoder& dec) {
  rng_.restore_state(dec.str());

  history_.clear();
  const std::uint64_t nh = dec.u64();
  history_.reserve(nh);
  for (std::uint64_t k = 0; k < nh; ++k) {
    IssuedRecord r;
    r.i = dec.i32();
    r.j = dec.i32();
    r.estimated_prob = dec.f64();
    r.ran = dec.b();
    r.informative = dec.b();
    r.found_existence = dec.b();
    r.found_nonexistence = dec.b();
    r.exploration = dec.b();
    r.infra_failure = dec.b();
    r.attempts = dec.i32();
    r.launched = dec.i32();
    r.faulted = dec.i32();
    r.spent = dec.i32();
    history_.push_back(r);
  }

  fail_streak_.assign(dec.u64(), 0);
  for (int& f : fail_streak_) f = dec.i32();
  given_up_.assign(dec.u64(), false);
  for (std::size_t k = 0; k < given_up_.size(); ++k) given_up_[k] = dec.b();

  load_flags(dec, explored_entries_);
  greedy_order_.clear();
  const std::uint64_t ng = dec.u64();
  greedy_order_.reserve(ng);
  for (std::uint64_t k = 0; k < ng; ++k) {
    const double p = dec.f64();
    greedy_order_.emplace_back(p, dec.u64());
  }
  greedy_cursor_ = dec.u64();
  load_flags(dec, attempted_);
  sched_tick_ = dec.u64();

  std::fill(requeued_.begin(), requeued_.end(), Backoff{});
  const std::uint64_t nr = dec.u64();
  for (std::uint64_t k = 0; k < nr; ++k) {
    const std::uint64_t key = dec.u64();
    if (key >= requeued_.size())
      throw util::checkpoint::CheckpointError("scheduler entry key out of range");
    Backoff& b = requeued_[mac::checked_cast<std::size_t>(key)];
    b.retry_at = dec.u64();
    b.fails = dec.i32();
  }

  degradation_.load(dec);
  exploit_row_ = -1;
}

void DegradationReport::save(util::checkpoint::Encoder& enc) const {
  enc.i32(fill_target);
  enc.u64(rows);
  enc.u64(rows_at_target);
  enc.u64(rows_given_up);
  enc.f64(fill_fraction);
  enc.u64(probes_launched);
  enc.u64(probes_faulted);
  enc.u64(retries);
  enc.u64(infra_failures);
  enc.u64(requeues);
  enc.u64(quarantined_vps);
  enc.u64(dead_vps);
  enc.u64(phases_truncated);
}

void DegradationReport::load(util::checkpoint::Decoder& dec) {
  fill_target = dec.i32();
  rows = dec.u64();
  rows_at_target = dec.u64();
  rows_given_up = dec.u64();
  fill_fraction = dec.f64();
  probes_launched = dec.u64();
  probes_faulted = dec.u64();
  retries = dec.u64();
  infra_failures = dec.u64();
  requeues = dec.u64();
  quarantined_vps = dec.u64();
  dead_vps = dec.u64();
  phases_truncated = dec.u64();
}

}  // namespace metas::core
