#include "core/probability.hpp"

#include <algorithm>
#include <cmath>

#include "util/checkpoint.hpp"
#include "util/contracts.hpp"
#include "util/numeric.hpp"

namespace metas::core {

using traceroute::kNumStrategies;
using traceroute::kNumTargetTopo;
using traceroute::kNumVpTopo;
using traceroute::kTargetCategories;
using traceroute::kVpCategories;

namespace {

constexpr double kPriorBeta = 2.0;  // per-strategy failure pseudo-count
// At most this many pseudo-observations come from the cross-metro pool.
constexpr double kPriorStrength = 20.0;
static_assert(kPriorBeta > 0.0, "the Beta prior must be proper");

// Pool-size boost for a strategy with `pool` = (#VPs x #targets) candidates:
// 1 + 0.08 min(3, log10(pool + 1)).  The log saturates at pool = 999, so the
// factor is a table lookup below that and a constant from there on.
double pool_factor(std::int64_t pool) {
  static const std::array<double, 1000> kTable = [] {
    std::array<double, 1000> t{};
    for (std::size_t k = 0; k < t.size(); ++k)
      t[k] = 1.0 + 0.08 * std::min(3.0, std::log10(static_cast<double>(k) + 1.0));
    return t;
  }();
  MAC_REQUIRE(pool >= 0, "pool=", pool);
  if (pool < 1000) return kTable[mac::checked_cast<std::size_t>(pool)];
  return 1.0 + 0.08 * 3.0;
}

}  // namespace

void StrategyPriors::absorb(
    const std::array<double, kNumStrategies>& a,
    const std::array<double, kNumStrategies>& b) {
  for (int s = 0; s < kNumStrategies; ++s) {
    alpha[mac::checked_cast<std::size_t>(s)] += a[mac::checked_cast<std::size_t>(s)];
    beta[mac::checked_cast<std::size_t>(s)] += b[mac::checked_cast<std::size_t>(s)];
  }
  ++metros_observed;
}

ProbabilityMatrix::ProbabilityMatrix(const MetroContext& ctx,
                                     const MeasurementSystem& ms,
                                     const StrategyPriors* priors,
                                     const ProbabilityConfig& cfg)
    : ctx_(&ctx), cfg_(cfg), n_(ctx.size()) {
  MAC_REQUIRE(cfg.prior_alpha > 0.0, "alpha=", cfg.prior_alpha);
  MAC_REQUIRE(cfg.penalty_factor > 0.0 && cfg.penalty_factor <= 1.0,
              "penalty_factor=", cfg.penalty_factor);
  vp_counts_.resize(n_);
  tgt_counts_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    auto vc = ms.vp_category_counts(ctx.as_at(i), ctx.metro());
    auto tc = ms.target_category_counts(ctx.as_at(i), ctx.metro());
    std::copy(vc.begin(), vc.end(), vp_counts_[i].begin());
    std::copy(tc.begin(), tc.end(), tgt_counts_[i].begin());
  }
  allowed_.fill(true);

  for (int s = 0; s < kNumStrategies; ++s) {
    auto si = mac::checked_cast<std::size_t>(s);
    alpha_[si] = cfg.prior_alpha;
    beta_[si] = kPriorBeta;
    if (priors != nullptr && priors->metros_observed > 0) {
      // Shrink the pooled counts to at most kPriorStrength pseudo-
      // observations: hierarchical partial pooling (Appx. D.6).
      double tot = priors->alpha[si] + priors->beta[si];
      if (tot > 0.0) {
        double scale = std::min(1.0, kPriorStrength / tot);
        alpha_[si] += priors->alpha[si] * scale;
        beta_[si] += priors->beta[si] * scale;
      }
    }
  }
  rebuild_derived();
}

void ProbabilityMatrix::rebuild_derived() {
  ++version_;
  vp_nz_.assign(n_, {});
  tgt_nz_.assign(n_, {});
  for (std::size_t i = 0; i < n_; ++i) {
    for (int v = 0; v < kVpCategories; ++v)
      if (int c = vp_counts_[i][mac::checked_cast<std::size_t>(v)]; c != 0)
        vp_nz_[i].push_back({v, c});
    for (int t = 0; t < kTargetCategories; ++t)
      if (int c = tgt_counts_[i][mac::checked_cast<std::size_t>(t)]; c != 0)
        tgt_nz_[i].push_back({t, c});
  }
  for (int s = 0; s < kNumStrategies; ++s)
    sprob_[mac::checked_cast<std::size_t>(s)] = strategy_prob(s);
  penalised_.assign(n_ * n_, 0);
  for (const auto& [key, p] : penalties_)  // lint: allow(unordered-iter) -- sets per-pair flags; the result is independent of visit order
    penalised_[key / kNumStrategies] = 1;
}

double ProbabilityMatrix::strategy_prob(int strategy) const {
  MAC_REQUIRE(strategy >= 0 && strategy < kNumStrategies,
              "strategy=", strategy);
  auto si = mac::checked_cast<std::size_t>(strategy);
  double p = alpha_[si] / (alpha_[si] + beta_[si]);
  MAC_ENSURE(p >= 0.0 && p <= 1.0, "p=", p, " alpha=", alpha_[si],
             " beta=", beta_[si]);
  return p;
}

std::uint64_t ProbabilityMatrix::penalty_key(int i, int j, int s) const {
  // Ordered (i, j): the near/far orientation matters for the penalty.
  return (mac::checked_cast<std::uint64_t>(mac::checked_cast<std::uint32_t>(i)) * n_ +
          mac::checked_cast<std::uint32_t>(j)) *
             kNumStrategies +
         mac::checked_cast<std::uint64_t>(s);
}

double ProbabilityMatrix::dir_prob(int near, int far, int* best_vp,
                                   int* best_tgt) const {
  const auto& vs = vp_nz_[mac::checked_cast<std::size_t>(near)];
  const auto& ts = tgt_nz_[mac::checked_cast<std::size_t>(far)];
  const bool any_penalty =
      penalised_[mac::checked_cast<std::size_t>(near) * n_ +
                 mac::checked_cast<std::size_t>(far)] != 0;
  double best = 0.0;
  for (const CategoryCount& v : vs) {
    for (const CategoryCount& t : ts) {
      int s = traceroute::strategy_index(v.cat, t.cat);
      auto si = mac::checked_cast<std::size_t>(s);
      if (!allowed_[si]) continue;
      double p = sprob_[si];
      // Larger candidate pools make a strategy more likely to pan out.
      p *= pool_factor(std::int64_t{v.count} * t.count);
      if (any_penalty) {
        auto pen = penalties_.find(penalty_key(near, far, s));
        if (pen != penalties_.end()) p *= pen->second;
      }
      if (p > best) {
        best = p;
        if (best_vp != nullptr) *best_vp = v.cat;
        if (best_tgt != nullptr) *best_tgt = t.cat;
      }
    }
  }
  MAC_ENSURE(best >= 0.0, "best=", best);
  return std::min(best, 1.0);
}

StrategyChoice ProbabilityMatrix::choose(int i, int j) const {
  MAC_REQUIRE(i >= 0 && j >= 0 && mac::checked_cast<std::size_t>(i) < n_ &&
                  mac::checked_cast<std::size_t>(j) < n_ && i != j,
              "i=", i, " j=", j, " n=", n_);
  StrategyChoice c;
  int vp_a = -1, tgt_a = -1, vp_b = -1, tgt_b = -1;
  double pa = dir_prob(i, j, &vp_a, &tgt_a);
  double pb = dir_prob(j, i, &vp_b, &tgt_b);
  if (pa >= pb) {
    c.vp_cat = vp_a;
    c.tgt_cat = tgt_a;
    c.swapped = false;
    c.probability = pa;
  } else {
    c.vp_cat = vp_b;
    c.tgt_cat = tgt_b;
    c.swapped = true;
    c.probability = pb;
  }
  return c;
}

void ProbabilityMatrix::record(int i, int j, const StrategyChoice& choice,
                               bool informative) {
  MAC_REQUIRE(choice.probability >= 0.0 && choice.probability <= 1.0,
              "probability=", choice.probability);
  if (choice.vp_cat < 0 || choice.tgt_cat < 0) return;
  ++version_;
  int s = traceroute::strategy_index(choice.vp_cat, choice.tgt_cat);
  auto si = mac::checked_cast<std::size_t>(s);
  if (informative) {
    alpha_[si] += 1.0;
  } else {
    beta_[si] += 1.0;
    int near = choice.swapped ? j : i;
    int far = choice.swapped ? i : j;
    auto [it, inserted] = penalties_.emplace(penalty_key(near, far, s), 1.0);
    it->second *= cfg_.penalty_factor;
    penalised_[mac::checked_cast<std::size_t>(near) * n_ +
               mac::checked_cast<std::size_t>(far)] = 1;
  }
  sprob_[si] = strategy_prob(s);
}

void ProbabilityMatrix::export_priors(StrategyPriors& pool) const {
  std::array<double, kNumStrategies> da{}, db{};
  for (int s = 0; s < kNumStrategies; ++s) {
    auto si = mac::checked_cast<std::size_t>(s);
    da[si] = std::max(0.0, alpha_[si] - cfg_.prior_alpha);
    db[si] = std::max(0.0, beta_[si] - kPriorBeta);
  }
  pool.absorb(da, db);
}

void ProbabilityMatrix::restrict_to_ixp_mapped() {
  ++version_;
  using traceroute::Strategy;
  using traceroute::TargetTopo;
  using traceroute::VpTopo;
  using topology::GeoScope;
  for (int s = 0; s < kNumStrategies; ++s) {
    Strategy st = traceroute::strategy_from_index(s);
    bool ok = (st.vp_topo == VpTopo::kInAs || st.vp_topo == VpTopo::kInCone) &&
              (st.vp_geo == GeoScope::kSameMetro ||
               st.vp_geo == GeoScope::kSameCountry) &&
              st.tgt_topo != TargetTopo::kInCone;
    allowed_[mac::checked_cast<std::size_t>(s)] = ok;
  }
}

void StrategyPriors::save(util::checkpoint::Encoder& enc) const {
  for (double a : alpha) enc.f64(a);
  for (double b : beta) enc.f64(b);
  enc.i32(metros_observed);
}

void StrategyPriors::load(util::checkpoint::Decoder& dec) {
  for (double& a : alpha) a = dec.f64();
  for (double& b : beta) b = dec.f64();
  metros_observed = dec.i32();
}

void ProbabilityMatrix::save(util::checkpoint::Encoder& enc) const {
  enc.u64(n_);
  enc.u64(vp_counts_.size());
  for (const auto& row : vp_counts_)
    for (int c : row) enc.i32(c);
  enc.u64(tgt_counts_.size());
  for (const auto& row : tgt_counts_)
    for (int c : row) enc.i32(c);
  for (double a : alpha_) enc.f64(a);
  for (double b : beta_) enc.f64(b);
  for (bool a : allowed_) enc.b(a);

  std::vector<std::uint64_t> keys;
  keys.reserve(penalties_.size());
  for (const auto& [key, p] : penalties_)  // lint: allow(unordered-iter) -- key harvest only; sorted below before anything is emitted
    keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  enc.u64(keys.size());
  for (std::uint64_t key : keys) {
    enc.u64(key);
    enc.f64(penalties_.at(key));
  }
}

void ProbabilityMatrix::load(util::checkpoint::Decoder& dec) {
  const std::uint64_t n = dec.u64();
  MAC_REQUIRE(n == n_, "checkpoint size ", n, " != matrix size ", n_);
  // The derived indexes are rebuilt from these counts, so they are checked
  // like the framing: one row per AS, no negative availability.
  auto read_counts = [&dec, this](auto& rows) {
    if (dec.u64() != n_)
      throw util::checkpoint::CheckpointError("probability rows != matrix size");
    rows.assign(n_, {});
    for (auto& row : rows) {
      for (int& c : row) {
        c = dec.i32();
        if (c < 0)
          throw util::checkpoint::CheckpointError("negative availability count");
      }
    }
  };
  read_counts(vp_counts_);
  read_counts(tgt_counts_);
  for (double& a : alpha_) a = dec.f64();
  for (double& b : beta_) b = dec.f64();
  for (bool& a : allowed_) a = dec.b();

  penalties_.clear();
  const std::uint64_t np = dec.u64();
  for (std::uint64_t k = 0; k < np; ++k) {
    const std::uint64_t key = dec.u64();
    if (key / kNumStrategies >= n_ * n_)
      throw util::checkpoint::CheckpointError("penalty key out of range");
    penalties_[key] = dec.f64();
  }
  rebuild_derived();
}

}  // namespace metas::core
