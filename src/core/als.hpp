// Hybrid matrix completion with Alternating Least Squares (§3.1, Appx. D.4).
//
// The symmetric rating matrix E_m is augmented with one extra row/column per
// encoded AS feature; feature entries are observed ratings down-weighted by
// `feature_weight`.  Two factor matrices P and Q over the augmented index
// space are alternately refit by ridge-regularized least squares, and the
// completed rating for an AS pair is the symmetrized clamped inner product.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/estimated_matrix.hpp"
#include "core/features.hpp"
#include "linalg/matrix.hpp"
#include "util/cancel.hpp"

namespace metas::core {

/// Floor of a confidence-weighted observation's weight: keeps weak
/// (transferred, low-|rating|) entries from vanishing entirely.
inline constexpr double kAlsConfidenceFloor = 0.05;
/// Cap of the negative-class reweighting factor.
inline constexpr double kAlsBalanceCap = 4.0;

struct AlsConfig {
  int rank = 8;
  double lambda = 0.08;          // ridge regularizer
  double feature_weight = 0.5;   // weight of feature entries
  int iterations = 10;
  /// Weight observations by max(kAlsConfidenceFloor, |rating|)
  /// (transferred low-confidence entries count less).
  bool confidence_weighting = true;
  /// Reweight negative entries so both classes carry equal total weight
  /// (the "balanced" estimated connectivity matrix of Table 1), up to
  /// kAlsBalanceCap.
  bool balance_classes = true;
  std::uint64_t seed = 7;
};

/// One observed entry of the (AS x AS) block in matrix coordinates.
struct RatingEntry {
  std::size_t i = 0, j = 0;  // i != j, unordered pair given once
  double value = 0.0;
};

/// Extracts the upper-triangle rating entries of an EstimatedMatrix.
std::vector<RatingEntry> rating_entries(const EstimatedMatrix& e);

/// Feature-augmented symmetric ALS completer.
class AlsCompleter {
 public:
  /// `n` ASes, plus the encoded features. The feature matrix may be empty.
  AlsCompleter(std::size_t n, const FeatureMatrix& features, AlsConfig cfg);

  /// Fits the factors on the given observed ratings.
  void fit(const std::vector<RatingEntry>& observed);

  /// Completed rating for an AS pair, clamped to [-1, 1].
  double predict(std::size_t i, std::size_t j) const;

  /// Mean squared error over held-out entries.
  double mse(const std::vector<RatingEntry>& held_out) const;

  /// Full completed matrix (symmetric, diagonal zero).
  linalg::Matrix completed() const;

  const AlsConfig& config() const { return cfg_; }
  std::size_t num_ases() const { return n_; }

  /// Installs a cooperative stop control polled between ALS sweeps (may be
  /// null).  A stop finishes the sweep in flight; at least one full sweep
  /// always runs, so the factors are usable after any interrupted fit.
  void set_run_control(const util::RunControl* control) { control_ = control; }

  /// Iterations the last fit() actually ran (== cfg.iterations unless a
  /// stop control truncated the sweep loop).
  int iterations_run() const { return iterations_run_; }

 private:
  /// Refits one factor side; returns the summed |delta| of updated entries
  /// (the per-iteration convergence signal surfaced via telemetry).
  double solve_side(const linalg::Matrix& fixed, linalg::Matrix& solved);
  /// solve_side's body with the rank as a compile-time constant R, or read
  /// from the config when R == 0.
  template <std::size_t R>
  double solve_side_rank(const linalg::Matrix& fixed, linalg::Matrix& solved,
                         std::size_t& rows_solved,
                         std::size_t& rows_degenerate);

  std::size_t n_ = 0;       // AS count
  std::size_t total_ = 0;   // n + feature count
  AlsConfig cfg_;
  linalg::Matrix p_, q_;    // total_ x rank factors
  // The rating entries of the last fit() in CSR form: AS row i observes
  // cols_/vals_/wts_[start_[i] .. start_[i+1]), in `observed` order.  The
  // feature entries are read in place from *features_.
  std::vector<std::size_t> start_, cols_;
  std::vector<double> vals_, wts_;
  // Row-solve buffers, sized by fit(): the rank x rank factor, the
  // right-hand side and, for ranks read at run time, the weighted factor row
  // and the packed Gram triangle.
  std::vector<double> scratch_;
  const FeatureMatrix* features_;  // lint: allow(view-member) -- caller-owned matrix bound at fit() time; solvers are transient helpers
  const util::RunControl* control_ = nullptr;  // lint: allow(view-member) -- optional stop control owned by the pipeline's caller; may be null
  int iterations_run_ = 0;
  bool fitted_ = false;
};

}  // namespace metas::core
