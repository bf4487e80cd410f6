// Tests for the Cholesky kernels and the SPD / ridge-regularized solves.
#include "linalg/solve.hpp"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace metas::linalg {
namespace {

Matrix random_spd(std::size_t n, util::Rng& rng, double ridge = 0.5) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
  Matrix spd = a.transpose() * a;
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += ridge;
  return spd;
}

TEST(Cholesky, FactorizesKnownMatrix) {
  Matrix a(2, 2);
  a(0, 0) = 4; a(0, 1) = 2; a(1, 0) = 2; a(1, 1) = 3;
  Matrix l = a;
  ASSERT_TRUE(cholesky_factor_inplace(l.data().data(), 2));
  l(0, 1) = 0.0;  // L is the lower triangle
  Matrix rec = l * l.transpose();
  EXPECT_LT(rec.max_abs_diff(a), 1e-12);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 2; a(1, 1) = 1;  // eigenvalues 3, -1
  EXPECT_FALSE(cholesky_factor_inplace(a.data().data(), 2));
}

TEST(Cholesky, RejectsNonSquare) {
  EXPECT_THROW(solve_spd(Matrix(2, 3), Vector(2, 1.0)), std::invalid_argument);
}

TEST(SolveSpd, RecoversKnownSolution) {
  util::Rng rng(17);
  for (std::size_t n : {1u, 3u, 8u, 20u}) {
    Matrix a = random_spd(n, rng);
    Vector x_true(n);
    for (double& v : x_true) v = rng.normal();
    Vector b = a * x_true;
    auto x = solve_spd(a, b);
    ASSERT_TRUE(x.has_value());
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR((*x)[i], x_true[i], 1e-8);
  }
}

TEST(SolveSpd, ShapeMismatchThrows) {
  EXPECT_THROW(solve_spd(Matrix(2, 2), Vector{1.0}), std::invalid_argument);
}

TEST(RidgeSolve, ShrinksTowardZero) {
  util::Rng rng(23);
  Matrix a(30, 4);
  Vector x_true{1.0, -2.0, 0.5, 3.0};
  for (std::size_t i = 0; i < 30; ++i)
    for (std::size_t j = 0; j < 4; ++j) a(i, j) = rng.normal();
  Vector b = a * x_true;
  for (double& v : b) v += rng.normal(0.0, 0.01);
  // Normal equations of argmin ||A x - b||^2 + lambda ||x||^2.
  const Vector rhs = a.transpose() * b;
  auto x_small = solve_regularized(a.gram(), rhs, 1e-6);
  auto x_big = solve_regularized(a.gram(), rhs, 1e4);
  ASSERT_TRUE(x_small && x_big);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_NEAR((*x_small)[j], x_true[j], 0.05);
    EXPECT_LT(std::abs((*x_big)[j]), std::abs(x_true[j]));
  }
}

TEST(SolveRegularized, HandlesSingularGramWithRidge) {
  // Rank-deficient Gram matrix: solvable once the ridge is added.
  Matrix g(2, 2);
  g(0, 0) = 1; g(0, 1) = 1; g(1, 0) = 1; g(1, 1) = 1;
  auto x = solve_regularized(g, {1.0, 1.0}, 0.1);
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], (*x)[1], 1e-12);  // symmetric problem, symmetric answer
}

TEST(SolveRegularized, ShapeMismatchThrows) {
  EXPECT_THROW(solve_regularized(Matrix(2, 2), Vector{1.0}, 0.1),
               std::invalid_argument);
}

// Property: for any SPD system, the Cholesky solution satisfies A x = b.
class SolveResidualTest : public ::testing::TestWithParam<int> {};

TEST_P(SolveResidualTest, ResidualIsTiny) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::size_t n = 5 + static_cast<std::size_t>(GetParam()) * 3;
  Matrix a = random_spd(n, rng);
  Vector b(n);
  for (double& v : b) v = rng.normal();
  auto x = solve_spd(a, b);
  ASSERT_TRUE(x.has_value());
  Vector r = a * *x;
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(r[i], b[i], 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SolveResidualTest, ::testing::Range(1, 8));

// Reference for the in-place routines: the Matrix-based factorization and
// substitution written before they existed.  The in-place pair must
// reproduce them bit for bit.
std::optional<Matrix> reference_cholesky(const Matrix& a) {
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      if (i == j) {
        if (s <= 0.0 || !std::isfinite(s)) return std::nullopt;
        l(i, i) = std::sqrt(s);
      } else {
        l(i, j) = s / l(j, j);
      }
    }
  }
  return l;
}

std::optional<Vector> reference_solve_spd(const Matrix& a, const Vector& b) {
  auto lopt = reference_cholesky(a);
  if (!lopt) return std::nullopt;
  const Matrix& l = *lopt;
  const std::size_t n = a.rows();
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * y[k];
    y[i] = s / l(i, i);
  }
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x[k];
    x[ii] = s / l(ii, ii);
  }
  return x;
}

TEST(CholeskyInplace, BitIdenticalToReference) {
  util::Rng rng(29);
  for (std::size_t n = 1; n <= 20; ++n) {
    const Matrix a = random_spd(n, rng, 0.05);
    Vector b(n);
    for (double& v : b) v = rng.normal();
    const auto ref_l = reference_cholesky(a);
    const auto ref_x = reference_solve_spd(a, b);
    ASSERT_TRUE(ref_l && ref_x) << "n=" << n;

    Matrix work = a;
    ASSERT_TRUE(cholesky_factor_inplace(work.data().data(), n)) << "n=" << n;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        EXPECT_EQ(work(i, j), j <= i ? (*ref_l)(i, j) : a(i, j))
            << "n=" << n << " (" << i << "," << j << ")";
    Vector x = b;
    cholesky_substitute_inplace(work.data().data(), x.data(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(x[i], (*ref_x)[i]) << "n=" << n;

    // The Matrix wrappers are the same routines.
    EXPECT_EQ(solve_spd(a, b), ref_x) << "n=" << n;
    Matrix ridged = a;
    for (std::size_t i = 0; i < n; ++i) ridged(i, i) += 0.3;
    EXPECT_EQ(solve_regularized(a, b, 0.3), reference_solve_spd(ridged, b))
        << "n=" << n;
  }
}

TEST(CholeskyInplace, RejectsIndefiniteAndNaN) {
  Matrix indefinite(2, 2);
  indefinite(0, 0) = 1; indefinite(0, 1) = 2;
  indefinite(1, 0) = 2; indefinite(1, 1) = 1;
  Matrix nan_diag = Matrix::identity(3);
  nan_diag(2, 2) = std::numeric_limits<double>::quiet_NaN();
  Matrix nan_offdiag = Matrix::identity(3);
  nan_offdiag(2, 0) = nan_offdiag(0, 2) =
      std::numeric_limits<double>::quiet_NaN();
  for (const Matrix* m : {&indefinite, &nan_diag, &nan_offdiag}) {
    EXPECT_FALSE(reference_cholesky(*m).has_value());
    Matrix work = *m;
    EXPECT_FALSE(cholesky_factor_inplace(work.data().data(), m->rows()));
    EXPECT_FALSE(solve_spd(*m, Vector(m->rows(), 1.0)).has_value());
  }
}

}  // namespace
}  // namespace metas::linalg
