// Direct solvers used inside ALS: Cholesky factorization of symmetric
// positive-definite systems and the ridge-regularized normal-equation solve
// argmin_x ||A x - b||^2 + lambda ||x||^2.
#pragma once

#include <cstddef>
#include <optional>

#include "linalg/matrix.hpp"

namespace metas::linalg {

/// In-place Cholesky factorization of the row-major n x n SPD matrix `a`,
/// reading only its lower triangle.  On success the lower triangle (diagonal
/// included) holds L with A = L L^T and the strict upper triangle is left as
/// it was.  Returns false, with `a` partly overwritten, if A is not
/// (numerically) positive definite.  Allocates nothing.
bool cholesky_factor_inplace(double* a, std::size_t n);

/// Solves L L^T x = b in place (`b` becomes x), where `l` is a factor written
/// by cholesky_factor_inplace.  Allocates nothing.
void cholesky_substitute_inplace(const double* l, double* b, std::size_t n);

/// Solves A x = b for SPD A via Cholesky. Returns std::nullopt if the
/// factorization fails. Throws std::invalid_argument on shape mismatch.
std::optional<Vector> solve_spd(const Matrix& a, const Vector& b);

/// Solves the already-formed normal system (G + lambda I) x = rhs where G is
/// SPD-ish (e.g. a Gram matrix accumulated by ALS).
std::optional<Vector> solve_regularized(Matrix g, const Vector& rhs,
                                        double lambda);

}  // namespace metas::linalg
