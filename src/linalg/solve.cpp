#include "linalg/solve.hpp"

#include <cmath>

#include "util/contracts.hpp"

namespace metas::linalg {

// Both routines compute every entry with the textbook sequence of
// operations: l(i,j) = (a(i,j) - l(i,0) l(j,0) - ... - l(i,j-1) l(j,j-1))
// / l(j,j), subtracting in increasing k, and likewise for the triangular
// solves.  They visit the entries column by column, not row by row, so
// consecutive entries do not depend on each other and the CPU can overlap
// their division and subtraction chains.  Each entry's own sequence is
// unchanged, so the results are the same bit for bit, and the first
// failing pivot is the same one.
bool cholesky_factor_inplace(double* a, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    double* lj = a + j * n;
    double s = lj[j];
    for (std::size_t k = 0; k < j; ++k) s -= lj[k] * lj[k];
    if (s <= 0.0 || !std::isfinite(s)) return false;
    lj[j] = std::sqrt(s);
    for (std::size_t i = j + 1; i < n; ++i) {
      double* li = a + i * n;
      double t = li[j];
      for (std::size_t k = 0; k < j; ++k) t -= li[k] * lj[k];
      li[j] = t / lj[j];
    }
  }
#if METASCRITIC_CONTRACTS
  for (std::size_t i = 0; i < n; ++i)
    MAC_ENSURE(a[i * n + i] > 0.0, "non-positive Cholesky pivot at i=", i);
#endif
  return true;
}

void cholesky_substitute_inplace(const double* l, double* b, std::size_t n) {
  // Forward substitution: L y = b.  b[i] receives its subtractions in
  // increasing k, as in the row-wise form.
  for (std::size_t k = 0; k < n; ++k) {
    b[k] /= l[k * n + k];
    for (std::size_t i = k + 1; i < n; ++i) b[i] -= l[i * n + k] * b[k];
  }
  // Back substitution: L^T x = y.
  for (std::size_t ii = n; ii-- > 0;) {
    double s = b[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l[k * n + ii] * b[k];
    b[ii] = s / l[ii * n + ii];
    MAC_ENSURE(std::isfinite(b[ii]), "non-finite solution at i=", ii);
  }
}

std::optional<Vector> solve_spd(const Matrix& a, const Vector& b) {
  if (a.rows() != b.size())
    throw std::invalid_argument("solve_spd: shape mismatch");
  if (!a.is_square()) throw std::invalid_argument("cholesky: non-square matrix");
  Matrix l = a;
  if (!cholesky_factor_inplace(l.data().data(), a.rows())) return std::nullopt;
  Vector x = b;
  cholesky_substitute_inplace(l.data().data(), x.data(), a.rows());
  return x;
}

std::optional<Vector> solve_regularized(Matrix g, const Vector& rhs,
                                        double lambda) {
  if (!g.is_square() || g.rows() != rhs.size())
    throw std::invalid_argument("solve_regularized: shape mismatch");
  MAC_REQUIRE(lambda >= 0.0, "lambda=", lambda);
  for (std::size_t i = 0; i < g.rows(); ++i) g(i, i) += lambda;
  return solve_spd(g, rhs);
}

}  // namespace metas::linalg
