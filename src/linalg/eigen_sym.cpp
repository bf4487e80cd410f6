#include "linalg/eigen_sym.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/contracts.hpp"

namespace metas::linalg {

namespace {

// Max |a_ij - a_ji| relative to the Frobenius norm; the Jacobi sweep is only
// correct on (numerically) symmetric input.
bool nearly_symmetric(const Matrix& a) {
  const double scale = std::max(a.frobenius_norm(), 1e-300);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = i + 1; j < a.cols(); ++j)
      if (std::fabs(a(i, j) - a(j, i)) > 1e-9 * scale) return false;
  return true;
}

}  // namespace

EigenSym eigen_symmetric(Matrix a, int max_sweeps, double tol) {
  if (!a.is_square())
    throw std::invalid_argument("eigen_symmetric: non-square matrix");
  MAC_REQUIRE(nearly_symmetric(a), "n=", a.rows());
  MAC_REQUIRE(max_sweeps > 0 && tol > 0.0, "max_sweeps=", max_sweeps,
              " tol=", tol);
  const std::size_t n = a.rows();
  Matrix v = Matrix::identity(n);

  auto off_diag_norm = [&]() {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) s += a(i, j) * a(i, j);
    return std::sqrt(2.0 * s);
  };

  const double scale = std::max(a.frobenius_norm(), 1e-300);
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    if (off_diag_norm() <= tol * scale) break;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        double apq = a(p, q);
        if (std::fabs(apq) <= tol * scale / static_cast<double>(n)) continue;
        double app = a(p, p), aqq = a(q, q);
        double theta = 0.5 * (aqq - app) / apq;
        // Stable rotation parameter t = sign(theta)/(|theta|+sqrt(theta^2+1)).
        double t = (theta >= 0.0 ? 1.0 : -1.0) /
                   (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        double c = 1.0 / std::sqrt(t * t + 1.0);
        double s = t * c;

        // Apply the Jacobi rotation J(p,q,theta) on both sides of A.
        for (std::size_t k = 0; k < n; ++k) {
          double akp = a(k, p), akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          double apk = a(p, k), aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        // Accumulate eigenvectors.
        for (std::size_t k = 0; k < n; ++k) {
          double vkp = v(k, p), vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  EigenSym out;
  out.values.resize(n);
  for (std::size_t i = 0; i < n; ++i) out.values[i] = a(i, i);

  // Sort eigenpairs by decreasing eigenvalue.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return out.values[x] > out.values[y];
  });
  Vector sorted_vals(n);
  Matrix sorted_vecs(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    sorted_vals[i] = out.values[order[i]];
    for (std::size_t k = 0; k < n; ++k) sorted_vecs(k, i) = v(k, order[i]);
  }
  out.values = std::move(sorted_vals);
  out.vectors = std::move(sorted_vecs);
#if METASCRITIC_CONTRACTS
  for (std::size_t i = 0; i + 1 < n; ++i)
    MAC_ENSURE(out.values[i] >= out.values[i + 1],
               "eigenvalues not sorted at i=", i);
#endif
  return out;
}

Vector singular_values(const Matrix& a) {
  if (a.empty()) return {};
  // Work with the smaller Gram matrix.
  Matrix g = a.rows() >= a.cols() ? a.gram() : a.transpose().gram();
  EigenSym es = eigen_symmetric(std::move(g));
  Vector sv;
  sv.reserve(es.values.size());
  for (double w : es.values) sv.push_back(w > 0.0 ? std::sqrt(w) : 0.0);
  return sv;
}

std::size_t effective_rank_threshold(const Matrix& a, double rel_tol) {
  Vector sv = singular_values(a);
  if (sv.empty() || sv.front() <= 0.0) return 0;
  MAC_REQUIRE(rel_tol >= 0.0, "rel_tol=", rel_tol);
  std::size_t r = 0;
  for (double s : sv)
    if (s > rel_tol * sv.front()) ++r;
  return r;
}

double effective_rank_entropy(const Matrix& a) {
  Vector sv = singular_values(a);
  double total = 0.0;
  for (double s : sv) total += s;
  if (total <= 0.0) return 0.0;
  double h = 0.0;
  for (double s : sv) {
    if (s <= 0.0) continue;
    double p = s / total;
    h -= p * std::log(p);
  }
  return std::exp(h);
}

double relative_tail_energy(const Vector& singular, std::size_t k) {
  double total = 0.0, tail = 0.0;
  for (std::size_t i = 0; i < singular.size(); ++i) {
    double e = singular[i] * singular[i];
    total += e;
    if (i >= k) tail += e;
  }
  if (total <= 0.0) return 0.0;
  return std::sqrt(tail / total);
}

}  // namespace metas::linalg
