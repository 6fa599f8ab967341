#include "haralick/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "haralick/simd.hpp"

namespace h4d::haralick {

namespace {

// Householder reduction of a symmetric matrix (row-major in `a`) to
// tridiagonal form: diagonal into d, sub-diagonal into e[1..n-1]. Eigenvalues
// only — the orthogonal transform is not accumulated. Classic tred2 with the
// eigenvector branches stripped (Numerical Recipes / EISPACK lineage).
void householder_tridiag(std::vector<double>& a, int n, std::vector<double>& d,
                         std::vector<double>& e) {
  auto at = [&a, n](int i, int j) -> double& {
    return a[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) + j];
  };
  for (int i = n - 1; i >= 1; --i) {
    const int l = i - 1;
    double h = 0.0;
    if (l > 0) {
      double scale = 0.0;
      for (int k = 0; k <= l; ++k) scale += std::abs(at(i, k));
      if (scale == 0.0) {
        e[static_cast<std::size_t>(i)] = at(i, l);
      } else {
        for (int k = 0; k <= l; ++k) {
          at(i, k) /= scale;
          h += at(i, k) * at(i, k);
        }
        double f = at(i, l);
        double g = (f >= 0.0) ? -std::sqrt(h) : std::sqrt(h);
        e[static_cast<std::size_t>(i)] = scale * g;
        h -= f * g;
        at(i, l) = f - g;
        f = 0.0;
        for (int j = 0; j <= l; ++j) {
          const double* row_j = &a[static_cast<std::size_t>(j) * static_cast<std::size_t>(n)];
          const double* row_i = &a[static_cast<std::size_t>(i) * static_cast<std::size_t>(n)];
          g = 0.0;
          H4D_PRAGMA_SIMD_REDUCE(g)
          for (int k = 0; k <= j; ++k) g += row_j[k] * row_i[k];
          for (int k = j + 1; k <= l; ++k) g += at(k, j) * row_i[k];
          e[static_cast<std::size_t>(j)] = g / h;
          f += e[static_cast<std::size_t>(j)] * at(i, j);
        }
        const double hh = f / (h + h);
        for (int j = 0; j <= l; ++j) {
          f = at(i, j);
          g = e[static_cast<std::size_t>(j)] - hh * f;
          e[static_cast<std::size_t>(j)] = g;
          double* row_j = &a[static_cast<std::size_t>(j) * static_cast<std::size_t>(n)];
          const double* row_i = &a[static_cast<std::size_t>(i) * static_cast<std::size_t>(n)];
          H4D_PRAGMA_SIMD
          for (int k = 0; k <= j; ++k) {
            row_j[k] -= f * e[static_cast<std::size_t>(k)] + g * row_i[k];
          }
        }
      }
    } else {
      e[static_cast<std::size_t>(i)] = at(i, l);
    }
    d[static_cast<std::size_t>(i)] = h;
  }
  e[0] = 0.0;
  for (int i = 0; i < n; ++i) d[static_cast<std::size_t>(i)] = at(i, i);
}

// Eigenvalues of the tridiagonal (d, e[1..n-1]) strictly below sigma, via the
// LDL^T Sturm count: q_i = (d_i - sigma) - e_i^2 / q_{i-1}; each negative
// pivot is one eigenvalue below the shift. e2 holds e squared.
int sturm_count_below(const std::vector<double>& d, const std::vector<double>& e2, int n,
                      double sigma) {
  int below = 0;
  double q = d[0] - sigma;
  if (q < 0.0) ++below;
  for (int i = 1; i < n; ++i) {
    double denom = q;
    if (denom == 0.0) denom = 1e-300;  // zero pivot: nudge, standard bisection guard
    q = (d[static_cast<std::size_t>(i)] - sigma) - e2[static_cast<std::size_t>(i)] / denom;
    if (q < 0.0) ++below;
  }
  return below;
}

}  // namespace

double symmetric_lambda2(std::vector<double>& a, int n, std::vector<double>& d,
                         std::vector<double>& e) {
  if (n < 0 || a.size() != static_cast<std::size_t>(n) * static_cast<std::size_t>(n)) {
    throw std::invalid_argument("symmetric_lambda2: size mismatch");
  }
  if (n < 2) return 0.0;
  d.resize(static_cast<std::size_t>(n));
  e.resize(static_cast<std::size_t>(n));
  householder_tridiag(a, n, d, e);
  // Gershgorin interval for the whole spectrum.
  double lo = d[0];
  double hi = d[0];
  for (int i = 0; i < n; ++i) {
    const double ei = i >= 1 ? std::abs(e[static_cast<std::size_t>(i)]) : 0.0;
    const double ej = i + 1 < n ? std::abs(e[static_cast<std::size_t>(i + 1)]) : 0.0;
    lo = std::min(lo, d[static_cast<std::size_t>(i)] - ei - ej);
    hi = std::max(hi, d[static_cast<std::size_t>(i)] + ei + ej);
  }
  // Square the sub-diagonal in place for the Sturm recurrence.
  e[0] = 0.0;
  for (int i = 1; i < n; ++i) {
    e[static_cast<std::size_t>(i)] *= e[static_cast<std::size_t>(i)];
  }
  // Bisect for the largest sigma with at least two eigenvalues >= sigma,
  // i.e. fewer than n-1 below it.
  for (int it = 0; it < 64; ++it) {
    if (hi - lo <= 1e-15 * std::max(1.0, std::abs(hi) + std::abs(lo))) break;
    const double mid = 0.5 * (lo + hi);
    if (sturm_count_below(d, e, n, mid) <= n - 2) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double symmetric_lambda2(std::vector<double> a, int n) {
  std::vector<double> d;
  std::vector<double> e;
  return symmetric_lambda2(a, n, d, e);
}

}  // namespace h4d::haralick
