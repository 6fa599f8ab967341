// Test oracle: full spectrum of a small dense symmetric matrix by cyclic
// Jacobi rotation. Slow but obviously correct; the production f14 solver
// (haralick/eigen.hpp, lambda2 only) is property-tested against it.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <vector>

namespace h4d::oracle {

/// Eigenvalues of a dense symmetric n x n matrix stored row-major in `a`
/// (destroyed). Returned sorted in descending order. Converges
/// quadratically; throws std::invalid_argument on size mismatch.
inline std::vector<double> jacobi_eigenvalues(std::vector<double> a, int n) {
  constexpr int kMaxSweeps = 64;
  constexpr double kTol = 1e-12;
  if (n < 0 || a.size() != static_cast<std::size_t>(n) * static_cast<std::size_t>(n)) {
    throw std::invalid_argument("jacobi_eigenvalues: size mismatch");
  }
  auto at = [&a, n](int i, int j) -> double& {
    return a[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) + j];
  };

  if (n == 0) return {};
  if (n == 1) return {a[0]};

  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    // Off-diagonal Frobenius norm (upper triangle).
    double off = 0.0;
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j) off += at(i, j) * at(i, j);
    if (off <= kTol * kTol) break;

    for (int p = 0; p < n - 1; ++p) {
      for (int q = p + 1; q < n; ++q) {
        const double apq = at(p, q);
        if (std::abs(apq) < kTol * 1e-3) continue;
        const double app = at(p, p);
        const double aqq = at(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        for (int k = 0; k < n; ++k) {
          const double akp = at(k, p);
          const double akq = at(k, q);
          at(k, p) = c * akp - s * akq;
          at(k, q) = s * akp + c * akq;
        }
        for (int k = 0; k < n; ++k) {
          const double apk = at(p, k);
          const double aqk = at(q, k);
          at(p, k) = c * apk - s * aqk;
          at(q, k) = s * apk + c * aqk;
        }
      }
    }
  }

  std::vector<double> eig(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) eig[static_cast<std::size_t>(i)] = at(i, i);
  std::sort(eig.begin(), eig.end(), std::greater<>());
  return eig;
}

}  // namespace h4d::oracle
