// Eigenvalues of small dense symmetric matrices.
//
// Needed by Haralick feature f14 (maximal correlation coefficient), which is
// the square root of the second-largest eigenvalue of Q(i,j) =
// sum_k p(i,k) p(j,k) / (px(i) py(k)). Q is similar to the symmetric PSD
// matrix A A^T with A = Dx^{-1/2} P Dy^{-1/2}, so a symmetric solver suffices.
// The cyclic-Jacobi full-spectrum oracle the solver is tested against lives
// in tests/oracle/jacobi_eigen.hpp.
#pragma once

#include <vector>

namespace h4d::haralick {

/// Second-largest eigenvalue only — the quantity f14 actually needs.
/// Householder tridiagonalization followed by Sturm-count bisection on the
/// tridiagonal form. `a` (row-major, destroyed) and the `d`/`e` scratch
/// vectors are caller-owned so hot loops can reuse them. Accurate to ~1e-13
/// absolute. Returns 0.0 for n < 2; throws std::invalid_argument on size
/// mismatch.
double symmetric_lambda2(std::vector<double>& a, int n, std::vector<double>& d,
                         std::vector<double>& e);

/// Convenience overload that owns its scratch.
double symmetric_lambda2(std::vector<double> a, int n);

}  // namespace h4d::haralick
