// Eigenvalues of small dense symmetric matrices.
//
// Needed by Haralick feature f14 (maximal correlation coefficient), which is
// the square root of the second-largest eigenvalue of Q(i,j) =
// sum_k p(i,k) p(j,k) / (px(i) py(k)). Q is similar to the symmetric PSD
// matrix A A^T with A = Dx^{-1/2} P Dy^{-1/2}, so a symmetric solver suffices.
// The cyclic-Jacobi full-spectrum oracle both solvers are tested against
// lives in tests/oracle/jacobi_eigen.hpp.
#pragma once

#include <vector>

namespace h4d::haralick {

/// Full spectrum of a dense symmetric n x n matrix stored row-major in `a`
/// (destroyed), sorted in descending order. Householder reduction to
/// tridiagonal form followed by implicit-shift QL iteration (eigenvalues
/// only, no eigenvector accumulation). Throws std::invalid_argument on size
/// mismatch.
///
/// Convergence: the QL iteration is capped at 50 sweeps per eigenvalue —
/// real symmetric input needs 2-3, so the cap only trips on pathological
/// (NaN/Inf-contaminated) matrices. This overload assumes convergence and
/// returns whatever the iteration reached; use the scratch-reusing overload
/// when the caller must know.
std::vector<double> symmetric_eigenvalues_fast(std::vector<double> a, int n);

/// Scratch-reusing variant of symmetric_eigenvalues_fast for hot loops: `d`
/// and `e` are resized to n and d holds the descending eigenvalues on
/// return. Returns true when every eigenvalue converged within the QL
/// iteration cap; false means d holds a best-effort (unconverged) spectrum.
bool symmetric_eigenvalues_fast(std::vector<double>& a, int n, std::vector<double>& d,
                                std::vector<double>& e);

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
