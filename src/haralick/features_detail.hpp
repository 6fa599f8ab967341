// Internal feature-computation machinery: the gathered sums of the feature
// sweep (kernel.cpp) and their finalization into features (features.cpp).
// The reference passes in tests/oracle reuse it. Not part of the public
// haralick API; include features.hpp instead.
#pragma once

#include <cmath>
#include <span>
#include <vector>

#include "haralick/features.hpp"
#include "haralick/glcm_sparse.hpp"

namespace h4d::haralick::detail {

inline constexpr double kEps = 1e-12;

inline double xlogx(double p) { return p > 0.0 ? p * std::log(p) : 0.0; }

/// Which intermediate quantities a feature selection requires.
struct Needs {
  bool cell_asm = false;      // sum p^2
  bool cell_ixj = false;      // sum i*j*p
  bool cell_idm = false;      // sum p / (1 + (i-j)^2)
  bool cell_entropy = false;  // -sum p log p
  bool marg_sum = false;      // p_{x+y}
  bool marg_diff = false;     // p_{x-y}
  int cell_terms = 0;         // per-cell multiply-accumulate terms (cost model)
};

Needs analyse(FeatureSet set);

/// Everything gathered from the cell pass, finalized into features below.
struct Gathered {
  int ng = 0;
  std::vector<double> px;     // marginal; == py by symmetry
  std::vector<double> psum;   // p_{x+y}, indices 0 .. 2Ng-2
  std::vector<double> pdiff;  // p_{|x-y|}, indices 0 .. Ng-1
  double asm_sum = 0.0;
  double ixj = 0.0;
  double idm = 0.0;
  double entropy = 0.0;  // HXY

  /// Zero every accumulator for `num_levels`, reusing buffer capacity.
  void reset(int num_levels);
};

/// f14 from A = Dx^{-1/2} P Dy^{-1/2} restricted to the m levels with
/// px > kEps (row-major m x m): sqrt of the second-largest eigenvalue of
/// A A^T. Credits `wc` with the m^3/2 Gram-matrix ops.
double maximal_correlation_of(const std::vector<double>& a, int m, WorkCounters* wc);

/// Turn the gathered sums into the selected features. `entries` (the
/// matrix's upper-triangle entry list) and `total` are only consulted for
/// the maximal correlation coefficient (f14).
FeatureVector finalize(const Gathered& g, FeatureSet set, std::span<const SparseEntry> entries,
                       std::int64_t total, WorkCounters* wc);

}  // namespace h4d::haralick::detail
