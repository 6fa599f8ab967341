// Test oracle: the straightforward co-occurrence construction and the dense
// and sparse feature passes of paper Sec. 4.4.1. Slow but obviously
// correct; the production kernel (haralick/kernel.hpp) is property-tested
// against them, and the micro-benchmarks use them as the A/B baseline:
//
//   * VisitAll  — dense loops touching every Ng^2 cell (the unoptimized
//                 baseline);
//   * SkipZeros — dense loops that branch past zero cells (the paper's
//                 "one-fourth the time" optimization);
//   * sparse    — loops over the non-zero upper-triangular entry list only.
//
// All three produce the same values to rounding; they differ in the work
// they credit to WorkCounters.
#pragma once

#include <cstdint>
#include <vector>

#include "haralick/features.hpp"
#include "haralick/glcm.hpp"
#include "haralick/glcm_sparse.hpp"

namespace h4d::oracle {

/// Zero-entry handling of the dense feature pass.
enum class ZeroPolicy {
  VisitAll,   ///< touch every cell, zeros included (baseline)
  SkipZeros,  ///< branch past zero cells (paper's optimization)
};

/// Accumulate the co-occurrences of `roi` over `dirs` into `g` with the
/// dual-store loop: each valid pair (p, p+d) increments both (a,b) and
/// (b,a). Returns the number of cell updates, like Glcm::accumulate.
std::int64_t accumulate_reference(haralick::Glcm& g, Vol4View<const Level> vol,
                                  const Region4& roi, const std::vector<Vec4>& dirs);

/// Dense feature pass. `wc`, when non-null, is credited with the per-cell
/// operations performed.
haralick::FeatureVector compute_features(const haralick::Glcm& g, haralick::FeatureSet set,
                                         ZeroPolicy policy,
                                         haralick::WorkCounters* wc = nullptr);

/// Sparse feature pass over the non-zero entry list.
haralick::FeatureVector compute_features(const haralick::SparseGlcm& g,
                                         haralick::FeatureSet set,
                                         haralick::WorkCounters* wc = nullptr);

}  // namespace h4d::oracle
