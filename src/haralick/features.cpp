#include "haralick/features.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "haralick/eigen.hpp"
#include "haralick/features_detail.hpp"
#include "haralick/simd.hpp"

namespace h4d::haralick {

namespace detail {

Needs analyse(FeatureSet set) {
  Needs n;
  n.cell_asm = set.has(Feature::AngularSecondMoment);
  n.cell_ixj = set.has(Feature::Correlation);
  n.cell_idm = set.has(Feature::InverseDifferenceMoment);
  n.cell_entropy = set.has(Feature::Entropy) || set.has(Feature::InfoMeasureCorrelation1) ||
                   set.has(Feature::InfoMeasureCorrelation2);
  n.marg_sum = set.has(Feature::SumAverage) || set.has(Feature::SumVariance) ||
               set.has(Feature::SumEntropy);
  n.marg_diff = set.has(Feature::Contrast) || set.has(Feature::DifferenceVariance) ||
                set.has(Feature::DifferenceEntropy);
  n.cell_terms = (n.cell_asm ? 1 : 0) + (n.cell_ixj ? 1 : 0) + (n.cell_idm ? 1 : 0) +
                 (n.cell_entropy ? 1 : 0) + (n.marg_sum ? 1 : 0) + (n.marg_diff ? 1 : 0);
  return n;
}

void Gathered::reset(int num_levels) {
  ng = num_levels;
  px.assign(static_cast<std::size_t>(num_levels), 0.0);
  psum.assign(static_cast<std::size_t>(2 * num_levels - 1), 0.0);
  pdiff.assign(static_cast<std::size_t>(num_levels), 0.0);
  asm_sum = 0.0;
  ixj = 0.0;
  idm = 0.0;
  entropy = 0.0;
}

/// Per-thread scratch for f14: support map, the A and S matrices, and the
/// eigensolver's d/e vectors. f14 runs once per ROI on the engine's hot
/// path; reusing these buffers removes ~6 allocations per ROI.
struct MaxCorrScratch {
  std::vector<int> support;
  std::vector<int> inv;
  std::vector<double> a;
  std::vector<double> s;
  std::vector<double> d;
  std::vector<double> e;
};

MaxCorrScratch& max_corr_scratch() {
  thread_local MaxCorrScratch scr;
  return scr;
}

double maximal_correlation_of(const std::vector<double>& a, int m, WorkCounters* wc) {
  MaxCorrScratch& scr = max_corr_scratch();
  // S = A A^T, symmetric PSD with largest eigenvalue 1.
  std::vector<double>& s = scr.s;
  s.resize(static_cast<std::size_t>(m) * static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    const double* ai = a.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(m);
    for (int j = i; j < m; ++j) {
      const double* aj = a.data() + static_cast<std::size_t>(j) * static_cast<std::size_t>(m);
      double acc = 0.0;
      H4D_PRAGMA_SIMD_REDUCE(acc)
      for (int k = 0; k < m; ++k) acc += ai[k] * aj[k];
      s[static_cast<std::size_t>(i) * static_cast<std::size_t>(m) + j] = acc;
      s[static_cast<std::size_t>(j) * static_cast<std::size_t>(m) + i] = acc;
    }
  }
  if (wc != nullptr) {
    wc->feature_cell_ops += static_cast<std::int64_t>(m) * m * m / 2;
  }
  const double lambda2 = symmetric_lambda2(s, m, scr.d, scr.e);
  return std::sqrt(std::clamp(lambda2, 0.0, 1.0));
}

/// f14: sqrt of the second-largest eigenvalue of Q. Q is similar to A A^T
/// with A = Dx^{-1/2} P Dy^{-1/2}; compute A restricted to levels with
/// px > 0 from the upper-triangle entry list and solve the symmetric
/// problem. Householder + Sturm bisection computes only the lambda_2 f14
/// needs (eigen.hpp).
double maximal_correlation(const Gathered& g, std::span<const SparseEntry> entries,
                           std::int64_t total, WorkCounters* wc) {
  MaxCorrScratch& scr = max_corr_scratch();
  scr.support.clear();
  for (int i = 0; i < g.ng; ++i) {
    if (g.px[static_cast<std::size_t>(i)] > kEps) scr.support.push_back(i);
  }
  const std::vector<int>& support = scr.support;
  const int m = static_cast<int>(support.size());
  if (m < 2) return 0.0;

  std::vector<double>& a = scr.a;
  a.assign(static_cast<std::size_t>(m) * static_cast<std::size_t>(m), 0.0);
  auto sqrt_px = [&g](int lvl) { return std::sqrt(g.px[static_cast<std::size_t>(lvl)]); };
  scr.inv.assign(static_cast<std::size_t>(g.ng), -1);
  for (int r = 0; r < m; ++r) {
    scr.inv[static_cast<std::size_t>(support[static_cast<std::size_t>(r)])] = r;
  }
  // m >= 2 support levels imply total > 0.
  const double dtotal = static_cast<double>(total);
  for (const SparseEntry& e : entries) {
    const int r = scr.inv[e.i];
    const int c = scr.inv[e.j];
    if (r < 0 || c < 0) continue;  // a level below kEps is outside the support
    const double v = (static_cast<double>(e.count) / dtotal) / (sqrt_px(e.i) * sqrt_px(e.j));
    a[static_cast<std::size_t>(r) * static_cast<std::size_t>(m) + c] = v;
    a[static_cast<std::size_t>(c) * static_cast<std::size_t>(m) + r] = v;
  }
  return maximal_correlation_of(a, m, wc);
}

FeatureVector finalize(const Gathered& g, FeatureSet set, std::span<const SparseEntry> entries,
                       std::int64_t total, WorkCounters* wc) {
  FeatureVector out;
  const int ng = g.ng;

  // Marginal moments. By symmetry mu_x == mu_y and sigma_x == sigma_y.
  double mu = 0.0;
  for (int i = 0; i < ng; ++i) mu += i * g.px[static_cast<std::size_t>(i)];
  double var = 0.0;
  for (int i = 0; i < ng; ++i) {
    const double d = i - mu;
    var += d * d * g.px[static_cast<std::size_t>(i)];
  }
  double hx = 0.0;
  for (int i = 0; i < ng; ++i) hx -= xlogx(g.px[static_cast<std::size_t>(i)]);

  if (set.has(Feature::AngularSecondMoment)) out[Feature::AngularSecondMoment] = g.asm_sum;

  if (set.has(Feature::Contrast)) {
    double f2 = 0.0;
    for (int k = 0; k < ng; ++k) {
      f2 += static_cast<double>(k) * k * g.pdiff[static_cast<std::size_t>(k)];
    }
    out[Feature::Contrast] = f2;
  }

  if (set.has(Feature::Correlation)) {
    // (sum ij p - mu^2) / var; a constant region (var ~ 0) is perfectly
    // correlated, following the scikit-image convention.
    out[Feature::Correlation] = var > kEps ? (g.ixj - mu * mu) / var : 1.0;
  }

  if (set.has(Feature::SumOfSquaresVariance)) out[Feature::SumOfSquaresVariance] = var;
  if (set.has(Feature::InverseDifferenceMoment)) out[Feature::InverseDifferenceMoment] = g.idm;

  if (set.has(Feature::SumAverage) || set.has(Feature::SumVariance) ||
      set.has(Feature::SumEntropy)) {
    const int nk = 2 * ng - 1;
    double f6 = 0.0;
    for (int k = 0; k < nk; ++k) f6 += k * g.psum[static_cast<std::size_t>(k)];
    if (set.has(Feature::SumAverage)) out[Feature::SumAverage] = f6;
    if (set.has(Feature::SumVariance)) {
      // Haralick's text uses f8 here; the literature treats that as a typo
      // and centers on the sum average f6, as we do.
      double f7 = 0.0;
      for (int k = 0; k < nk; ++k) {
        const double d = k - f6;
        f7 += d * d * g.psum[static_cast<std::size_t>(k)];
      }
      out[Feature::SumVariance] = f7;
    }
    if (set.has(Feature::SumEntropy)) {
      double f8 = 0.0;
      for (int k = 0; k < nk; ++k) f8 -= xlogx(g.psum[static_cast<std::size_t>(k)]);
      out[Feature::SumEntropy] = f8;
    }
  }

  if (set.has(Feature::Entropy)) out[Feature::Entropy] = g.entropy;

  if (set.has(Feature::DifferenceVariance) || set.has(Feature::DifferenceEntropy)) {
    if (set.has(Feature::DifferenceVariance)) {
      double mud = 0.0;
      for (int k = 0; k < ng; ++k) mud += k * g.pdiff[static_cast<std::size_t>(k)];
      double f10 = 0.0;
      for (int k = 0; k < ng; ++k) {
        const double d = k - mud;
        f10 += d * d * g.pdiff[static_cast<std::size_t>(k)];
      }
      out[Feature::DifferenceVariance] = f10;
    }
    if (set.has(Feature::DifferenceEntropy)) {
      double f11 = 0.0;
      for (int k = 0; k < ng; ++k) f11 -= xlogx(g.pdiff[static_cast<std::size_t>(k)]);
      out[Feature::DifferenceEntropy] = f11;
    }
  }

  if (set.has(Feature::InfoMeasureCorrelation1) || set.has(Feature::InfoMeasureCorrelation2)) {
    // For a symmetric GLCM, HXY1 = HXY2 = 2 HX analytically.
    const double hxy = g.entropy;
    const double hxy1 = 2.0 * hx;
    const double hxy2 = 2.0 * hx;
    if (set.has(Feature::InfoMeasureCorrelation1)) {
      out[Feature::InfoMeasureCorrelation1] = hx > kEps ? (hxy - hxy1) / hx : 0.0;
    }
    if (set.has(Feature::InfoMeasureCorrelation2)) {
      const double inner = 1.0 - std::exp(-2.0 * (hxy2 - hxy));
      out[Feature::InfoMeasureCorrelation2] = inner > 0.0 ? std::sqrt(inner) : 0.0;
    }
  }

  if (set.has(Feature::MaximalCorrelationCoeff)) {
    out[Feature::MaximalCorrelationCoeff] = maximal_correlation(g, entries, total, wc);
  }

  return out;
}

void finalize_moments(const MomentSums& m, FeatureSet set, FeatureVector& out) {
  // With no pairs every probability is 0: the sweep's values for an empty
  // matrix.
  const bool empty = m.n == 0;
  const double n = static_cast<double>(m.n);
  const double n2 = n * n;
  // N^2 var: zero exactly when the region is constant.
  const std::int64_t var_n2 = m.n * m.sum_ii - m.sum_i * m.sum_i;
  if (set.has(Feature::AngularSecondMoment)) {
    out[Feature::AngularSecondMoment] = empty ? 0.0 : static_cast<double>(m.sum_sq) / n2;
  }
  if (set.has(Feature::Correlation)) {
    // A constant region is perfectly correlated, as in finalize().
    out[Feature::Correlation] =
        var_n2 > 0 ? static_cast<double>(m.n * m.sum_ij - m.sum_i * m.sum_i) /
                         static_cast<double>(var_n2)
                   : 1.0;
  }
  if (set.has(Feature::SumOfSquaresVariance)) {
    out[Feature::SumOfSquaresVariance] = empty ? 0.0 : static_cast<double>(var_n2) / n2;
  }
  if (set.has(Feature::InverseDifferenceMoment)) {
    double idm = 0.0;
    if (!empty) {
      for (int k = 0; k < m.ng; ++k) {
        const std::int64_t dk = m.diff[static_cast<std::size_t>(k)];
        if (dk != 0) idm += static_cast<double>(dk) / (n * (1.0 + static_cast<double>(k) * k));
      }
    }
    out[Feature::InverseDifferenceMoment] = idm;
  }
}

}  // namespace detail

std::string_view feature_name(Feature f) {
  switch (f) {
    case Feature::AngularSecondMoment: return "Angular Second Moment";
    case Feature::Contrast: return "Contrast";
    case Feature::Correlation: return "Correlation";
    case Feature::SumOfSquaresVariance: return "Sum of Squares: Variance";
    case Feature::InverseDifferenceMoment: return "Inverse Difference Moment";
    case Feature::SumAverage: return "Sum Average";
    case Feature::SumVariance: return "Sum Variance";
    case Feature::SumEntropy: return "Sum Entropy";
    case Feature::Entropy: return "Entropy";
    case Feature::DifferenceVariance: return "Difference Variance";
    case Feature::DifferenceEntropy: return "Difference Entropy";
    case Feature::InfoMeasureCorrelation1: return "Information Measure of Correlation 1";
    case Feature::InfoMeasureCorrelation2: return "Information Measure of Correlation 2";
    case Feature::MaximalCorrelationCoeff: return "Maximal Correlation Coefficient";
  }
  return "?";
}

std::string_view feature_slug(Feature f) {
  switch (f) {
    case Feature::AngularSecondMoment: return "asm";
    case Feature::Contrast: return "contrast";
    case Feature::Correlation: return "correlation";
    case Feature::SumOfSquaresVariance: return "variance";
    case Feature::InverseDifferenceMoment: return "idm";
    case Feature::SumAverage: return "sum_average";
    case Feature::SumVariance: return "sum_variance";
    case Feature::SumEntropy: return "sum_entropy";
    case Feature::Entropy: return "entropy";
    case Feature::DifferenceVariance: return "diff_variance";
    case Feature::DifferenceEntropy: return "diff_entropy";
    case Feature::InfoMeasureCorrelation1: return "imc1";
    case Feature::InfoMeasureCorrelation2: return "imc2";
    case Feature::MaximalCorrelationCoeff: return "max_corr_coeff";
  }
  return "?";
}

}  // namespace h4d::haralick
