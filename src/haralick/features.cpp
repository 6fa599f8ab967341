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
  std::vector<double> scale;
  std::vector<double> a;
  std::vector<double> s;
  std::vector<double> d;
  std::vector<double> e;
};

/// f14: sqrt of the second-largest eigenvalue of Q. Q is similar to A A^T
/// with A = Dx^{-1/2} P Dy^{-1/2}; compute A restricted to levels with
/// px > 0 and solve the symmetric problem. Householder + Sturm bisection
/// computes only the lambda_2 f14 needs (eigen.hpp).
double maximal_correlation(const Gathered& g, const Glcm* dense, const SparseGlcm* sparse,
                           WorkCounters* wc) {
  thread_local MaxCorrScratch scr;
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
  if (dense != nullptr) {
    // Hoist the per-cell division and sqrt calls: one reciprocal scale per
    // support level, then the m^2 cell loop is a count load and two
    // multiplies. Support levels have px > kEps, so total() > 0.
    scr.scale.resize(static_cast<std::size_t>(m));
    for (int r = 0; r < m; ++r) {
      scr.scale[static_cast<std::size_t>(r)] =
          1.0 / sqrt_px(support[static_cast<std::size_t>(r)]);
    }
    const double inv_total = 1.0 / static_cast<double>(dense->total());
    const int ng = dense->num_levels();
    for (int r = 0; r < m; ++r) {
      const std::uint32_t* row =
          dense->counts() + static_cast<std::size_t>(support[static_cast<std::size_t>(r)]) *
                                static_cast<std::size_t>(ng);
      double* arow = a.data() + static_cast<std::size_t>(r) * static_cast<std::size_t>(m);
      const double sr = scr.scale[static_cast<std::size_t>(r)] * inv_total;
      for (int c = 0; c < m; ++c) {
        const std::uint32_t cnt = row[support[static_cast<std::size_t>(c)]];
        if (cnt != 0) {
          arow[c] = static_cast<double>(cnt) * sr * scr.scale[static_cast<std::size_t>(c)];
        }
      }
    }
  } else {
    scr.inv.assign(static_cast<std::size_t>(g.ng), -1);
    for (int r = 0; r < m; ++r) {
      scr.inv[static_cast<std::size_t>(support[static_cast<std::size_t>(r)])] = r;
    }
    for (const SparseEntry& e : sparse->entries()) {
      const int r = scr.inv[e.i];
      const int c = scr.inv[e.j];
      const double v = sparse->p_of(e) / (sqrt_px(e.i) * sqrt_px(e.j));
      a[static_cast<std::size_t>(r) * static_cast<std::size_t>(m) + c] = v;
      a[static_cast<std::size_t>(c) * static_cast<std::size_t>(m) + r] = v;
    }
  }

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

FeatureVector finalize(const Gathered& g, FeatureSet set, const Glcm* dense,
                       const SparseGlcm* sparse, WorkCounters* wc) {
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
    out[Feature::MaximalCorrelationCoeff] = maximal_correlation(g, dense, sparse, wc);
  }

  return out;
}

}  // namespace detail

using detail::analyse;
using detail::finalize;
using detail::Gathered;
using detail::Needs;
using detail::xlogx;

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

FeatureVector compute_features(const Glcm& g, FeatureSet set, ZeroPolicy policy,
                               WorkCounters* wc) {
  const Needs needs = analyse(set);
  const int ng = g.num_levels();

  Gathered acc;
  acc.ng = ng;
  acc.px.assign(static_cast<std::size_t>(ng), 0.0);
  acc.psum.assign(static_cast<std::size_t>(2 * ng - 1), 0.0);
  acc.pdiff.assign(static_cast<std::size_t>(ng), 0.0);

  std::int64_t cells_scanned = 0;
  std::int64_t cells_computed = 0;

  for (int i = 0; i < ng; ++i) {
    for (int j = 0; j < ng; ++j) {
      ++cells_scanned;
      const std::uint32_t c = g.count(i, j);
      if (policy == ZeroPolicy::SkipZeros && c == 0) continue;
      const double p = g.p(i, j);
      ++cells_computed;
      acc.px[static_cast<std::size_t>(i)] += p;
      if (needs.marg_sum) acc.psum[static_cast<std::size_t>(i + j)] += p;
      if (needs.marg_diff) acc.pdiff[static_cast<std::size_t>(std::abs(i - j))] += p;
      if (needs.cell_asm) acc.asm_sum += p * p;
      if (needs.cell_ixj) acc.ixj += static_cast<double>(i) * j * p;
      if (needs.cell_idm) {
        const double d = static_cast<double>(i - j);
        acc.idm += p / (1.0 + d * d);
      }
      if (needs.cell_entropy) acc.entropy -= xlogx(p);
    }
  }

  if (wc != nullptr) {
    wc->feature_cells_scanned += cells_scanned;
    wc->feature_cell_ops += cells_computed * (needs.cell_terms > 0 ? needs.cell_terms : 1);
  }
  return finalize(acc, set, &g, nullptr, wc);
}

FeatureVector compute_features(const SparseGlcm& g, FeatureSet set, WorkCounters* wc) {
  const Needs needs = analyse(set);
  const int ng = g.num_levels();

  Gathered acc;
  acc.ng = ng;
  acc.px.assign(static_cast<std::size_t>(ng), 0.0);
  acc.psum.assign(static_cast<std::size_t>(2 * ng - 1), 0.0);
  acc.pdiff.assign(static_cast<std::size_t>(ng), 0.0);

  std::int64_t cells_computed = 0;

  for (const SparseEntry& e : g.entries()) {
    const double p = g.p_of(e);
    const int i = e.i;
    const int j = e.j;
    // Each stored upper-triangular entry stands for cells (i,j) and (j,i).
    const double w = (i == j) ? 1.0 : 2.0;
    cells_computed += (i == j) ? 1 : 2;
    acc.px[static_cast<std::size_t>(i)] += p;
    if (i != j) acc.px[static_cast<std::size_t>(j)] += p;
    if (needs.marg_sum) acc.psum[static_cast<std::size_t>(i + j)] += w * p;
    if (needs.marg_diff) acc.pdiff[static_cast<std::size_t>(j - i)] += w * p;
    if (needs.cell_asm) acc.asm_sum += w * p * p;
    if (needs.cell_ixj) acc.ixj += w * static_cast<double>(i) * j * p;
    if (needs.cell_idm) {
      const double d = static_cast<double>(i - j);
      acc.idm += w * p / (1.0 + d * d);
    }
    if (needs.cell_entropy) acc.entropy -= w * xlogx(p);
  }

  if (wc != nullptr) {
    wc->feature_cells_scanned += static_cast<std::int64_t>(g.nnz());
    wc->feature_cell_ops += cells_computed * (needs.cell_terms > 0 ? needs.cell_terms : 1);
  }
  return finalize(acc, set, nullptr, &g, wc);
}

}  // namespace h4d::haralick
