#include "oracle/reference.hpp"

#include <array>
#include <cmath>
#include <stdexcept>
#include <string>

#include "haralick/features_detail.hpp"

namespace h4d::oracle {

using haralick::Feature;
using haralick::FeatureSet;
using haralick::FeatureVector;
using haralick::Glcm;
using haralick::SparseEntry;
using haralick::SparseGlcm;
using haralick::WorkCounters;
using haralick::detail::Gathered;
using haralick::detail::kEps;
using haralick::detail::Needs;
using haralick::detail::xlogx;

namespace {

/// f14 straight from the dense table: A = Dx^{-1/2} P Dy^{-1/2} over the
/// levels with px > 0, then lambda_2 of A A^T.
double maximal_correlation_dense(const Gathered& g, const Glcm& dense, WorkCounters* wc) {
  std::vector<int> support;
  for (int i = 0; i < g.ng; ++i) {
    if (g.px[static_cast<std::size_t>(i)] > kEps) support.push_back(i);
  }
  const int m = static_cast<int>(support.size());
  if (m < 2) return 0.0;

  // Hoist the per-cell division and sqrt calls: one reciprocal scale per
  // support level, then the m^2 cell loop is a count load and two
  // multiplies. Support levels have px > kEps, so total() > 0.
  std::vector<double> scale(static_cast<std::size_t>(m));
  for (int r = 0; r < m; ++r) {
    scale[static_cast<std::size_t>(r)] =
        1.0 / std::sqrt(g.px[static_cast<std::size_t>(support[static_cast<std::size_t>(r)])]);
  }
  std::vector<double> a(static_cast<std::size_t>(m) * static_cast<std::size_t>(m), 0.0);
  const double inv_total = 1.0 / static_cast<double>(dense.total());
  const int ng = dense.num_levels();
  for (int r = 0; r < m; ++r) {
    const std::uint32_t* row =
        dense.counts() + static_cast<std::size_t>(support[static_cast<std::size_t>(r)]) *
                             static_cast<std::size_t>(ng);
    double* arow = a.data() + static_cast<std::size_t>(r) * static_cast<std::size_t>(m);
    const double sr = scale[static_cast<std::size_t>(r)] * inv_total;
    for (int c = 0; c < m; ++c) {
      const std::uint32_t cnt = row[support[static_cast<std::size_t>(c)]];
      if (cnt != 0) {
        arow[c] = static_cast<double>(cnt) * sr * scale[static_cast<std::size_t>(c)];
      }
    }
  }
  return haralick::detail::maximal_correlation_of(a, m, wc);
}

}  // namespace

std::int64_t accumulate_reference(Glcm& g, Vol4View<const Level> vol, const Region4& roi,
                                  const std::vector<Vec4>& dirs) {
  if (!Region4::whole(vol.dims()).contains(roi)) {
    throw std::invalid_argument("accumulate_reference: roi " + roi.str() +
                                " outside volume " + vol.dims().str());
  }
  const int ng = g.num_levels();
  const auto ung = static_cast<std::size_t>(ng);
  // The loop counts into its own table, starting from g's contents (g's
  // table is not writable from outside); set_raw then hands it to g.
  std::vector<std::uint32_t> counts(g.counts(), g.counts() + ung * ung);
  // Row-occupancy marks, set per pair as the loop goes; the rebuilt
  // occupancy of the result must cover every marked row.
  std::array<std::uint64_t, 4> rows{};
  const auto mark_row = [&rows](Level level) {
    rows[static_cast<std::size_t>(level) >> 6] |= std::uint64_t{1} << (level & 63);
  };
  std::int64_t updates = 0;
  const Vec4 o = roi.origin;
  const Vec4 st = vol.strides();
  for (const Vec4& d : dirs) {
    // Valid anchor points p such that both p and p+d are inside the ROI.
    Vec4 lo, hi;  // inclusive lo, exclusive hi, relative to roi origin
    bool any = true;
    for (int k = 0; k < kDims; ++k) {
      lo[k] = d[k] < 0 ? -d[k] : 0;
      hi[k] = roi.size[k] - (d[k] > 0 ? d[k] : 0);
      if (hi[k] <= lo[k]) any = false;
    }
    if (!any) continue;
    // Element offset between a pair's two endpoints; constant per direction.
    const std::int64_t doff = d[0] * st[0] + d[1] * st[1] + d[2] * st[2] + d[3] * st[3];
    const std::int64_t run = hi[0] - lo[0];
    for (std::int64_t t = lo[3]; t < hi[3]; ++t) {
      for (std::int64_t z = lo[2]; z < hi[2]; ++z) {
        for (std::int64_t y = lo[1]; y < hi[1]; ++y) {
          const Level* pa = &vol.at(o[0] + lo[0], o[1] + y, o[2] + z, o[3] + t);
          const Level* pb = pa + doff;
          for (std::int64_t x = 0; x < run; ++x) {
            const Level a = pa[x * st[0]];
            const Level b = pb[x * st[0]];
            // Forward and backward relation: symmetric accumulation.
            counts[a * ung + b]++;
            counts[b * ung + a]++;
            mark_row(a);
            mark_row(b);
          }
          updates += 2 * run;
        }
      }
    }
  }
  g.set_raw(std::move(counts), g.total() + updates);
  for (int i = 0; i < ng; ++i) {
    const bool marked = (rows[static_cast<std::size_t>(i) >> 6] >> (i & 63)) & 1u;
    if (marked && !g.row_possibly_occupied(i)) {
      throw std::logic_error("accumulate_reference: occupied row " + std::to_string(i) +
                             " reported empty");
    }
  }
  return updates;
}

FeatureVector compute_features(const Glcm& g, FeatureSet set, ZeroPolicy policy,
                               WorkCounters* wc) {
  const Needs needs = haralick::detail::analyse(set);
  const int ng = g.num_levels();
  Gathered acc;
  acc.reset(ng);

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
  // Everything but f14 finalizes from the gathered sums alone.
  FeatureSet rest = FeatureSet::from_mask(
      set.mask() & ~(1u << static_cast<int>(Feature::MaximalCorrelationCoeff)));
  FeatureVector out = haralick::detail::finalize(acc, rest, {}, g.total(), wc);
  if (set.has(Feature::MaximalCorrelationCoeff)) {
    out[Feature::MaximalCorrelationCoeff] = maximal_correlation_dense(acc, g, wc);
  }
  return out;
}

FeatureVector compute_features(const SparseGlcm& g, FeatureSet set, WorkCounters* wc) {
  const Needs needs = haralick::detail::analyse(set);
  Gathered acc;
  acc.reset(g.num_levels());

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
  return haralick::detail::finalize(acc, set, g.entries(), g.total(), wc);
}

}  // namespace h4d::oracle
