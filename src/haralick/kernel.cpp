#include "haralick/kernel.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "haralick/fast_log.hpp"
#include "haralick/features_detail.hpp"
#include "haralick/simd.hpp"

namespace h4d::haralick {

namespace {

/// Per-direction loop bounds, resolved once per accumulate() call.
struct DirPlan {
  Vec4 lo;                 // inclusive anchor lower bound, ROI-relative
  Vec4 hi;                 // exclusive anchor upper bound, ROI-relative
  std::int64_t doff = 0;   // element offset anchor -> partner
  std::int64_t run = 0;    // hi[0] - lo[0]
};

/// One tile increment. The checked variant detects a uint16 wrap (the
/// post-increment reads 0) and banks 2^16 in the spill table; the unchecked
/// variant is a bare increment, used when the caller proved no cell can wrap.
template <bool Checked>
inline void bump(std::uint16_t* bank, std::size_t idx, std::size_t bank_base,
                 std::uint32_t* spill, std::vector<std::int32_t>& spill_cells) {
  if constexpr (Checked) {
    if (__builtin_expect(++bank[idx] == 0, 0)) {
      spill[bank_base + idx] += std::uint32_t{1} << 16;
      spill_cells.push_back(static_cast<std::int32_t>(bank_base + idx));
    }
  } else {
    ++bank[idx];
  }
}

/// The anchor-major pair scan. Walks each (y, z, t) row of the ROI once and
/// feeds it to every live displacement vector while it is hot in cache; the
/// x-inner loop alternates between the two tile banks so consecutive
/// increments are independent even when a smooth texture funnels successive
/// pairs into the same cell. In single-bank mode (large Ng) `t1` aliases
/// `t0` and `t1_base` is 0; the loop body is unchanged.
template <bool Checked>
void scan_pairs(Vol4View<const Level> vol, const Region4& roi,
                const std::vector<DirPlan>& plans, std::uint16_t* t0,
                std::uint16_t* t1, std::size_t ng, std::size_t t1_base,
                std::uint32_t* spill, std::vector<std::int32_t>& spill_cells) {
  const Vec4 o = roi.origin;
  const std::int64_t sx = vol.strides()[0];
  // Plans live in a given (z, t) slab are filtered once per slab, so the row
  // loop re-checks only the y bound.
  static thread_local std::vector<const DirPlan*> live;
  for (std::int64_t t = 0; t < roi.size[3]; ++t) {
    for (std::int64_t z = 0; z < roi.size[2]; ++z) {
      live.clear();
      for (const DirPlan& pl : plans) {
        if (z >= pl.lo[2] && z < pl.hi[2] && t >= pl.lo[3] && t < pl.hi[3]) {
          live.push_back(&pl);
        }
      }
      for (std::int64_t y = 0; y < roi.size[1]; ++y) {
        const Level* const row = &vol.at(o[0], o[1] + y, o[2] + z, o[3] + t);
        for (const DirPlan* plp : live) {
          const DirPlan& pl = *plp;
          if (y < pl.lo[1] || y >= pl.hi[1]) continue;
          const Level* pa = row + pl.lo[0] * sx;
          const Level* pb = pa + pl.doff;
          const std::int64_t n = pl.run;
          std::int64_t x = 0;
          if (sx == 1) {
            for (; x + 1 < n; x += 2) {
              const std::size_t i0 = static_cast<std::size_t>(pa[x]) * ng + pb[x];
              const std::size_t i1 =
                  static_cast<std::size_t>(pa[x + 1]) * ng + pb[x + 1];
              bump<Checked>(t0, i0, 0, spill, spill_cells);
              bump<Checked>(t1, i1, t1_base, spill, spill_cells);
            }
            if (x < n) {
              const std::size_t i0 = static_cast<std::size_t>(pa[x]) * ng + pb[x];
              bump<Checked>(t0, i0, 0, spill, spill_cells);
            }
          } else {
            for (; x + 1 < n; x += 2) {
              const std::size_t i0 =
                  static_cast<std::size_t>(pa[x * sx]) * ng + pb[x * sx];
              const std::size_t i1 =
                  static_cast<std::size_t>(pa[(x + 1) * sx]) * ng + pb[(x + 1) * sx];
              bump<Checked>(t0, i0, 0, spill, spill_cells);
              bump<Checked>(t1, i1, t1_base, spill, spill_cells);
            }
            if (x < n) {
              const std::size_t i0 =
                  static_cast<std::size_t>(pa[x * sx]) * ng + pb[x * sx];
              bump<Checked>(t0, i0, 0, spill, spill_cells);
            }
          }
        }
      }
    }
  }
}

}  // namespace

KernelScratch::KernelScratch(int num_levels) { configure(num_levels); }
KernelScratch::KernelScratch(KernelScratch&&) noexcept = default;
KernelScratch& KernelScratch::operator=(KernelScratch&&) noexcept = default;
KernelScratch::~KernelScratch() = default;

void KernelScratch::configure(int num_levels) {
  if (num_levels < 2 || num_levels > 256) {
    throw std::invalid_argument("KernelScratch: Ng must be in [2, 256]");
  }
  if (num_levels == ng_) return;
  ng_ = num_levels;
  // Two banks break the increment dependency chain while both fit L1
  // (Ng=64: 16 KiB); past that a single bank halves the footprint the
  // accumulation scatters over and the fold scans.
  dual_bank_ = ng_ <= 64;
  const auto cells = static_cast<std::size_t>(ng_) * static_cast<std::size_t>(ng_);
  tile_.assign(2 * cells, 0);
  spill_.assign(2 * cells, 0);
  spill_cells_.clear();
  total_ = 0;
  pairs_since_reset_ = 0;
}

void KernelScratch::clear_side_state() {
  for (const std::int32_t idx : spill_cells_) spill_[static_cast<std::size_t>(idx)] = 0;
  spill_cells_.clear();
  total_ = 0;
  pairs_since_reset_ = 0;
}

void KernelScratch::reset() {
  std::fill(tile_.begin(), tile_.end(), std::uint16_t{0});
  clear_side_state();
}

std::uint32_t KernelScratch::cell(int i, int j) const {
  const auto cells = static_cast<std::size_t>(ng_) * static_cast<std::size_t>(ng_);
  const std::size_t ij = static_cast<std::size_t>(i) * static_cast<std::size_t>(ng_) + j;
  std::uint32_t u = static_cast<std::uint32_t>(tile_[ij]) + tile_[cells + ij];
  const std::size_t ji = static_cast<std::size_t>(j) * static_cast<std::size_t>(ng_) + i;
  if (i != j) u += static_cast<std::uint32_t>(tile_[ji]) + tile_[cells + ji];
  if (!spill_cells_.empty()) {
    u += spill_[ij] + spill_[cells + ij];
    if (i != j) u += spill_[ji] + spill_[cells + ji];
  }
  return u;
}

std::int64_t KernelScratch::accumulate(Vol4View<const Level> vol, const Region4& roi,
                                       const std::vector<Vec4>& dirs) {
  if (!Region4::whole(vol.dims()).contains(roi)) {
    throw std::invalid_argument("KernelScratch::accumulate: roi " + roi.str() +
                                " outside volume " + vol.dims().str());
  }
  const Vec4 st = vol.strides();

  // Resolve every direction's anchor range once (dropping infeasible ones),
  // so the row loop touches only live displacement vectors, and count the
  // incoming pairs up front — that bound picks the loop variant below.
  static thread_local std::vector<DirPlan> plans;
  plans.clear();
  std::int64_t incoming = 0;
  for (const Vec4& d : dirs) {
    DirPlan pl;
    bool any = true;
    for (int k = 0; k < kDims; ++k) {
      pl.lo[k] = d[k] < 0 ? -d[k] : 0;
      pl.hi[k] = roi.size[k] - (d[k] > 0 ? d[k] : 0);
      if (pl.hi[k] <= pl.lo[k]) any = false;
    }
    if (!any) continue;
    pl.doff = d[0] * st[0] + d[1] * st[1] + d[2] * st[2] + d[3] * st[3];
    pl.run = pl.hi[0] - pl.lo[0];
    incoming += pl.run * (pl.hi[1] - pl.lo[1]) * (pl.hi[2] - pl.lo[2]) *
                (pl.hi[3] - pl.lo[3]);
    plans.push_back(pl);
  }

  std::uint16_t* const t0 = tile_.data();
  const auto cells = static_cast<std::size_t>(ng_) * static_cast<std::size_t>(ng_);
  std::uint16_t* const t1 = dual_bank_ ? t0 + cells : t0;
  const std::size_t t1_base = dual_bank_ ? cells : 0;
  const auto ng = static_cast<std::size_t>(ng_);

  // No cell can hold more than the pairs accumulated since the tile was last
  // empty, so below 65,536 the wrap check (and its spill bookkeeping) is
  // provably dead and the loop runs branch-free. The typical ROI is a few
  // thousand pairs; only pathologically large or long-accumulating ROIs take
  // the checked variant.
  pairs_since_reset_ += incoming;
  if (pairs_since_reset_ <= 65535) {
    scan_pairs<false>(vol, roi, plans, t0, t1, ng, t1_base, spill_.data(), spill_cells_);
  } else {
    scan_pairs<true>(vol, roi, plans, t0, t1, ng, t1_base, spill_.data(), spill_cells_);
  }

  const std::int64_t updates = 2 * incoming;  // reference units: 2 stores/pair
  total_ += updates;
  return updates;
}

void KernelScratch::finalize_add(Glcm& g) {
  if (g.num_levels() != ng_) {
    throw std::invalid_argument("KernelScratch::finalize_add: Ng mismatch");
  }
  const auto cells = static_cast<std::size_t>(ng_) * static_cast<std::size_t>(ng_);
  const auto ng = static_cast<std::size_t>(ng_);
  // Row-occupancy marks collect into a local bitmap, merged into the Glcm's
  // once at the end — not one mark_row call per non-zero cell.
  std::array<std::uint64_t, 4> marks{};
  const auto mark = [&marks](std::size_t level) {
    marks[level >> 6] |= std::uint64_t{1} << (level & 63);
  };
  // Spilled excess first; zeroing each entry as it folds makes duplicate list
  // entries (a cell that wrapped more than once) harmless.
  for (const std::int32_t sidx : spill_cells_) {
    const auto idx = static_cast<std::size_t>(sidx);
    const std::uint32_t v = spill_[idx];
    if (v == 0) continue;
    spill_[idx] = 0;
    const std::size_t raw = idx >= cells ? idx - cells : idx;
    const std::size_t a = raw / ng;
    const std::size_t b = raw % ng;
    g.counts_[a * ng + b] += v;
    g.counts_[b * ng + a] += v;  // diagonal: same cell twice -> 2v, as reference
    mark(a);
    mark(b);
  }
  spill_cells_.clear();
  // Then both banks, row-sequential — prefetch-friendly at any Ng, no
  // min/max at all: a raw (a, b) count adds to both mirror cells of the
  // symmetric dense table, which lands diagonal pairs twice in the same cell
  // exactly like the reference's double store. Zero as we read so a reset
  // never rescans.
  for (int bank = 0; bank < (dual_bank_ ? 2 : 1); ++bank) {
    std::uint16_t* const base = tile_.data() + static_cast<std::size_t>(bank) * cells;
    for (std::size_t a = 0; a < ng; ++a) {
      std::uint16_t* const row = base + a * ng;
      std::uint32_t any = 0;
      for (std::size_t b = 0; b < ng; ++b) any |= row[b];
      if (any == 0) continue;
      mark(a);
      for (std::size_t b = 0; b < ng; ++b) {
        const std::uint32_t v = row[b];
        if (v == 0) continue;
        row[b] = 0;
        g.counts_[a * ng + b] += v;
        g.counts_[b * ng + a] += v;
        mark(b);
      }
    }
  }
  for (std::size_t w = 0; w < marks.size(); ++w) g.row_bits_[w] |= marks[w];
  g.total_ += total_;
  total_ = 0;
  pairs_since_reset_ = 0;
}

void KernelScratch::gather_tile() {
  entries_.clear();
  const auto cells = static_cast<std::size_t>(ng_) * static_cast<std::size_t>(ng_);
  std::uint16_t* const t0 = tile_.data();
  std::uint16_t* const t1 = t0 + cells;

  // Occupancy prepass: canonical upper row i can only be non-empty if level
  // i appeared as an anchor (a bank row) or a partner (a bank column). One
  // sequential pass over both banks — vectorizable OR reductions — finds
  // that superset, so the ordered gather below never walks a dead row's
  // cache-hostile (j, i) column loads.
  std::array<std::uint64_t, 4> occ{};
  {
    std::array<std::uint16_t, 256> col_or{};
    for (int bank = 0; bank < (dual_bank_ ? 2 : 1); ++bank) {
      const std::uint16_t* const base = tile_.data() + static_cast<std::size_t>(bank) * cells;
      for (int a = 0; a < ng_; ++a) {
        const std::uint16_t* const row = base + static_cast<std::size_t>(a) * ng_;
        std::uint32_t any = 0;
        for (int b = 0; b < ng_; ++b) {
          any |= row[b];
          col_or[static_cast<std::size_t>(b)] |= row[b];
        }
        if (any != 0) occ[static_cast<std::size_t>(a) >> 6] |= std::uint64_t{1} << (a & 63);
      }
    }
    for (int b = 0; b < ng_; ++b) {
      if (col_or[static_cast<std::size_t>(b)] != 0) {
        occ[static_cast<std::size_t>(b) >> 6] |= std::uint64_t{1} << (b & 63);
      }
    }
    for (const std::int32_t sidx : spill_cells_) {
      const std::size_t raw = static_cast<std::size_t>(sidx) >= cells
                                  ? static_cast<std::size_t>(sidx) - cells
                                  : static_cast<std::size_t>(sidx);
      const auto a = raw / static_cast<std::size_t>(ng_);
      const auto b = raw % static_cast<std::size_t>(ng_);
      occ[a >> 6] |= std::uint64_t{1} << (a & 63);
      occ[b >> 6] |= std::uint64_t{1} << (b & 63);
    }
  }

  // The non-zero upper cells in the exact row-major order
  // SparseGlcm::from_dense emits them. The tile is zeroed as it is read,
  // leaving the scratch ready for the next ROI.
  for (int i = 0; i < ng_; ++i) {
    if (!((occ[static_cast<std::size_t>(i) >> 6] >> (i & 63)) & 1u)) continue;
    const std::size_t base = static_cast<std::size_t>(i) * static_cast<std::size_t>(ng_);
    for (int j = i; j < ng_; ++j) {
      const std::uint32_t u = cell(i, j);
      const std::size_t ij = base + static_cast<std::size_t>(j);
      const std::size_t ji = static_cast<std::size_t>(j) * static_cast<std::size_t>(ng_) + i;
      t0[ij] = 0;
      t1[ij] = 0;
      t0[ji] = 0;
      t1[ji] = 0;
      if (u == 0) continue;
      // The dense matrix holds the pair count off-diagonal and twice it on
      // the diagonal; the stored entry carries the dense cell value.
      const std::uint32_t c = i == j ? 2 * u : u;
      entries_.push_back({static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(j), c});
    }
  }
  clear_side_state();
}

FeatureVector KernelScratch::features_fused(FeatureSet set, WorkCounters* wc,
                                            SparseGlcm* sparse_out, SweepMode mode,
                                            Representation repr) {
  const std::int64_t total = total_;
  gather_tile();
  if (wc != nullptr && repr == Representation::Sparse) {
    // The modeled compression still scans Ng^2 dense cells.
    wc->sparse_entries_emitted += static_cast<std::int64_t>(entries_.size());
    wc->sparse_compress_cells += static_cast<std::int64_t>(ng_) * ng_;
  }
  const FeatureVector out = sweep(ng_, total, entries_, set, wc, mode, repr);
  if (sparse_out != nullptr) *sparse_out = SparseGlcm(ng_, total, entries_);
  return out;
}

FeatureVector KernelScratch::features_of(const SparseGlcm& m, FeatureSet set, WorkCounters* wc,
                                         SweepMode mode, Representation repr) {
  return sweep(m.num_levels(), m.total(), m.entries(), set, wc, mode, repr);
}

FeatureVector KernelScratch::sweep(int ng, std::int64_t total,
                                   std::span<const SparseEntry> entries, FeatureSet set,
                                   WorkCounters* wc, SweepMode mode, Representation repr) {
  const detail::Needs needs = detail::analyse(set);
  if (!gathered_) gathered_ = std::make_unique<detail::Gathered>();
  detail::Gathered& acc = *gathered_;
  acc.reset(ng);

  const double dtotal = static_cast<double>(total);
  std::int64_t cells_computed = 0;
  const std::size_t nnz = entries.size();

  if (mode == SweepMode::Strict) {
    // Each stored upper-triangular entry stands for cells (i,j) and (j,i):
    // one interleaved loop, in entry order, with the reference pass's exact
    // operations and floating-point accumulation order.
    for (const SparseEntry& e : entries) {
      const int i = e.i;
      const int j = e.j;
      // Exactly SparseGlcm::p_of — a true division keeps the bits identical.
      const double p = total == 0 ? 0.0 : static_cast<double>(e.count) / dtotal;
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
      if (needs.cell_entropy) acc.entropy -= w * detail::xlogx(p);
    }
  } else {
    // Fast sweep: copy the entries into SoA term arrays, then reduce each
    // feature term with a SIMD-annotated loop. Entropy goes through the
    // fast_log polynomial. Only the entropy bits and the SIMD reduction
    // grouping differ from Strict; agreement is ULP-bounded and
    // property-tested.
    soa_i_.resize(nnz);
    soa_j_.resize(nnz);
    soa_p_.resize(nnz);
    soa_w_.resize(nnz);
    for (std::size_t k = 0; k < nnz; ++k) {
      const SparseEntry& e = entries[k];
      soa_i_[k] = static_cast<double>(e.i);
      soa_j_[k] = static_cast<double>(e.j);
      soa_p_[k] = static_cast<double>(e.count);  // scaled to p below
      soa_w_[k] = e.i == e.j ? 1.0 : 2.0;
      cells_computed += e.i == e.j ? 1 : 2;
    }
    double* const vp = soa_p_.data();
    const double* const vi = soa_i_.data();
    const double* const vj = soa_j_.data();
    const double* const vw = soa_w_.data();
    if (total != 0) {
      H4D_PRAGMA_SIMD
      for (std::size_t k = 0; k < nnz; ++k) vp[k] /= dtotal;  // == SparseGlcm::p_of
    } else {
      for (std::size_t k = 0; k < nnz; ++k) vp[k] = 0.0;
    }
    // Marginal scatters carry index conflicts, so they stay scalar; they are
    // 2-3 adds per cell against the reductions' multiply chains.
    for (std::size_t k = 0; k < nnz; ++k) {
      const SparseEntry& e = entries[k];
      acc.px[e.i] += vp[k];
      if (e.i != e.j) acc.px[e.j] += vp[k];
    }
    if (needs.marg_sum) {
      for (std::size_t k = 0; k < nnz; ++k) {
        const SparseEntry& e = entries[k];
        acc.psum[static_cast<std::size_t>(e.i) + e.j] += vw[k] * vp[k];
      }
    }
    if (needs.marg_diff) {
      for (std::size_t k = 0; k < nnz; ++k) {
        const SparseEntry& e = entries[k];
        acc.pdiff[static_cast<std::size_t>(e.j - e.i)] += vw[k] * vp[k];
      }
    }
    if (needs.cell_asm) {
      double asm_sum = 0.0;
      H4D_PRAGMA_SIMD_REDUCE(asm_sum)
      for (std::size_t k = 0; k < nnz; ++k) asm_sum += vw[k] * vp[k] * vp[k];
      acc.asm_sum = asm_sum;
    }
    if (needs.cell_ixj) {
      double ixj = 0.0;
      H4D_PRAGMA_SIMD_REDUCE(ixj)
      for (std::size_t k = 0; k < nnz; ++k) ixj += vw[k] * vi[k] * vj[k] * vp[k];
      acc.ixj = ixj;
    }
    if (needs.cell_idm) {
      double idm = 0.0;
      H4D_PRAGMA_SIMD_REDUCE(idm)
      for (std::size_t k = 0; k < nnz; ++k) {
        const double d = vi[k] - vj[k];
        idm += vw[k] * vp[k] / (1.0 + d * d);
      }
      acc.idm = idm;
    }
    if (needs.cell_entropy) {
      double entropy = 0.0;
      H4D_PRAGMA_SIMD_REDUCE(entropy)
      for (std::size_t k = 0; k < nnz; ++k) {
        // p > 0 for every stored entry, so fast_log's preconditions hold.
        entropy -= vw[k] * vp[k] * fast_log(vp[k]);
      }
      acc.entropy = entropy;
    }
  }

  if (wc != nullptr) {
    // A dense pass scans all Ng^2 cells; the entry loop scans only the
    // entries. Both compute the same non-zero cells.
    wc->feature_cells_scanned += repr == Representation::Full
                                     ? static_cast<std::int64_t>(ng) * ng
                                     : static_cast<std::int64_t>(nnz);
    wc->feature_cell_ops += cells_computed * (needs.cell_terms > 0 ? needs.cell_terms : 1);
  }
  return detail::finalize(acc, set, entries, total, wc);
}

}  // namespace h4d::haralick
