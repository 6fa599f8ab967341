#include "haralick/kernel.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

#include "haralick/fast_log.hpp"
#include "haralick/features_detail.hpp"
#include "haralick/simd.hpp"
#include "nd/raster.hpp"

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

/// What a feature pass over a matrix of `nnz` stored entries standing for
/// `cells` non-zero cells costs, in reference units. A dense pass scans all
/// Ng^2 cells; the entry loop scans only the entries. Both compute the same
/// non-zero cells. A producer evaluating its own matrix in Sparse also pays
/// the modeled compression, which still scans Ng^2 dense cells.
void credit_sweep(WorkCounters& wc, int ng, std::int64_t nnz, std::int64_t cells,
                  FeatureSet set, Representation repr, bool compressed) {
  const std::int64_t ng2 = static_cast<std::int64_t>(ng) * ng;
  if (compressed && repr == Representation::Sparse) {
    wc.sparse_entries_emitted += nnz;
    wc.sparse_compress_cells += ng2;
  }
  wc.feature_cells_scanned += repr == Representation::Full ? ng2 : nnz;
  const int terms = detail::analyse(set).cell_terms;
  wc.feature_cell_ops += cells * (terms > 0 ? terms : 1);
}

/// Accumulates the exact integer sums of the moment path (docs/KERNEL.md
/// §5) into `m`, one upper cell at a time. Both producers of a matrix feed
/// it: the column path bin by bin, the others entry by entry. Exact int64
/// sums do not depend on the order they are added in, so both give the
/// same bits.
class MomentAccumulator {
 public:
  explicit MomentAccumulator(detail::MomentSums& m) : m_(m) {}

  /// Cell (i, j), i <= j, holding u pairs (u may be 0); `mult` is the
  /// dense matrix's multiplier, 2 on the diagonal and 1 off it. With s = i + j
  /// and k = j - i, its pairs weigh i + j = s, i^2 + j^2 = (s^2 + k^2) / 2
  /// and 2ij = (s^2 - k^2) / 2 in the sums over the symmetric matrix.
  void add(std::int64_t u, std::int64_t i, std::int64_t j, std::int64_t mult) {
    const std::int64_t s = i + j;
    const std::int64_t k = j - i;
    sum_u_ += u;
    sum_s_ += u * s;
    sum_ss_ += u * s * s;
    sum_kk_ += u * k * k;
    // Off-diagonal cells hold u twice; a diagonal cell holds 2u once.
    sum_sq_ += u * u * mult;
    m_.diff[static_cast<std::size_t>(k)] += 2 * u;  // both mirror cells
    const std::int64_t nonzero = u != 0;
    nnz_ += nonzero;
    cells_ += nonzero * (3 - mult);
  }

  /// Completes `m` for a matrix of `ng` levels.
  void finish(int ng) {
    m_.ng = ng;
    m_.n = 2 * sum_u_;
    m_.sum_sq = 2 * sum_sq_;
    m_.sum_i = sum_s_;
    m_.sum_ii = (sum_ss_ + sum_kk_) / 2;
    m_.sum_ij = (sum_ss_ - sum_kk_) / 2;
    m_.nnz = nnz_;
    m_.cells = cells_;
  }

 private:
  detail::MomentSums& m_;
  // Kept apart from `m_` so they stay in registers: a store to m_.diff[k]
  // could otherwise alias them.
  std::int64_t sum_u_ = 0, sum_s_ = 0, sum_ss_ = 0, sum_kk_ = 0, sum_sq_ = 0, nnz_ = 0,
               cells_ = 0;
};

/// The moment sums of an entry list. A diagonal entry carries the dense
/// value, twice the pair count.
detail::MomentSums moment_sums_of(int ng, std::span<const SparseEntry> entries) {
  detail::MomentSums m;
  MomentAccumulator acc(m);
  for (const SparseEntry& e : entries) {
    const int diag = e.i == e.j;
    acc.add(e.count >> diag, e.i, e.j, 1 + diag);
  }
  acc.finish(ng);
  return m;
}

/// The bin of the level pair (p[0], p[doff]).
inline std::uint16_t pair_bin(const std::uint16_t* bin_of, const Level* p, std::int64_t doff) {
  return bin_of[(static_cast<std::size_t>(p[0]) << 6) | p[doff]];
}

/// Adds the pairs of one anchor row, starting at `pa`, to `n` column
/// histograms `nb` bins apart.
inline void add_row(std::uint16_t* h, const Level* pa, std::int64_t doff, std::int64_t n,
                    std::int64_t sx, std::size_t nb, const std::uint16_t* bin_of) {
  for (; n > 0; --n, pa += sx, h += nb) ++h[pair_bin(bin_of, pa, doff)];
}

/// Moves `n` column histograms from the pairs of anchor row `out` to those
/// of anchor row `in`.
inline void move_row(std::uint16_t* h, const Level* out, const Level* in, std::int64_t doff,
                     std::int64_t n, std::int64_t sx, std::size_t nb,
                     const std::uint16_t* bin_of) {
  for (; n > 0; --n, out += sx, in += sx, h += nb) {
    --h[pair_bin(bin_of, out, doff)];
    ++h[pair_bin(bin_of, in, doff)];
  }
}

/// dst = a + b over `n` bins, mod 2^16.
inline void add_bins(std::uint16_t* dst, const std::uint16_t* a, const std::uint16_t* b,
                     std::size_t n) {
  H4D_PRAGMA_SIMD
  for (std::size_t i = 0; i < n; ++i) dst[i] = static_cast<std::uint16_t>(a[i] + b[i]);
}

}  // namespace

/// One direction of the column path, oriented so its x step is 0 or +1: a
/// pair is unordered, so d and -d put the same pairs in the same bins.
struct KernelScratch::ColumnPlan {
  Vec4 lo;                // inclusive anchor lower bound, ROI-relative
  Vec4 hi;                // exclusive anchor upper bound, ROI-relative
  std::int64_t doff = 0;  // element offset anchor -> partner
  std::int64_t dy = 0;    // y step: -1, 0 or 1
  bool step = false;      // x step 1: pairs between columns x and x+1
};

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
  const FeatureVector out = evaluate(ng_, total, nullptr, entries_, set, wc, mode, repr,
                                     /*compressed=*/true);
  if (sparse_out != nullptr) *sparse_out = SparseGlcm(ng_, total, entries_);
  return out;
}

void KernelScratch::prepare_bins(int num_levels, int lo, int hi) {
  if (bins_ng_ == num_levels && bins_lo_ == lo && bins_hi_ == hi) return;
  // Bins for the level pairs lo <= i <= j <= hi, in SparseGlcm::from_dense
  // (row-major) order; no pair outside that range can occur.
  const auto w = static_cast<std::size_t>(hi - lo + 1);
  const std::size_t bins = w * (w + 1) / 2;
  bin_stride_ = (bins + 15) & ~std::size_t{15};
  bin_of_.assign(std::size_t{64} * 64, 0);
  bin_cell_.assign(bin_stride_, SparseEntry{});
  std::size_t b = 0;
  for (int i = lo; i <= hi; ++i) {
    for (int j = i; j <= hi; ++j, ++b) {
      const auto ui = static_cast<std::size_t>(i);
      const auto uj = static_cast<std::size_t>(j);
      bin_of_[ui * 64 + uj] = static_cast<std::uint16_t>(b);
      bin_of_[uj * 64 + ui] = static_cast<std::uint16_t>(b);
      // The dense matrix holds the pair count off-diagonal and twice it on
      // the diagonal.
      bin_cell_[b] = {static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(j),
                      i == j ? 2u : 1u};
    }
  }
  window_.assign(2 * bin_stride_, 0);
  bins_ng_ = num_levels;
  bins_lo_ = lo;
  bins_hi_ = hi;
}

void KernelScratch::prepare_columns(std::int64_t columns, int lo, int hi) {
  prepare_bins(ng_, lo, hi);
  entries_.resize(bin_stride_);
  const std::size_t need = 2 * static_cast<std::size_t>(columns) * bin_stride_;
  if (columns_.size() < need) columns_.resize(need);
}

detail::MomentSums KernelScratch::moment_sums(const std::uint16_t* h) const {
  // Most bins of a window are zero, so whole 4-bin words of zeros are
  // skipped, as in gather_bins.
  detail::MomentSums m;
  MomentAccumulator acc(m);
  for (std::size_t b = 0; b < bin_stride_; b += 4) {
    std::uint64_t word;
    std::memcpy(&word, h + b, sizeof word);
    if (word == 0) continue;
    for (std::size_t q = b; q < b + 4; ++q) {
      // The bin's cell, its count holding the multiplier; padding bins
      // hold u = 0.
      const SparseEntry& e = bin_cell_[q];
      acc.add(h[q], e.i, e.j, e.count);
    }
  }
  acc.finish(bins_ng_);
  return m;
}

FeatureVector KernelScratch::evaluate(int ng, std::int64_t total, const std::uint16_t* bins,
                                      std::span<const SparseEntry> entries, FeatureSet set,
                                      WorkCounters* wc, SweepMode mode, Representation repr,
                                      bool compressed) {
  // The rule depends only on what every producer of a matrix knows, so HMP,
  // HPC and the tile path take the same branch for the same matrix.
  const std::uint32_t moment_mask = set.mask() & detail::kMomentFeatures.mask();
  const bool moments =
      mode == SweepMode::Fast && ng <= 64 && total / 2 <= 65535 && moment_mask != 0;
  const bool swept = !moments || set.mask() != moment_mask;
  if (swept && bins != nullptr) entries = {entries_.data(), gather_bins(bins)};
  FeatureVector fv;
  // The sweep credits WorkCounters whenever it runs, even for the features
  // the moments then overwrite: the counters stay in reference units.
  if (swept) fv = sweep(ng, total, entries, set, wc, mode, repr, compressed);
  if (!moments) return fv;

  const detail::MomentSums m = bins != nullptr ? moment_sums(bins) : moment_sums_of(ng, entries);
  if (!swept && wc != nullptr) {
    credit_sweep(*wc, ng, m.nnz, m.cells, set, repr, compressed);
  }
  detail::finalize_moments(m, set, fv);
  return fv;
}

std::size_t KernelScratch::gather_bins(const std::uint16_t* h) {
  // The non-zero bins in bin order, which is SparseGlcm::from_dense order.
  // Whole 4-bin words of zeros are skipped; inside a word every bin is
  // written and only the non-zero ones advance the cursor, so the loop does
  // not branch on each bin.
  SparseEntry* const out = entries_.data();
  std::size_t n = 0;
  for (std::size_t b = 0; b < bin_stride_; b += 4) {
    std::uint64_t word;
    std::memcpy(&word, h + b, sizeof word);
    if (word == 0) continue;
    for (std::size_t q = b; q < b + 4; ++q) {
      SparseEntry e = bin_cell_[q];
      e.count *= h[q];
      out[n] = e;
      n += h[q] != 0;
    }
  }
  return n;
}

void KernelScratch::features_of_rois(Vol4View<const Level> vol, const Region4& origins,
                                     const Vec4& roi_dims, const std::vector<Vec4>& dirs,
                                     FeatureSet set, WorkCounters* wc, SweepMode mode,
                                     Representation repr, const RoiSink& sink) {
  rois_of_chunk(vol, origins, roi_dims, dirs, wc,
                [&](std::int64_t k, const std::uint16_t* bins,
                    std::span<const SparseEntry> entries, std::int64_t total) {
                  sink(k, evaluate(ng_, total, bins, entries, set, wc, mode, repr,
                                   /*compressed=*/true));
                });
}

void KernelScratch::entries_of_rois(Vol4View<const Level> vol, const Region4& origins,
                                    const Vec4& roi_dims, const std::vector<Vec4>& dirs,
                                    WorkCounters* wc, const EntrySink& sink) {
  rois_of_chunk(vol, origins, roi_dims, dirs, wc,
                [&](std::int64_t k, const std::uint16_t* bins,
                    std::span<const SparseEntry> entries, std::int64_t total) {
                  if (bins != nullptr) entries = {entries_.data(), gather_bins(bins)};
                  sink(k, entries, total);
                });
}

void KernelScratch::rois_of_chunk(Vol4View<const Level> vol, const Region4& origins,
                                  const Vec4& roi_dims, const std::vector<Vec4>& dirs,
                                  WorkCounters* wc, const BinSink& sink) {
  if (origins.empty()) return;
  const Region4 reach{origins.origin, origins.size + roi_dims - Vec4{1, 1, 1, 1}};
  if (!Region4::whole(vol.dims()).contains(reach)) {
    throw std::invalid_argument("KernelScratch::entries_of_rois: rois of origins " +
                                origins.str() + " leave volume " + vol.dims().str());
  }

  // The column path needs unit steps (a pair spans at most two columns),
  // levels that fit the 64-wide bin table, and counts that cannot wrap.
  std::vector<ColumnPlan> plans;
  std::int64_t pairs = 0;
  bool columns = ng_ <= 64 && roi_dims.all_positive();
  const Vec4 st = vol.strides();
  for (const Vec4& d : dirs) {
    for (int k = 0; k < kDims; ++k) columns = columns && d[k] >= -1 && d[k] <= 1;
    if (!columns) break;
    const Vec4 c = d[0] < 0 ? -d : d;
    ColumnPlan pl;
    bool any = true;
    for (int k = 0; k < kDims; ++k) {
      pl.lo[k] = c[k] < 0 ? -c[k] : 0;
      pl.hi[k] = roi_dims[k] - (c[k] > 0 ? c[k] : 0);
      if (pl.hi[k] <= pl.lo[k]) any = false;
    }
    if (!any) continue;
    pl.doff = c[0] * st[0] + c[1] * st[1] + c[2] * st[2] + c[3] * st[3];
    pl.dy = c[1];
    pl.step = c[0] == 1;
    pairs += (pl.hi - pl.lo).volume();
    plans.push_back(pl);
  }

  if (!columns || pairs > 65535) {
    std::int64_t k = 0;
    for (const Vec4& o : raster(origins)) {
      const std::int64_t updates = accumulate(vol, Region4{o, roi_dims}, dirs);
      if (wc != nullptr) {
        wc->glcm_pair_updates += updates;
        wc->matrices_built += 1;
      }
      const std::int64_t total = total_;
      gather_tile();
      sink(k++, nullptr, entries_, total);
    }
    return;
  }

  // The chunk's level range bounds every pair of every ROI, so the bins
  // cover lo <= i <= j <= hi only: a smooth region's few levels make the
  // per-ROI window (and every whole-window pass below) a fraction of the
  // Ng(Ng+1)/2 bins.
  int lo = ng_ - 1;
  int hi = 0;
  for (std::int64_t t = reach.origin[3]; t < reach.end()[3]; ++t) {
    for (std::int64_t z = reach.origin[2]; z < reach.end()[2]; ++z) {
      for (std::int64_t y = reach.origin[1]; y < reach.end()[1]; ++y) {
        const Level* p = &vol.at(reach.origin[0], y, z, t);
        for (std::int64_t x = 0; x < reach.size[0]; ++x, p += vol.strides()[0]) {
          lo = std::min<int>(lo, *p);
          hi = std::max<int>(hi, *p);
        }
      }
    }
  }
  const std::int64_t ncols = reach.size[0];
  prepare_columns(ncols, lo, hi);
  // The row histograms win while they stay cache-sized; past that their
  // extra whole-vector passes cost more than the updates they save.
  const auto ny = static_cast<std::size_t>(reach.size[1]);
  const std::size_t row_bytes =
      (2 * ny - 1) * 2 * static_cast<std::size_t>(ncols) * bin_stride_ * sizeof(std::uint16_t);
  if (row_bytes <= kRowHistogramBytes) {
    row_rois(vol, origins, roi_dims, plans, 2 * pairs, wc, sink);
  } else {
    column_rois(vol, origins, roi_dims, plans, 2 * pairs, wc, sink);
  }
}

// Column histograms over x = 0 .. width + rx - 2 (relative to the first
// owned x): C0[x] holds the pairs inside column x, C1[x] those between x and
// x + 1, both for the anchors of the current y/z/t window. uint16
// arithmetic wraps, which is exact: each bin of a ROI is at most its pair
// count, at most 65,535.
void KernelScratch::column_rois(Vol4View<const Level> vol, const Region4& origins,
                                const Vec4& roi_dims, std::span<const ColumnPlan> plans,
                                std::int64_t total, WorkCounters* wc, const BinSink& sink) {
  const std::int64_t width = origins.size[0];
  const std::int64_t ncols = width + roi_dims[0] - 1;
  const std::size_t nb = bin_stride_;
  std::uint16_t* const c0 = columns_.data();
  std::uint16_t* const c1 = c0 + static_cast<std::size_t>(ncols) * nb;
  const std::uint16_t* const bin_of = bin_of_.data();
  const std::int64_t sx = vol.strides()[0];
  const std::int64_t x0 = origins.origin[0];
  // The column histograms `pl` adds to, and how many columns it spans.
  const auto hist = [&](const ColumnPlan& pl) { return pl.step ? c1 : c0; };
  const auto span = [&](const ColumnPlan& pl) { return pl.step ? ncols - 1 : ncols; };

  const Vec4 o = origins.origin;
  std::int64_t k = 0;
  for (std::int64_t ot = o[3]; ot < o[3] + origins.size[3]; ++ot) {
    for (std::int64_t oz = o[2]; oz < o[2] + origins.size[2]; ++oz) {
      // Build the column histograms of the first owned y, one anchor row
      // of one direction at a time across every column.
      std::fill(c0, c0 + 2 * static_cast<std::size_t>(ncols) * nb, std::uint16_t{0});
      for (const ColumnPlan& pl : plans) {
        for (std::int64_t t = ot + pl.lo[3]; t < ot + pl.hi[3]; ++t) {
          for (std::int64_t z = oz + pl.lo[2]; z < oz + pl.hi[2]; ++z) {
            for (std::int64_t y = o[1] + pl.lo[1]; y < o[1] + pl.hi[1]; ++y) {
              add_row(hist(pl), &vol.at(x0, y, z, t), pl.doff, span(pl), sx, nb, bin_of);
            }
          }
        }
      }
      for (std::int64_t oy = o[1]; oy < o[1] + origins.size[1]; ++oy) {
        if (oy > o[1]) {
          // Slide in y: per direction, the window's first anchor row leaves
          // and the row after its last enters.
          for (const ColumnPlan& pl : plans) {
            for (std::int64_t t = ot + pl.lo[3]; t < ot + pl.hi[3]; ++t) {
              for (std::int64_t z = oz + pl.lo[2]; z < oz + pl.hi[2]; ++z) {
                move_row(hist(pl), &vol.at(x0, oy - 1 + pl.lo[1], z, t),
                         &vol.at(x0, oy - 1 + pl.hi[1], z, t), pl.doff, span(pl), sx, nb,
                         bin_of);
              }
            }
          }
        }
        slide_x(c0, c1, width, roi_dims[0], total, k, wc, sink);
      }
    }
  }
}

// Row histograms over the chunk's ny = owned y + ry - 1 rows of reach (y
// relative to the first owned y), each a C0/C1 column-histogram set like
// column_rois' over the anchors of the current z/t window: P[r] holds the
// pairs inside row r, L[r] those between rows r and r + 1. The y window
// of the ROIs at oy is W = sum of P[oy .. oy + ry - 1] and
// L[oy .. oy + ry - 2], formed by whole-vector adds; the rows slide in z by
// one anchor plane per direction, so no (z, t) row of origins rebuilds
// them and no z window repeats a y slide. The loop stays t, z, y, x, so the
// ROIs leave in raster order, which HCC's packets need.
void KernelScratch::row_rois(Vol4View<const Level> vol, const Region4& origins,
                             const Vec4& roi_dims, std::span<const ColumnPlan> plans,
                             std::int64_t total, WorkCounters* wc, const BinSink& sink) {
  const std::int64_t width = origins.size[0];
  const std::int64_t ncols = width + roi_dims[0] - 1;
  const std::int64_t ry = roi_dims[1];
  const std::int64_t ny = origins.size[1] + ry - 1;
  const std::size_t nb = bin_stride_;
  const std::size_t half = static_cast<std::size_t>(ncols) * nb;  // C0 or C1 of one row
  const std::size_t row = 2 * half;
  const std::size_t rows = (2 * static_cast<std::size_t>(ny) - 1) * row;
  if (rows_.size() < rows) rows_.resize(rows);
  std::uint16_t* const p = rows_.data();
  std::uint16_t* const l = p + static_cast<std::size_t>(ny) * row;
  std::uint16_t* const w = columns_.data();
  const std::uint16_t* const bin_of = bin_of_.data();
  const std::int64_t sx = vol.strides()[0];
  const std::int64_t x0 = origins.origin[0];
  // The histograms of `pl`'s first anchor row; the next row's are `row`
  // further on. An anchor at r with dy = -1 pairs rows r - 1 and r, so its
  // first anchor row (lo[1] = 1) goes to L[0].
  const auto hist = [&](const ColumnPlan& pl) {
    return (pl.dy == 0 ? p : l) + (pl.step ? half : 0);
  };
  const auto span = [&](const ColumnPlan& pl) { return pl.step ? ncols - 1 : ncols; };
  // Every anchor row of `pl` in the reach: ny - ry + 1 rows with dy = 0,
  // ny - 1 with dy = +-1.
  const auto anchor_rows = [&](const ColumnPlan& pl) { return ny - ry + pl.hi[1] - pl.lo[1]; };

  const Vec4 o = origins.origin;
  std::int64_t k = 0;
  for (std::int64_t ot = o[3]; ot < o[3] + origins.size[3]; ++ot) {
    std::fill(p, p + rows, std::uint16_t{0});
    for (std::int64_t oz = o[2]; oz < o[2] + origins.size[2]; ++oz) {
      for (const ColumnPlan& pl : plans) {
        for (std::int64_t t = ot + pl.lo[3]; t < ot + pl.hi[3]; ++t) {
          if (oz == o[2]) {
            // Build: every anchor plane of the first owned z.
            for (std::int64_t z = oz + pl.lo[2]; z < oz + pl.hi[2]; ++z) {
              std::uint16_t* h = hist(pl);
              for (std::int64_t r = 0; r < anchor_rows(pl); ++r, h += row) {
                add_row(h, &vol.at(x0, o[1] + pl.lo[1] + r, z, t), pl.doff, span(pl), sx, nb,
                        bin_of);
              }
            }
          } else {
            // Slide in z: the window's first anchor plane leaves and the
            // plane after its last enters, in every row.
            std::uint16_t* h = hist(pl);
            for (std::int64_t r = 0; r < anchor_rows(pl); ++r, h += row) {
              const std::int64_t y = o[1] + pl.lo[1] + r;
              move_row(h, &vol.at(x0, y, oz - 1 + pl.lo[2], t),
                       &vol.at(x0, y, oz - 1 + pl.hi[2], t), pl.doff, span(pl), sx, nb, bin_of);
            }
          }
        }
      }
      // The y window of the first owned y.
      std::copy(p, p + row, w);
      for (std::int64_t r = 1; r < ry; ++r) add_bins(w, w, p + r * row, row);
      for (std::int64_t r = 0; r + 1 < ry; ++r) add_bins(w, w, l + r * row, row);
      for (std::int64_t j = 0; j < origins.size[1]; ++j) {
        if (j > 0) {
          // Slide in y: rows j - 1 leave the window and row j + ry - 1
          // enters; with ry = 1 no pair spans two rows.
          const std::uint16_t* const pin = p + static_cast<std::size_t>(j + ry - 1) * row;
          const std::uint16_t* const pout = p + static_cast<std::size_t>(j - 1) * row;
          if (ry > 1) {
            const std::uint16_t* const lin = l + static_cast<std::size_t>(j + ry - 2) * row;
            const std::uint16_t* const lout = l + static_cast<std::size_t>(j - 1) * row;
            H4D_PRAGMA_SIMD
            for (std::size_t q = 0; q < row; ++q) {
              w[q] = static_cast<std::uint16_t>(w[q] + pin[q] + lin[q] - pout[q] - lout[q]);
            }
          } else {
            H4D_PRAGMA_SIMD
            for (std::size_t q = 0; q < row; ++q) {
              w[q] = static_cast<std::uint16_t>(w[q] + pin[q] - pout[q]);
            }
          }
        }
        slide_x(w, w + half, width, roi_dims[0], total, k, wc, sink);
      }
    }
  }
}

// A ROI at ox is S + C0[ox + rx - 1] with S = sum over x in
// [ox, ox + rx - 2] of C0[x] + C1[x]; S slides with
// S += C0[a] + C1[a] - C0[b] - C1[b].
void KernelScratch::slide_x(const std::uint16_t* c0, const std::uint16_t* c1,
                            std::int64_t width, std::int64_t rx, std::int64_t total,
                            std::int64_t& k, WorkCounters* wc, const BinSink& sink) {
  const std::size_t nb = bin_stride_;
  std::uint16_t* const run = window_.data();
  std::uint16_t* const roi = run + nb;
  std::fill(run, run + nb, std::uint16_t{0});
  for (std::int64_t x = 0; x + 1 < rx; ++x) {
    add_bins(run, run, c0 + static_cast<std::size_t>(x) * nb, nb);
    add_bins(run, run, c1 + static_cast<std::size_t>(x) * nb, nb);
  }
  for (std::int64_t i = 0; i < width; ++i) {
    const std::size_t enter = static_cast<std::size_t>(i + rx - 1) * nb;
    add_bins(roi, run, c0 + enter, nb);
    if (wc != nullptr) {
      wc->glcm_pair_updates += total;  // reference units: 2 stores/pair
      wc->matrices_built += 1;
    }
    sink(k++, roi, {}, total);
    if (i + 1 == width) break;
    const std::size_t leave = static_cast<std::size_t>(i) * nb;
    const std::uint16_t* const a = c0 + enter;
    const std::uint16_t* const b = c1 + enter;
    const std::uint16_t* const c = c0 + leave;
    const std::uint16_t* const d = c1 + leave;
    H4D_PRAGMA_SIMD
    for (std::size_t q = 0; q < nb; ++q) {
      run[q] = static_cast<std::uint16_t>(run[q] + a[q] + b[q] - c[q] - d[q]);
    }
  }
}

FeatureVector KernelScratch::features_of(const SparseGlcm& m, FeatureSet set, WorkCounters* wc,
                                         SweepMode mode, Representation repr) {
  return evaluate(m.num_levels(), m.total(), nullptr, m.entries(), set, wc, mode, repr,
                  /*compressed=*/false);
}

FeatureVector KernelScratch::sweep(int ng, std::int64_t total,
                                   std::span<const SparseEntry> entries, FeatureSet set,
                                   WorkCounters* wc, SweepMode mode, Representation repr,
                                   bool compressed) {
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
    credit_sweep(*wc, ng, static_cast<std::int64_t>(nnz), cells_computed, set, repr,
                 compressed);
  }
  return detail::finalize(acc, set, entries, total, wc);
}

}  // namespace h4d::haralick
