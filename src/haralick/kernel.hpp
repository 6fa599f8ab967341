// Cache-aware GLCM construction + the feature sweep (the hot path).
//
// A straightforward construction loop (the oracle in tests/oracle) pays four
// stride multiplies per voxel endpoint, two symmetric 32-bit table stores
// per pair, and several full Ng^2 rescans per ROI. This layer restructures
// that work without changing any count:
//
//   * construction walks the ROI anchor-major (each loaded anchor row feeds
//     every displacement vector) with per-row base pointers hoisted so the
//     x-inner loop is pure unit-stride pointer arithmetic;
//   * each pair costs a single increment — no symmetric double store and no
//     per-pair min/max: the (a, b) levels index a uint16_t hot tile in
//     encounter order, split across two banks (even/odd x) so consecutive
//     increments never form a store-to-load dependency chain. At the paper
//     configuration (Ng=32) both banks together are 4 KiB and L1-resident;
//     above Ng=64 a single bank halves the scattered footprint instead;
//   * the canonical upper triangle is recovered once, where the gather (or
//     the fold to a dense Glcm) reads tile(i,j) + tile(j,i) from both banks
//     per cell — min/max per cell instead of per pair — and reproduces the
//     reference matrix exactly (off-diagonal cells get the pair count,
//     diagonal cells twice it). Both zero the tile as they read, so a reset
//     never rescans;
//   * the loop is branch-free whenever the pairs accumulated since the last
//     reset cannot reach 65,536 (knowable up front from the ROI and
//     direction set); past that bound a checked variant spills any
//     saturating cell to a 32-bit side table;
//   * a whole chunk of ROIs (entries_of_rois, for the HMP and HCC filters)
//     is built from sliding column histograms instead: per x column, the
//     pairs of the current y/z/t window in upper-triangle bins, summed in x
//     by whole-vector uint16 adds, so adjacent ROIs share the work of their
//     common columns (docs/KERNEL.md §3). When its row histograms fit
//     kRowHistogramBytes, each y row keeps its own column histograms, slid
//     in z by one anchor plane and summed into every y window by
//     whole-vector adds, so ROIs share their rows in y and z too; otherwise
//     the window is rebuilt per (z, t) row of origins and slid in y by one
//     anchor row. Its entry lists go to the sweep (features_of_rois, HMP)
//     or into a matrix packet (HCC);
//   * the feature sweep reduces the row-major upper-triangle entry list (the
//     SparseGlcm order) to the cell terms, px, p_{x+y} and p_{x-y}. Three
//     producers feed it: the tile gather (features_fused), the
//     column-histogram gather (features_of_rois) and a received matrix
//     (features_of, the HPC filter and the split planner);
//   * in Fast mode the paper's four features (f1, f3, f4, f5) come instead
//     from exact integer moments of the matrix (docs/KERNEL.md §5): the
//     column path sums the uint16 bin window it already built, skipping the
//     gather and, for the paper's feature set, the sweep; the other
//     producers (a received matrix, the tile gather, the per-ROI scan) sum
//     their entry list in one pass. Both add each cell through the same
//     formula into exact int64 sums, which do not depend on the order they
//     are added in, so every producer computes the same bits.
//
// Equivalence contract (property-tested in test_kernel.cpp against
// tests/oracle): accumulate + fold is bit-identical to the reference
// construction, and the Strict sweep is bit-identical to the reference
// sparse feature pass over SparseGlcm::from_dense — same entries, same
// floating-point accumulation order. entries_of_rois emits, per ROI, the
// same entry list as accumulate + the tile gather.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "haralick/features.hpp"
#include "haralick/glcm.hpp"
#include "haralick/glcm_sparse.hpp"

namespace h4d::haralick {

namespace detail {
struct Gathered;
struct MomentSums;
}  // namespace detail

/// How the feature sweep evaluates its floating-point terms.
///
/// Strict replays the reference sparse pass entry-for-entry: one interleaved
/// scalar loop, libm log, true divisions — bit-identical to the oracle's
/// sparse feature pass over the same entry list. Fast copies the entries
/// into SoA term arrays and reduces them with SIMD-annotated loops (see
/// simd.hpp) using the fast_log polynomial for the entropy terms, and takes
/// f1, f3, f4 and f5 from exact integer moments of the matrix whenever
/// Ng <= 64 and the matrix holds at most 65,535 pairs; results agree with
/// Strict to ~1e-10 relative (property-tested). The engine runs Fast by
/// default; Strict remains for verification and for callers that need
/// exact reference bits.
enum class SweepMode { Strict, Fast };

/// How co-occurrence matrices travel between construction and feature
/// evaluation (paper Sec. 4.4.1): all Ng^2 dense counts, or the non-zero
/// upper-triangle entries. It picks the HCC->HPC wire format and how the
/// sweep credits WorkCounters (the cost model); the features are the same.
enum class Representation { Full, Sparse };

/// Reusable per-thread working state of the kernel: the two-bank uint16
/// co-occurrence tile, its 32-bit spill table, the column histograms of a
/// chunk, and the feature sweep's marginal buffers. One instance per worker thread / filter copy; reused
/// across ROIs and chunks so the hot loop never allocates.
class KernelScratch {
 public:
  explicit KernelScratch(int num_levels = 2);
  KernelScratch(KernelScratch&&) noexcept;
  KernelScratch& operator=(KernelScratch&&) noexcept;
  ~KernelScratch();  // out of line: detail::Gathered is incomplete here

  int num_levels() const { return ng_; }

  /// The most scratch the column path's row histograms may take. A chunk
  /// with ny = owned y + roi y - 1 rows of reach, `columns` = owned x +
  /// roi x - 1 and `bins` = bin stride (docs/KERNEL.md §3) needs
  /// (2 ny - 1) x 2 x columns x bins uint16; it slides them in z when that
  /// is at most this many bytes, and rebuilds each (z, t) row's column
  /// histograms otherwise. Either way the matrices are the same.
  static constexpr std::size_t kRowHistogramBytes = std::size_t{256} << 10;

  /// Re-size for a different Ng (no-op when unchanged). Invalidates any
  /// un-finalized accumulation.
  void configure(int num_levels);

  /// Accumulate the co-occurrences of `roi` over `dirs` into the tile (one
  /// increment per pair, encounter order). The tile starts empty on the
  /// first call after configure()/finalize; successive calls keep
  /// accumulating. Returns the number of logical cell updates in reference
  /// units (2 per pair), for the cost model.
  std::int64_t accumulate(Vol4View<const Level> vol, const Region4& roi,
                          const std::vector<Vec4>& dirs);

  /// Fold the accumulated tile into `g` (adds to its current contents, like
  /// Glcm::accumulate) and reset the tile for the next ROI.
  /// `g.num_levels()` must equal num_levels().
  void finalize_add(Glcm& g);

  /// Feature sweep over the accumulated tile: gather its non-zero upper
  /// cells in SparseGlcm::from_dense order, then reduce them (see
  /// SweepMode). Resets the tile for the next ROI. When `sparse_out` is
  /// non-null it receives the gathered matrix.
  ///
  /// `wc` is credited in reference units, so simulator calibration does not
  /// depend on the kernel's shortcuts. Sparse credits the entries emitted,
  /// the Ng^2 cells a modeled compression scans and one scanned cell per
  /// entry; Full credits an Ng^2 dense scan. Both credit the same cell ops.
  FeatureVector features_fused(FeatureSet set, WorkCounters* wc = nullptr,
                               SparseGlcm* sparse_out = nullptr,
                               SweepMode mode = SweepMode::Strict,
                               Representation repr = Representation::Sparse);

  /// The same reduction over a received matrix `m` (the HPC filter and the
  /// split planner). Credits `wc` like features_fused minus the compression,
  /// which the matrix's producer already paid. The tile is left untouched;
  /// the bin tables follow `m`'s Ng. `m` must be symmetric-valid: its
  /// diagonal entries hold twice a pair count (MatrixPacketReader checks).
  FeatureVector features_of(const SparseGlcm& m, FeatureSet set, WorkCounters* wc,
                            SweepMode mode, Representation repr);

  /// Receives the co-occurrence matrix of the k-th ROI origin, in raster
  /// order: its non-zero upper cells in SparseGlcm::from_dense order (the
  /// diagonal carrying the dense cell value, twice the pair count) and its
  /// total. The entries are valid only during the call.
  using EntrySink = std::function<void(std::int64_t k, std::span<const SparseEntry> entries,
                                       std::int64_t total)>;

  /// The construction entry point for a chunk: the matrix of every ROI of
  /// extent `roi_dims` whose origin lies in `origins` (coordinates local to
  /// `vol`; throws std::invalid_argument unless every such ROI fits in
  /// `vol`), handed to `sink` in raster order of the origins. Each entry
  /// list is exactly the one accumulate + the tile gather would emit; `wc`
  /// is credited the same: 2 pair updates per pair and one matrix built.
  ///
  /// Builds the ROIs from sliding column histograms when Ng <= 64, every
  /// direction component is -1, 0 or 1, and a ROI holds at most 65,535
  /// pairs; otherwise runs the per-ROI scan. The tile must be empty.
  void entries_of_rois(Vol4View<const Level> vol, const Region4& origins, const Vec4& roi_dims,
                       const std::vector<Vec4>& dirs, WorkCounters* wc,
                       const EntrySink& sink);

  /// Receives the features of the k-th ROI origin, in raster order.
  using RoiSink = std::function<void(std::int64_t k, const FeatureVector& fv)>;

  /// Features of every ROI entries_of_rois builds (the HMP filter): each
  /// matrix is evaluated as features_fused would evaluate it, so the
  /// features are bit-identical to the per-origin accumulate +
  /// features_fused loop and `wc` is credited the same: the construction,
  /// then the sweep's credits. On the column path the moment features are
  /// read straight off the ROI's bin window.
  void features_of_rois(Vol4View<const Level> vol, const Region4& origins,
                        const Vec4& roi_dims, const std::vector<Vec4>& dirs, FeatureSet set,
                        WorkCounters* wc, SweepMode mode, Representation repr,
                        const RoiSink& sink);

  /// Total pair observations currently in the tile (2 per pair, matching
  /// Glcm::total()).
  std::int64_t total() const { return total_; }

  /// True when at least one uint16 cell saturated and spilled to the 32-bit
  /// side table since the last reset (exposed for tests).
  bool spilled() const { return !spill_cells_.empty(); }

  /// Discard any accumulated counts.
  void reset();

 private:
  std::uint32_t cell(int i, int j) const;  // folded upper-cell pair count
  void clear_side_state();                 // spills + counters (tile untouched)
  void gather_tile();                      // tile -> entries_, then reset
  std::size_t gather_bins(const std::uint16_t* h);  // bins -> entries_, returns nnz
  void prepare_bins(int ng, int lo, int hi);          // bins of levels lo..hi
  void prepare_columns(std::int64_t columns, int lo, int hi);  // + column storage
  detail::MomentSums moment_sums(const std::uint16_t* h) const;  // of a bin window

  // Receives the k-th ROI of a chunk: its bin window on the column path, or
  // (with `bins` null) its gathered entry list on the per-ROI scan.
  using BinSink = std::function<void(std::int64_t k, const std::uint16_t* bins,
                                     std::span<const SparseEntry> entries,
                                     std::int64_t total)>;
  void rois_of_chunk(Vol4View<const Level> vol, const Region4& origins, const Vec4& roi_dims,
                     const std::vector<Vec4>& dirs, WorkCounters* wc, const BinSink& sink);

  // The column path's two ways to form each y window's column histograms
  // (docs/KERNEL.md §3), after rois_of_chunk prepared the bins: rebuilt per
  // (z, t) row of origins and slid in y, or summed from row histograms
  // slid in z. Both hand every row of ROIs to slide_x, in raster order.
  struct ColumnPlan;
  void column_rois(Vol4View<const Level> vol, const Region4& origins, const Vec4& roi_dims,
                   std::span<const ColumnPlan> plans, std::int64_t total, WorkCounters* wc,
                   const BinSink& sink);
  void row_rois(Vol4View<const Level> vol, const Region4& origins, const Vec4& roi_dims,
                std::span<const ColumnPlan> plans, std::int64_t total, WorkCounters* wc,
                const BinSink& sink);
  // The ROIs of one row of origins, from its y window's C0 and C1 column
  // histograms: sums rx columns per ROI and slides that sum in x.
  void slide_x(const std::uint16_t* c0, const std::uint16_t* c1, std::int64_t width,
               std::int64_t rx, std::int64_t total, std::int64_t& k, WorkCounters* wc,
               const BinSink& sink);

  // The features of one matrix, given as its bin window `bins` or (with
  // `bins` null) its entry list: the moment path where it applies, the
  // sweep for the rest. `compressed` adds the Sparse compression credits
  // (a producer's own matrix, not a received one).
  FeatureVector evaluate(int ng, std::int64_t total, const std::uint16_t* bins,
                         std::span<const SparseEntry> entries, FeatureSet set,
                         WorkCounters* wc, SweepMode mode, Representation repr,
                         bool compressed);
  FeatureVector sweep(int ng, std::int64_t total, std::span<const SparseEntry> entries,
                      FeatureSet set, WorkCounters* wc, SweepMode mode,
                      Representation repr, bool compressed);

  int ng_ = 0;
  std::int64_t total_ = 0;  // ordered pair observations (2 per pair)
  std::int64_t pairs_since_reset_ = 0;     // bound on any cell; picks the loop
  bool dual_bank_ = true;                  // two banks while they fit L1
  std::vector<std::uint16_t> tile_;        // Ng^2 bank(s), encounter order
  std::vector<std::uint32_t> spill_;       // 32-bit overflow, same layout
  std::vector<std::int32_t> spill_cells_;  // indices with non-zero spill_

  // Column-histogram state of entries_of_rois, sized on first use. A bin
  // is an unordered level pair (i, j) with lo <= i <= j <= hi, the chunk's
  // level range; bins follow SparseGlcm::from_dense order.
  int bins_ng_ = 0;                      // Ng the bin tables were built for
  int bins_lo_ = 0;                      // their level range
  int bins_hi_ = 0;
  std::size_t bin_stride_ = 0;           // w(w+1)/2 bins (w = hi-lo+1), padded to 16
  std::vector<std::uint16_t> bin_of_;    // 64 x 64: (a, b) -> bin
  std::vector<SparseEntry> bin_cell_;    // bin -> (i, j, dense multiplier)
  std::vector<std::uint16_t> columns_;   // [x step][column][bin]: the y window
  std::vector<std::uint16_t> rows_;      // row path: P then L rows, each like columns_
  std::vector<std::uint16_t> window_;    // running sum, one ROI

  // Feature-sweep buffers (owned here so workers reuse them across chunks).
  std::unique_ptr<detail::Gathered> gathered_;
  std::vector<SparseEntry> entries_;

  // SoA cell-term arrays of the fast sweep: per entry its levels (as
  // doubles for the reductions), probability, and symmetry weight. Sized to
  // the sweep's nnz; reused across ROIs.
  std::vector<double> soa_i_, soa_j_, soa_p_, soa_w_;
};

}  // namespace h4d::haralick
