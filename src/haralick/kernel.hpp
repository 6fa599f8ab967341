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
//   * the feature sweep is the only feature pass in the library. It reduces
//     the row-major upper-triangle entry list (the SparseGlcm order) to the
//     cell terms, px, p_{x+y} and p_{x-y}. Two producers feed it: the tile
//     gather (features_fused, the HMP filter) and a received matrix
//     (features_of, the HPC filter and the split planner).
//
// Equivalence contract (property-tested in test_kernel.cpp against
// tests/oracle): accumulate + fold is bit-identical to the reference
// construction, and the Strict sweep is bit-identical to the reference
// sparse feature pass over SparseGlcm::from_dense — same entries, same
// floating-point accumulation order.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "haralick/features.hpp"
#include "haralick/glcm.hpp"
#include "haralick/glcm_sparse.hpp"

namespace h4d::haralick {

namespace detail {
struct Gathered;
}  // namespace detail

/// How the feature sweep evaluates its floating-point terms.
///
/// Strict replays the reference sparse pass entry-for-entry: one interleaved
/// scalar loop, libm log, true divisions — bit-identical to the oracle's
/// sparse feature pass over the same entry list. Fast copies the entries
/// into SoA term arrays and reduces them with SIMD-annotated loops (see
/// simd.hpp) using the fast_log polynomial for the entropy terms; results
/// agree with Strict to ~1e-10 relative (property-tested). The engine runs
/// Fast by default; Strict remains for verification and for callers that
/// need exact reference bits.
enum class SweepMode { Strict, Fast };

/// How co-occurrence matrices travel between construction and feature
/// evaluation (paper Sec. 4.4.1): all Ng^2 dense counts, or the non-zero
/// upper-triangle entries. It picks the HCC->HPC wire format and how the
/// sweep credits WorkCounters (the cost model); the features are the same.
enum class Representation { Full, Sparse };

/// Reusable per-thread working state of the kernel: the two-bank uint16
/// co-occurrence tile, its 32-bit spill table, and the feature sweep's
/// marginal buffers. One instance per worker thread / filter copy; reused
/// across ROIs and chunks so the hot loop never allocates.
class KernelScratch {
 public:
  explicit KernelScratch(int num_levels = 2);
  KernelScratch(KernelScratch&&) noexcept;
  KernelScratch& operator=(KernelScratch&&) noexcept;
  ~KernelScratch();  // out of line: detail::Gathered is incomplete here

  int num_levels() const { return ng_; }

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
  /// which the matrix's producer already paid. The tile is left untouched.
  FeatureVector features_of(const SparseGlcm& m, FeatureSet set, WorkCounters* wc,
                            SweepMode mode, Representation repr);

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
  FeatureVector sweep(int ng, std::int64_t total, std::span<const SparseEntry> entries,
                      FeatureSet set, WorkCounters* wc, SweepMode mode,
                      Representation repr);

  int ng_ = 0;
  std::int64_t total_ = 0;  // ordered pair observations (2 per pair)
  std::int64_t pairs_since_reset_ = 0;     // bound on any cell; picks the loop
  bool dual_bank_ = true;                  // two banks while they fit L1
  std::vector<std::uint16_t> tile_;        // Ng^2 bank(s), encounter order
  std::vector<std::uint32_t> spill_;       // 32-bit overflow, same layout
  std::vector<std::int32_t> spill_cells_;  // indices with non-zero spill_

  // Feature-sweep buffers (owned here so workers reuse them across chunks).
  std::unique_ptr<detail::Gathered> gathered_;
  std::vector<SparseEntry> entries_;

  // SoA cell-term arrays of the fast sweep: per entry its levels (as
  // doubles for the reductions), probability, and symmetry weight. Sized to
  // the sweep's nnz; reused across ROIs.
  std::vector<double> soa_i_, soa_j_, soa_p_, soa_w_;
};

}  // namespace h4d::haralick
