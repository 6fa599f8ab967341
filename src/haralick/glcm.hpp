// Gray-level co-occurrence matrices (full, dense representation).
//
// A GLCM is the joint histogram of gray levels (i, j) of pixel pairs at a
// given displacement. Pairs are counted in both directions, so the matrix is
// symmetric; its size is Ng x Ng regardless of distance/direction (paper
// Sec. 3). Counts are accumulated over a user-selected set of directions.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "nd/quantize.hpp"
#include "nd/region.hpp"
#include "nd/volume4.hpp"

namespace h4d::haralick {

class KernelScratch;

/// Work accounting used by the performance model: how many elementary
/// operations an accumulation or feature pass performed.
struct WorkCounters {
  std::int64_t glcm_pair_updates = 0;      ///< co-occurrence cell increments
  std::int64_t feature_cells_scanned = 0;  ///< cells visited (incl. skipped zeros)
  std::int64_t feature_cell_ops = 0;       ///< per-cell math ops in feature loops
  std::int64_t matrices_built = 0;
  std::int64_t sparse_entries_emitted = 0;
  std::int64_t sparse_compress_cells = 0;  ///< dense cells scanned to compress

  WorkCounters& operator+=(const WorkCounters& o) {
    glcm_pair_updates += o.glcm_pair_updates;
    feature_cells_scanned += o.feature_cells_scanned;
    feature_cell_ops += o.feature_cell_ops;
    matrices_built += o.matrices_built;
    sparse_entries_emitted += o.sparse_entries_emitted;
    sparse_compress_cells += o.sparse_compress_cells;
    return *this;
  }
};

/// Dense symmetric co-occurrence matrix of requantized gray levels.
class Glcm {
 public:
  explicit Glcm(int num_levels);

  int num_levels() const { return ng_; }
  /// Total number of ordered pair observations (2x the unordered pairs).
  std::int64_t total() const { return total_; }

  std::uint32_t count(int i, int j) const {
    return counts_[static_cast<std::size_t>(i) * static_cast<std::size_t>(ng_) +
                   static_cast<std::size_t>(j)];
  }
  /// Normalized joint probability p(i, j). Zero matrix yields all zeros.
  double p(int i, int j) const {
    return total_ == 0 ? 0.0 : static_cast<double>(count(i, j)) / static_cast<double>(total_);
  }

  const std::uint32_t* counts() const { return counts_.data(); }

  void clear();

  /// Replace the contents wholesale (deserialization / sparse expansion).
  /// `table` must be Ng*Ng counts; symmetry is the caller's responsibility.
  void set_raw(std::vector<std::uint32_t> table, std::int64_t total);

  /// Accumulate co-occurrences of ROI `roi` of a quantized volume view for
  /// every displacement in `dirs`. Each valid pair (p, p+d) inside the ROI
  /// increments both (g0,g1) and (g1,g0). Returns the number of cell updates
  /// (for the cost model).
  ///
  /// Runs the cache-aware kernel (kernel.hpp): upper-triangle uint16 tile,
  /// folded symmetrically at the end — bit-identical to the straightforward
  /// dual-store loop (the oracle in tests/oracle). Pass a per-thread
  /// `scratch` in hot loops to avoid re-allocating the tile per call.
  std::int64_t accumulate(Vol4View<const Level> vol, const Region4& roi,
                          const std::vector<Vec4>& dirs, KernelScratch* scratch = nullptr);

  /// Number of non-zero entries on or above the diagonal (the unique entries
  /// under symmetry) — the payload size of the sparse representation.
  std::int64_t nonzero_upper() const;

  /// Conservative row-occupancy test: false guarantees row `i` (and by
  /// symmetry column `i`) is all zeros; true means it may hold counts.
  /// Lets SparseGlcm::from_dense skip empty rows without scanning them.
  bool row_possibly_occupied(int i) const {
    return (row_bits_[static_cast<std::size_t>(i) >> 6] >>
            (static_cast<std::size_t>(i) & 63)) & 1u;
  }

  /// True when the matrix is exactly symmetric (invariant; cheap check for
  /// tests and assertions).
  bool is_symmetric() const;

 private:
  friend class KernelScratch;  // finalize_add writes counts_ + row_bits_

  void mark_row(int i) {
    row_bits_[static_cast<std::size_t>(i) >> 6] |= std::uint64_t{1}
                                                   << (static_cast<std::size_t>(i) & 63);
  }
  void rebuild_row_bits();

  int ng_;
  std::int64_t total_ = 0;
  std::vector<std::uint32_t> counts_;
  std::array<std::uint64_t, 4> row_bits_{};  // 256 bits: rows that may be non-zero
};

}  // namespace h4d::haralick
