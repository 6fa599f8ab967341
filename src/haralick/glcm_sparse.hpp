// Sparse co-occurrence matrix representation (paper Sec. 4.4.1).
//
// At Ng=32 and typical MRI ROI sizes, GLCMs average ~1% non-zero entries.
// The sparse form stores only non-zero entries on or above the diagonal
// (symmetric duplicates dropped) together with their (i, j) position. Feature
// loops iterate the non-zeros directly, and transmitting the sparse form
// between the HCC and HPC filters slashes communication volume.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "haralick/glcm.hpp"

namespace h4d::haralick {

/// A co-occurrence matrix read off the wire breaks the format: Ng outside
/// [2, 256] (or not the receiver's), entries not strictly row-major with
/// i <= j < Ng and count > 0, an odd diagonal count (a diagonal cell counts
/// each of its pairs twice), counts that do not sum to the total, an
/// asymmetric dense table, or a buffer too short for its declared size.
class MalformedMatrixError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One stored entry: levels i <= j and the pair count at (i, j).
struct SparseEntry {
  std::uint8_t i = 0;
  std::uint8_t j = 0;
  std::uint32_t count = 0;

  friend bool operator==(const SparseEntry&, const SparseEntry&) = default;
};
static_assert(sizeof(SparseEntry) == 8, "SparseEntry must stay compact for transmission");

/// Sparse symmetric co-occurrence matrix.
class SparseGlcm {
 public:
  SparseGlcm() = default;
  SparseGlcm(int num_levels, std::int64_t total, std::vector<SparseEntry> entries)
      : ng_(num_levels), total_(total), entries_(std::move(entries)) {}

  /// Compress a dense GLCM. Emits entries in row-major (i, then j) order.
  static SparseGlcm from_dense(const Glcm& g);

  int num_levels() const { return ng_; }
  std::int64_t total() const { return total_; }
  const std::vector<SparseEntry>& entries() const { return entries_; }
  std::size_t nnz() const { return entries_.size(); }
  /// Hand the entry storage on (a reader reuses it for its next matrix).
  std::vector<SparseEntry> release_entries() && { return std::move(entries_); }

  /// Normalized probability of one stored entry (upper-triangular count).
  double p_of(const SparseEntry& e) const {
    return total_ == 0 ? 0.0 : static_cast<double>(e.count) / static_cast<double>(total_);
  }

  /// Serialized size in bytes: header (Ng, total, nnz) + packed entries.
  /// This is what travels on an HCC->HPC stream in sparse mode.
  std::size_t wire_size() const { return kWireHeader + entries_.size() * sizeof(SparseEntry); }

  /// Dense wire size for comparison: Ng^2 32-bit counts + header.
  static std::size_t dense_wire_size(int num_levels) {
    return kWireHeader +
           static_cast<std::size_t>(num_levels) * static_cast<std::size_t>(num_levels) *
               sizeof(std::uint32_t);
  }

  /// Append the serialized form to `out`; parse with deserialize(), which
  /// validates everything it reads and throws MalformedMatrixError, so the
  /// feature sweep can index by the entries' levels without checks. The
  /// result's entries reuse the capacity of `storage` (its contents are
  /// overwritten).
  void serialize(std::vector<std::byte>& out) const { serialize(ng_, total_, entries_, out); }
  /// The same bytes for an entry list held elsewhere (the packet writer).
  static void serialize(int num_levels, std::int64_t total,
                        std::span<const SparseEntry> entries, std::vector<std::byte>& out);
  static SparseGlcm deserialize(const std::byte* data, std::size_t size, std::size_t& consumed,
                                std::vector<SparseEntry> storage = {});

  /// Throws MalformedMatrixError unless `num_levels` is in [2, 256].
  static void check_num_levels(std::uint64_t num_levels);

  static constexpr std::size_t kWireHeader = sizeof(std::uint32_t) * 2 + sizeof(std::uint64_t);

 private:
  int ng_ = 0;
  std::int64_t total_ = 0;
  std::vector<SparseEntry> entries_;
};

}  // namespace h4d::haralick
