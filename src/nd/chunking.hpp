// Chunk partitioners for out-of-core processing.
//
// The texture pipeline retrieves data in 4D chunks rather than per-ROI so
// overlapped ROI data is read once (paper Sec. 4.4). Adjacent chunks overlap
// by (roi - 1) elements per dimension (paper Eqs. 1-2, generalized to 4D), so
// every ROI is fully contained in exactly one chunk, and each chunk "owns" a
// disjoint range of ROI origins.
#pragma once

#include <cstdint>
#include <vector>

#include "nd/region.hpp"
#include "nd/vec4.hpp"

namespace h4d {

/// One chunk of an overlapping partition.
struct Chunk {
  /// Sequential id, row-major over the chunk grid (x fastest).
  std::int64_t id = 0;
  /// Grid coordinate of this chunk.
  Vec4 grid;
  /// Data region the chunk covers (includes overlap with neighbours).
  Region4 region;
  /// ROI origins this chunk exclusively owns. Every ROI whose origin lies in
  /// `owned_origins` fits entirely inside `region`. Union over all chunks ==
  /// all valid ROI origins, pairwise disjoint.
  Region4 owned_origins;
};

/// Overlapping chunk partition of a volume for a given ROI size.
///
/// Throws std::invalid_argument when roi or chunk sizes are infeasible
/// (roi > dims, chunk < roi, non-positive entries).
std::vector<Chunk> partition_overlapping(const Vec4& dims, const Vec4& chunk_dims,
                                         const Vec4& roi_dims);

/// Total number of valid ROI origins for a volume/ROI combination.
std::int64_t num_roi_origins(const Vec4& dims, const Vec4& roi_dims);

/// Region of all valid ROI origins: [0, dims - roi + 1).
Region4 roi_origin_region(const Vec4& dims, const Vec4& roi_dims);

/// One 2D slice of the 4D volume (the on-disk I/O unit: one raw file).
struct SliceCoord {
  std::int64_t z = 0;
  std::int64_t t = 0;
};

/// The distinct slices the chunk sequence touches, in first-need order over
/// the raster-scan chunk ids (t-major, z-minor within each chunk). This is
/// the prefetch schedule of the tile cache: issuing reads in this order pulls
/// the next chunk's ghost-overlap slices in while the current chunk computes
/// (overlapping slices appear once, at their first use).
std::vector<SliceCoord> raster_slice_order(const std::vector<Chunk>& chunks);

}  // namespace h4d
