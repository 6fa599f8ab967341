#include "nd/chunking.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace h4d {

Region4 roi_origin_region(const Vec4& dims, const Vec4& roi_dims) {
  Region4 r;
  r.origin = Vec4{};
  r.size = dims - roi_dims + Vec4{1, 1, 1, 1};
  return r;
}

std::int64_t num_roi_origins(const Vec4& dims, const Vec4& roi_dims) {
  const Region4 r = roi_origin_region(dims, roi_dims);
  return r.empty() ? 0 : r.volume();
}

std::vector<Chunk> partition_overlapping(const Vec4& dims, const Vec4& chunk_dims,
                                         const Vec4& roi_dims) {
  if (!dims.all_positive() || !chunk_dims.all_positive() || !roi_dims.all_positive()) {
    throw std::invalid_argument("partition_overlapping: all extents must be positive");
  }
  if (!roi_dims.all_le(dims)) {
    throw std::invalid_argument("partition_overlapping: roi " + roi_dims.str() +
                                " exceeds volume " + dims.str());
  }
  if (!roi_dims.all_le(chunk_dims)) {
    throw std::invalid_argument("partition_overlapping: chunk " + chunk_dims.str() +
                                " smaller than roi " + roi_dims.str());
  }

  // Per-dim stride between chunk origins; each chunk owns `step` ROI origins.
  Vec4 step;
  Vec4 grid;  // number of chunks per dim
  const Region4 origins = roi_origin_region(dims, roi_dims);
  for (int d = 0; d < kDims; ++d) {
    step[d] = chunk_dims[d] - roi_dims[d] + 1;
    grid[d] = (origins.size[d] + step[d] - 1) / step[d];
  }

  std::vector<Chunk> chunks;
  chunks.reserve(static_cast<std::size_t>(grid.volume()));
  std::int64_t id = 0;
  Vec4 g;
  for (g[3] = 0; g[3] < grid[3]; ++g[3]) {
    for (g[2] = 0; g[2] < grid[2]; ++g[2]) {
      for (g[1] = 0; g[1] < grid[1]; ++g[1]) {
        for (g[0] = 0; g[0] < grid[0]; ++g[0]) {
          Chunk c;
          c.id = id++;
          c.grid = g;
          for (int d = 0; d < kDims; ++d) {
            const std::int64_t o = g[d] * step[d];
            c.owned_origins.origin[d] = o;
            c.owned_origins.size[d] = std::min(step[d], origins.size[d] - o);
            c.region.origin[d] = o;
            // Must cover the last owned origin's full ROI extent.
            c.region.size[d] =
                std::min(chunk_dims[d], dims[d] - o);
            // Shrink to exactly what the owned ROIs need (last chunk in a dim
            // may own fewer origins than `step`).
            const std::int64_t needed = c.owned_origins.size[d] - 1 + roi_dims[d];
            if (c.region.size[d] > needed) c.region.size[d] = needed;
          }
          chunks.push_back(c);
        }
      }
    }
  }
  return chunks;
}

std::vector<SliceCoord> raster_slice_order(const std::vector<Chunk>& chunks) {
  std::vector<SliceCoord> order;
  std::vector<std::pair<std::int64_t, std::int64_t>> seen;  // sorted (t, z)
  for (const Chunk& c : chunks) {
    for (std::int64_t t = c.region.origin[3]; t < c.region.origin[3] + c.region.size[3];
         ++t) {
      for (std::int64_t z = c.region.origin[2]; z < c.region.origin[2] + c.region.size[2];
           ++z) {
        const std::pair<std::int64_t, std::int64_t> key{t, z};
        const auto it = std::lower_bound(seen.begin(), seen.end(), key);
        if (it != seen.end() && *it == key) continue;
        seen.insert(it, key);
        order.push_back({z, t});
      }
    }
  }
  return order;
}

}  // namespace h4d
