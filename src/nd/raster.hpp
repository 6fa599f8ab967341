// Raster-scan iteration over 4D index ranges (paper Sec. 3, Fig. 1-2).
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>

#include "nd/region.hpp"

namespace h4d {

/// Forward iterator enumerating every point of a Region4 in raster order
/// (x fastest, then y, z, t) — the scan order of the sequential algorithm
/// in the paper's Figure 2.
class RasterIterator {
 public:
  using iterator_category = std::forward_iterator_tag;
  using value_type = Vec4;
  using difference_type = std::int64_t;
  using pointer = const Vec4*;
  using reference = const Vec4&;

  RasterIterator() = default;
  RasterIterator(const Region4& r, std::int64_t idx) : region_(r), idx_(idx) {}

  reference operator*() const {
    cur_ = region_.origin + delinearize(idx_, region_.size);
    return cur_;
  }
  pointer operator->() const { return &operator*(); }

  RasterIterator& operator++() {
    ++idx_;
    return *this;
  }
  RasterIterator operator++(int) {
    RasterIterator t = *this;
    ++idx_;
    return t;
  }

  friend bool operator==(const RasterIterator& a, const RasterIterator& b) {
    return a.idx_ == b.idx_;
  }

 private:
  Region4 region_{};
  std::int64_t idx_ = 0;
  mutable Vec4 cur_{};
};

/// Range adaptor: `for (Vec4 p : raster(region)) ...`
class RasterRange {
 public:
  explicit RasterRange(const Region4& r) : region_(r) {}
  RasterIterator begin() const { return {region_, 0}; }
  RasterIterator end() const { return {region_, region_.empty() ? 0 : region_.volume()}; }
  std::int64_t size() const { return region_.empty() ? 0 : region_.volume(); }

 private:
  Region4 region_;
};

inline RasterRange raster(const Region4& r) { return RasterRange(r); }

/// Splits the run raster(box)[first, first + n) into boxes, in run order,
/// and calls fn(sub, offset) for each: `sub` is a sub-box of `box` (global
/// coordinates) whose raster order is the run's points from index `offset`
/// of the run. A run gives at most 2 * kDims - 1 boxes. Requires 0 <= first
/// and first + n <= box.volume().
template <typename Fn>
void for_each_run_box(const Region4& box, std::int64_t first, std::int64_t n, Fn&& fn) {
  const std::int64_t end = first + n;
  for (std::int64_t cur = first; cur < end;) {
    const Vec4 c = delinearize(cur, box.size);
    // Grow through the dims the position starts whole slabs of that fit.
    int k = 0;
    std::int64_t slab = 1;
    while (k < kDims - 1 && c[k] == 0 && slab * box.size[k] <= end - cur) {
      slab *= box.size[k];
      ++k;
    }
    Region4 sub{box.origin + c, box.size};
    sub.size[k] = std::min(box.size[k] - c[k], (end - cur) / slab);
    for (int d = k + 1; d < kDims; ++d) sub.size[d] = 1;
    fn(static_cast<const Region4&>(sub), cur - first);
    cur += sub.size[k] * slab;
  }
}

}  // namespace h4d
