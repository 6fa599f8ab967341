#include "haralick/glcm.hpp"

#include <algorithm>
#include <stdexcept>

#include "haralick/kernel.hpp"

namespace h4d::haralick {

Glcm::Glcm(int num_levels) : ng_(num_levels) {
  if (num_levels < 2 || num_levels > 256) {
    throw std::invalid_argument("Glcm: Ng must be in [2, 256]");
  }
  counts_.assign(static_cast<std::size_t>(ng_) * static_cast<std::size_t>(ng_), 0);
}

void Glcm::clear() {
  std::fill(counts_.begin(), counts_.end(), 0u);
  total_ = 0;
  row_bits_.fill(0);
}

void Glcm::rebuild_row_bits() {
  row_bits_.fill(0);
  for (int i = 0; i < ng_; ++i) {
    const std::uint32_t* row = counts_.data() + static_cast<std::size_t>(i) * ng_;
    for (int j = 0; j < ng_; ++j) {
      if (row[j] != 0) {
        mark_row(i);
        break;
      }
    }
  }
}

void Glcm::set_raw(std::vector<std::uint32_t> table, std::int64_t total) {
  if (table.size() != static_cast<std::size_t>(ng_) * static_cast<std::size_t>(ng_)) {
    throw std::invalid_argument("Glcm::set_raw: table size mismatch");
  }
  counts_ = std::move(table);
  total_ = total;
  rebuild_row_bits();
}

std::int64_t Glcm::accumulate(Vol4View<const Level> vol, const Region4& roi,
                              const std::vector<Vec4>& dirs, KernelScratch* scratch) {
  if (scratch != nullptr) {
    scratch->configure(ng_);
    const std::int64_t updates = scratch->accumulate(vol, roi, dirs);
    scratch->finalize_add(*this);
    return updates;
  }
  KernelScratch local(ng_);
  const std::int64_t updates = local.accumulate(vol, roi, dirs);
  local.finalize_add(*this);
  return updates;
}

std::int64_t Glcm::accumulate_reference(Vol4View<const Level> vol, const Region4& roi,
                                        const std::vector<Vec4>& dirs) {
  if (!Region4::whole(vol.dims()).contains(roi)) {
    throw std::invalid_argument("Glcm::accumulate: roi " + roi.str() +
                                " outside volume " + vol.dims().str());
  }
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
          // Hoisted per-row base pointer: x advances by st[0] only.
          const Level* pa = &vol.at(o[0] + lo[0], o[1] + y, o[2] + z, o[3] + t);
          const Level* pb = pa + doff;
          for (std::int64_t x = 0; x < run; ++x) {
            const Level a = pa[x * st[0]];
            const Level b = pb[x * st[0]];
            // Forward and backward relation: symmetric accumulation.
            counts_[static_cast<std::size_t>(a) * static_cast<std::size_t>(ng_) + b]++;
            counts_[static_cast<std::size_t>(b) * static_cast<std::size_t>(ng_) + a]++;
            mark_row(a);
            mark_row(b);
          }
          total_ += 2 * run;
          updates += 2 * run;
        }
      }
    }
  }
  return updates;
}

std::int64_t Glcm::nonzero_upper() const {
  std::int64_t n = 0;
  for (int i = 0; i < ng_; ++i) {
    if (!row_possibly_occupied(i)) continue;
    for (int j = i; j < ng_; ++j) {
      if (count(i, j) != 0) ++n;
    }
  }
  return n;
}

bool Glcm::is_symmetric() const {
  for (int i = 0; i < ng_; ++i) {
    for (int j = i + 1; j < ng_; ++j) {
      if (count(i, j) != count(j, i)) return false;
    }
  }
  return true;
}

}  // namespace h4d::haralick
