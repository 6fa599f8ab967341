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
    std::uint32_t any = 0;
    for (int j = 0; j < ng_; ++j) any |= row[j];  // branch-free, vectorizes
    if (any != 0) mark_row(i);
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

}  // namespace h4d::haralick
