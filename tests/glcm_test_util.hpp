// Test-only GLCM helpers: expand a sparse matrix back to its dense symmetric
// form, and check the symmetry invariant of a dense one.
#pragma once

#include <cstdint>
#include <vector>

#include "haralick/glcm.hpp"
#include "haralick/glcm_sparse.hpp"

namespace h4d::haralick {

/// Dense symmetric GLCM holding the entries of `s`, mirrored below the
/// diagonal.
inline Glcm to_dense(const SparseGlcm& s) {
  const auto ng = static_cast<std::size_t>(s.num_levels());
  std::vector<std::uint32_t> table(ng * ng, 0);
  for (const SparseEntry& e : s.entries()) {
    const std::size_t i = e.i;
    const std::size_t j = e.j;
    table[i * ng + j] = e.count;
    table[j * ng + i] = e.count;
  }
  Glcm g(s.num_levels());
  g.set_raw(std::move(table), s.total());
  return g;
}

/// True when count(i, j) == count(j, i) for every cell.
inline bool is_symmetric(const Glcm& g) {
  for (int i = 0; i < g.num_levels(); ++i) {
    for (int j = i + 1; j < g.num_levels(); ++j) {
      if (g.count(i, j) != g.count(j, i)) return false;
    }
  }
  return true;
}

}  // namespace h4d::haralick
