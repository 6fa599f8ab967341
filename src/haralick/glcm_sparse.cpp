#include "haralick/glcm_sparse.hpp"

#include <cstring>
#include <string>

namespace h4d::haralick {

SparseGlcm SparseGlcm::from_dense(const Glcm& g) {
  std::vector<SparseEntry> entries;
  const int ng = g.num_levels();
  for (int i = 0; i < ng; ++i) {
    // A clear occupancy bit guarantees the whole row is zero — skip it
    // without touching its Ng - i cells.
    if (!g.row_possibly_occupied(i)) continue;
    for (int j = i; j < ng; ++j) {
      const std::uint32_t c = g.count(i, j);
      if (c != 0) {
        entries.push_back({static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(j), c});
      }
    }
  }
  return SparseGlcm(ng, g.total(), std::move(entries));
}

Glcm SparseGlcm::to_dense() const {
  Glcm g(ng_);
  std::vector<std::uint32_t> table(static_cast<std::size_t>(ng_) * static_cast<std::size_t>(ng_), 0);
  for (const SparseEntry& e : entries_) {
    table[static_cast<std::size_t>(e.i) * static_cast<std::size_t>(ng_) + e.j] = e.count;
    table[static_cast<std::size_t>(e.j) * static_cast<std::size_t>(ng_) + e.i] = e.count;
  }
  g.set_raw(std::move(table), total_);
  return g;
}

void SparseGlcm::serialize(std::vector<std::byte>& out) const {
  const std::size_t base = out.size();
  out.resize(base + wire_size());
  std::byte* p = out.data() + base;
  const auto ng32 = static_cast<std::uint32_t>(ng_);
  const auto nnz32 = static_cast<std::uint32_t>(entries_.size());
  const auto tot64 = static_cast<std::uint64_t>(total_);
  std::memcpy(p, &ng32, sizeof(ng32));
  p += sizeof(ng32);
  std::memcpy(p, &nnz32, sizeof(nnz32));
  p += sizeof(nnz32);
  std::memcpy(p, &tot64, sizeof(tot64));
  p += sizeof(tot64);
  if (!entries_.empty()) {
    std::memcpy(p, entries_.data(), entries_.size() * sizeof(SparseEntry));
  }
}

void SparseGlcm::check_num_levels(std::uint64_t num_levels) {
  if (num_levels < 2 || num_levels > 256) {
    throw MalformedMatrixError("malformed matrix: Ng " + std::to_string(num_levels) +
                               " outside [2, 256]");
  }
}

SparseGlcm SparseGlcm::deserialize(const std::byte* data, std::size_t size,
                                   std::size_t& consumed) {
  if (size < kWireHeader) throw MalformedMatrixError("malformed matrix: short sparse header");
  std::uint32_t ng32 = 0, nnz32 = 0;
  std::uint64_t tot64 = 0;
  const std::byte* p = data;
  std::memcpy(&ng32, p, sizeof(ng32));
  p += sizeof(ng32);
  std::memcpy(&nnz32, p, sizeof(nnz32));
  p += sizeof(nnz32);
  std::memcpy(&tot64, p, sizeof(tot64));
  p += sizeof(tot64);
  check_num_levels(ng32);
  const std::uint32_t ng = ng32;
  // Strictly row-major upper-triangle entries: at most one per upper cell.
  if (nnz32 > ng * (ng + 1) / 2) {
    throw MalformedMatrixError("malformed matrix: " + std::to_string(nnz32) +
                               " entries exceed the upper triangle of Ng " +
                               std::to_string(ng));
  }
  const std::size_t need = kWireHeader + std::size_t{nnz32} * sizeof(SparseEntry);
  if (size < need) throw MalformedMatrixError("malformed matrix: truncated sparse entries");
  std::vector<SparseEntry> entries(nnz32);
  if (nnz32 != 0) std::memcpy(entries.data(), p, nnz32 * sizeof(SparseEntry));

  // Each off-diagonal entry stands for two dense cells; at most 32,896
  // entries of u32 counts cannot overflow the 64-bit sum.
  std::uint64_t sum = 0;
  std::int64_t prev = -1;
  for (const SparseEntry& e : entries) {
    const std::int64_t pos = std::int64_t{e.i} * ng + e.j;
    if (e.i > e.j || e.j >= ng || e.count == 0 || pos <= prev) {
      throw MalformedMatrixError("malformed matrix: entry (" + std::to_string(e.i) + ", " +
                                 std::to_string(e.j) + ", " + std::to_string(e.count) +
                                 ") is not a non-zero row-major upper cell");
    }
    prev = pos;
    sum += e.i == e.j ? std::uint64_t{e.count} : 2 * std::uint64_t{e.count};
  }
  if (sum != tot64) {
    throw MalformedMatrixError("malformed matrix: counts sum to " + std::to_string(sum) +
                               ", total says " + std::to_string(tot64));
  }
  consumed = need;
  return SparseGlcm(static_cast<int>(ng32), static_cast<std::int64_t>(tot64),
                    std::move(entries));
}

}  // namespace h4d::haralick
