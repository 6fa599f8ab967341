#include "haralick/glcm_sparse.hpp"

#include <gtest/gtest.h>

#include <random>

#include "glcm_test_util.hpp"
#include "haralick/directions.hpp"

namespace h4d::haralick {
namespace {

Volume4<Level> random_volume(Vec4 dims, int ng, unsigned seed) {
  Volume4<Level> v(dims);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> u(0, ng - 1);
  for (Level& l : v.storage()) l = static_cast<Level>(u(rng));
  return v;
}

Glcm sample_glcm(int ng, unsigned seed, Vec4 dims = {7, 7, 3, 3}) {
  const Volume4<Level> v = random_volume(dims, ng, seed);
  Glcm g(ng);
  g.accumulate(v.view(), Region4::whole(dims), unique_directions(ActiveDims::all4()));
  return g;
}

TEST(SparseGlcm, RoundTripsThroughDense) {
  for (unsigned seed : {1u, 2u, 3u}) {
    const Glcm g = sample_glcm(32, seed);
    const SparseGlcm s = SparseGlcm::from_dense(g);
    const Glcm back = to_dense(s);
    EXPECT_EQ(back.total(), g.total());
    for (int i = 0; i < 32; ++i)
      for (int j = 0; j < 32; ++j) EXPECT_EQ(back.count(i, j), g.count(i, j));
  }
}

TEST(SparseGlcm, StoresOnlyUpperTriangle) {
  const Glcm g = sample_glcm(16, 4);
  const SparseGlcm s = SparseGlcm::from_dense(g);
  EXPECT_EQ(static_cast<std::int64_t>(s.nnz()), g.nonzero_upper());
  for (const SparseEntry& e : s.entries()) {
    EXPECT_LE(e.i, e.j);
    EXPECT_GT(e.count, 0u);
    EXPECT_EQ(e.count, g.count(e.i, e.j));
  }
}

TEST(SparseGlcm, EmptyMatrix) {
  const Glcm g(8);
  const SparseGlcm s = SparseGlcm::from_dense(g);
  EXPECT_EQ(s.nnz(), 0u);
  EXPECT_EQ(s.total(), 0);
  const Glcm back = to_dense(s);
  EXPECT_EQ(back.total(), 0);
}

TEST(SparseGlcm, WireSizeSmallerThanDenseWhenSparse) {
  // A typical requantized MRI GLCM is ~1% dense (paper Sec. 4.4.1); a sparse
  // checkerboard-like matrix must beat the dense wire format comfortably.
  Volume4<Level> v({7, 7, 3, 3}, 0);
  for (std::int64_t i = 0; i < v.size(); ++i) v.storage()[static_cast<std::size_t>(i)] = i % 2;
  Glcm g(32);
  g.accumulate(v.view(), Region4::whole(v.dims()), unique_directions(ActiveDims::all4()));
  const SparseGlcm s = SparseGlcm::from_dense(g);
  EXPECT_LE(s.nnz(), 3u);
  EXPECT_LT(s.wire_size(), SparseGlcm::dense_wire_size(32) / 10);
}

TEST(SparseGlcm, SerializeDeserializeRoundTrip) {
  const Glcm g = sample_glcm(32, 5);
  const SparseGlcm s = SparseGlcm::from_dense(g);
  std::vector<std::byte> wire;
  s.serialize(wire);
  EXPECT_EQ(wire.size(), s.wire_size());
  std::size_t consumed = 0;
  const SparseGlcm d = SparseGlcm::deserialize(wire.data(), wire.size(), consumed);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(d.num_levels(), s.num_levels());
  EXPECT_EQ(d.total(), s.total());
  EXPECT_EQ(d.entries(), s.entries());
}

TEST(SparseGlcm, SerializeAppendsMultiple) {
  const SparseGlcm a = SparseGlcm::from_dense(sample_glcm(16, 6));
  const SparseGlcm b = SparseGlcm::from_dense(sample_glcm(16, 7));
  std::vector<std::byte> wire;
  a.serialize(wire);
  b.serialize(wire);
  std::size_t used = 0;
  const SparseGlcm a2 = SparseGlcm::deserialize(wire.data(), wire.size(), used);
  const SparseGlcm b2 =
      SparseGlcm::deserialize(wire.data() + used, wire.size() - used, used);
  EXPECT_EQ(a2.entries(), a.entries());
  EXPECT_EQ(b2.entries(), b.entries());
}

TEST(SparseGlcm, DeserializeRejectsTruncation) {
  const SparseGlcm s = SparseGlcm::from_dense(sample_glcm(16, 8));
  std::vector<std::byte> wire;
  s.serialize(wire);
  std::size_t consumed = 0;
  EXPECT_THROW(SparseGlcm::deserialize(wire.data(), 3, consumed), std::runtime_error);
  if (s.nnz() > 0) {
    EXPECT_THROW(SparseGlcm::deserialize(wire.data(), wire.size() - 1, consumed),
                 std::runtime_error);
  }
}

TEST(SparseGlcm, ProbabilityMatchesDense) {
  const Glcm g = sample_glcm(32, 9);
  const SparseGlcm s = SparseGlcm::from_dense(g);
  for (const SparseEntry& e : s.entries()) {
    EXPECT_DOUBLE_EQ(s.p_of(e), g.p(e.i, e.j));
  }
}

TEST(SparseGlcm, TypicalMriDensityIsLow) {
  // Smooth (spatially correlated) data at Ng=32 should produce very sparse
  // matrices, in the spirit of the paper's 10.7-nonzeros observation.
  Volume4<Level> v({7, 7, 3, 3}, 0);
  for (std::int64_t t = 0; t < 3; ++t)
    for (std::int64_t z = 0; z < 3; ++z)
      for (std::int64_t y = 0; y < 7; ++y)
        for (std::int64_t x = 0; x < 7; ++x)
          v.at(x, y, z, t) = static_cast<Level>((x + y + z + t) / 2);  // smooth ramp
  Glcm g(32);
  g.accumulate(v.view(), Region4::whole(v.dims()), unique_directions(ActiveDims::all4()));
  const SparseGlcm s = SparseGlcm::from_dense(g);
  const double density =
      static_cast<double>(s.nnz()) / (32.0 * 32.0);
  EXPECT_LT(density, 0.05);
}

}  // namespace
}  // namespace h4d::haralick
