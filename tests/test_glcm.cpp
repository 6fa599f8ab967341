#include "haralick/glcm.hpp"

#include <gtest/gtest.h>

#include <random>

#include "glcm_test_util.hpp"
#include "haralick/directions.hpp"

namespace h4d::haralick {
namespace {

// 2x2 checkerboard slice: levels 0/1 alternating.
Volume4<Level> checkerboard(Vec4 dims) {
  Volume4<Level> v(dims);
  for (std::int64_t t = 0; t < dims[3]; ++t)
    for (std::int64_t z = 0; z < dims[2]; ++z)
      for (std::int64_t y = 0; y < dims[1]; ++y)
        for (std::int64_t x = 0; x < dims[0]; ++x)
          v.at(x, y, z, t) = static_cast<Level>((x + y + z + t) % 2);
  return v;
}

Volume4<Level> random_volume(Vec4 dims, int ng, unsigned seed) {
  Volume4<Level> v(dims);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> u(0, ng - 1);
  for (Level& l : v.storage()) l = static_cast<Level>(u(rng));
  return v;
}

TEST(Glcm, RejectsBadLevelCount) {
  EXPECT_THROW(Glcm(1), std::invalid_argument);
  EXPECT_THROW(Glcm(300), std::invalid_argument);
}

TEST(Glcm, RejectsRoiOutsideVolume) {
  const Volume4<Level> v = checkerboard({4, 4, 1, 1});
  Glcm g(2);
  const auto dirs = axis_directions(ActiveDims::planar2());
  EXPECT_THROW(g.accumulate(v.view(), Region4{{2, 2, 0, 0}, {4, 4, 1, 1}}, dirs),
               std::invalid_argument);
}

TEST(Glcm, HorizontalPairsOnCheckerboard) {
  // 4x4 checkerboard, horizontal distance 1: every adjacent pair is (0,1) or
  // (1,0). 4 rows x 3 pairs = 12 anchor pairs, counted both directions = 24.
  const Volume4<Level> v = checkerboard({4, 4, 1, 1});
  Glcm g(2);
  const std::vector<Vec4> dirs{{1, 0, 0, 0}};
  g.accumulate(v.view(), Region4::whole({4, 4, 1, 1}), dirs);
  EXPECT_EQ(g.total(), 24);
  EXPECT_EQ(g.count(0, 0), 0u);
  EXPECT_EQ(g.count(1, 1), 0u);
  EXPECT_EQ(g.count(0, 1), 12u);
  EXPECT_EQ(g.count(1, 0), 12u);
}

TEST(Glcm, ConstantRegionIsAllDiagonal) {
  Volume4<Level> v({3, 3, 2, 2}, 0);
  for (Level& l : v.storage()) l = 5;
  Glcm g(8);
  const auto dirs = unique_directions(ActiveDims::all4());
  g.accumulate(v.view(), Region4::whole(v.dims()), dirs);
  EXPECT_GT(g.total(), 0);
  EXPECT_EQ(g.count(5, 5), static_cast<std::uint32_t>(g.total()));
}

TEST(Glcm, SymmetricByConstruction) {
  const Volume4<Level> v = random_volume({6, 6, 3, 3}, 16, 1);
  Glcm g(16);
  g.accumulate(v.view(), Region4::whole(v.dims()), unique_directions(ActiveDims::all4()));
  EXPECT_TRUE(is_symmetric(g));
}

TEST(Glcm, OppositeDirectionGivesSameMatrix) {
  // Paper Sec. 3: opposite angles yield the same co-occurrence matrix.
  const Volume4<Level> v = random_volume({8, 8, 2, 2}, 8, 2);
  const Region4 roi{{1, 1, 0, 0}, {5, 5, 2, 2}};
  Glcm a(8), b(8);
  a.accumulate(v.view(), roi, {Vec4{1, 1, 0, 0}});
  b.accumulate(v.view(), roi, {Vec4{-1, -1, 0, 0}});
  EXPECT_EQ(a.total(), b.total());
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 8; ++j) EXPECT_EQ(a.count(i, j), b.count(i, j));
}

TEST(Glcm, TotalMatchesPairCountFormula) {
  // For direction d within an ROI of size S, anchor count is
  // prod(S_k - |d_k|); total += 2x that per direction.
  const Volume4<Level> v = random_volume({10, 9, 4, 3}, 32, 3);
  const Region4 roi{{2, 1, 0, 0}, {7, 6, 3, 3}};
  const auto dirs = unique_directions(ActiveDims::all4());
  Glcm g(32);
  g.accumulate(v.view(), roi, dirs);
  std::int64_t expect = 0;
  for (const Vec4& d : dirs) {
    std::int64_t anchors = 1;
    for (int k = 0; k < kDims; ++k) {
      const std::int64_t a = roi.size[k] - std::abs(d[k]);
      anchors *= a > 0 ? a : 0;
    }
    expect += 2 * anchors;
  }
  EXPECT_EQ(g.total(), expect);
}

TEST(Glcm, AccumulateReturnsUpdateCount) {
  const Volume4<Level> v = random_volume({5, 5, 2, 2}, 4, 4);
  Glcm g(4);
  const std::int64_t updates =
      g.accumulate(v.view(), Region4::whole(v.dims()), unique_directions(ActiveDims::all4()));
  EXPECT_EQ(updates, g.total());
}

TEST(Glcm, ClearResets) {
  const Volume4<Level> v = random_volume({4, 4, 2, 2}, 4, 5);
  Glcm g(4);
  g.accumulate(v.view(), Region4::whole(v.dims()), {Vec4{1, 0, 0, 0}});
  ASSERT_GT(g.total(), 0);
  g.clear();
  EXPECT_EQ(g.total(), 0);
  EXPECT_EQ(g.nonzero_upper(), 0);
}

TEST(Glcm, NormalizedProbabilitiesSumToOne) {
  const Volume4<Level> v = random_volume({7, 7, 3, 3}, 32, 6);
  Glcm g(32);
  g.accumulate(v.view(), Region4::whole(v.dims()), unique_directions(ActiveDims::all4()));
  double sum = 0.0;
  for (int i = 0; i < 32; ++i)
    for (int j = 0; j < 32; ++j) sum += g.p(i, j);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Glcm, EmptyMatrixProbabilityIsZero) {
  Glcm g(4);
  EXPECT_EQ(g.total(), 0);
  EXPECT_DOUBLE_EQ(g.p(0, 0), 0.0);
}

TEST(Glcm, DirectionLargerThanRoiContributesNothing) {
  const Volume4<Level> v = random_volume({4, 4, 1, 1}, 4, 7);
  Glcm g(4);
  g.accumulate(v.view(), Region4{{0, 0, 0, 0}, {2, 2, 1, 1}}, {Vec4{3, 0, 0, 0}});
  EXPECT_EQ(g.total(), 0);
}

TEST(Glcm, MatrixSizeIndependentOfDirectionAndDistance) {
  // The GLCM is always Ng x Ng (paper Sec. 3).
  Glcm g(32);
  EXPECT_EQ(g.num_levels(), 32);
  const Volume4<Level> v = random_volume({8, 8, 1, 1}, 32, 8);
  g.accumulate(v.view(), Region4::whole(v.dims()), {Vec4{3, 3, 0, 0}});
  EXPECT_EQ(g.num_levels(), 32);
}

}  // namespace
}  // namespace h4d::haralick
