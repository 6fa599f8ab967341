#include "nd/raster.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace h4d {
namespace {

TEST(Raster, VisitsAllPointsInOrder) {
  const Region4 r{{1, 2, 3, 4}, {2, 2, 1, 2}};
  std::vector<Vec4> pts;
  for (const Vec4& p : raster(r)) pts.push_back(p);
  ASSERT_EQ(pts.size(), 8u);
  EXPECT_EQ(pts[0], Vec4(1, 2, 3, 4));
  EXPECT_EQ(pts[1], Vec4(2, 2, 3, 4));  // x fastest
  EXPECT_EQ(pts[2], Vec4(1, 3, 3, 4));
  EXPECT_EQ(pts[3], Vec4(2, 3, 3, 4));
  EXPECT_EQ(pts[4], Vec4(1, 2, 3, 5));  // then t (z has extent 1)
  EXPECT_EQ(pts.back(), Vec4(2, 3, 3, 5));
}

TEST(Raster, EmptyRegionYieldsNothing) {
  const Region4 r{{0, 0, 0, 0}, {0, 3, 3, 3}};
  int n = 0;
  for ([[maybe_unused]] const Vec4& p : raster(r)) ++n;
  EXPECT_EQ(n, 0);
  EXPECT_EQ(raster(r).size(), 0);
}

TEST(Raster, SizeMatchesVolume) {
  const Region4 r{{5, 5, 5, 5}, {3, 4, 5, 6}};
  EXPECT_EQ(raster(r).size(), 360);
  std::int64_t n = 0;
  for ([[maybe_unused]] const Vec4& p : raster(r)) ++n;
  EXPECT_EQ(n, 360);
}

TEST(Raster, SinglePoint) {
  const Region4 r{{7, 8, 9, 10}, {1, 1, 1, 1}};
  std::vector<Vec4> pts;
  for (const Vec4& p : raster(r)) pts.push_back(p);
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_EQ(pts[0], Vec4(7, 8, 9, 10));
}

TEST(Raster, AgreesWithDelinearize) {
  const Region4 r{{2, 0, 1, 0}, {3, 2, 2, 2}};
  std::int64_t k = 0;
  for (const Vec4& p : raster(r)) {
    EXPECT_EQ(p, r.origin + delinearize(k, r.size));
    ++k;
  }
}

TEST(Raster, RunBoxesCoverEveryRunInOrder) {
  // Every run of a box splits into at most 2 * kDims - 1 sub-boxes whose
  // raster orders, concatenated, are the run's points.
  const Region4 box{{2, 1, 0, 3}, {3, 4, 2, 3}};
  std::vector<Vec4> all;
  for (const Vec4& p : raster(box)) all.push_back(p);
  const auto n = static_cast<std::int64_t>(all.size());
  for (std::int64_t first = 0; first <= n; ++first) {
    for (std::int64_t len = 0; first + len <= n; ++len) {
      std::vector<Vec4> got;
      int boxes = 0;
      for_each_run_box(box, first, len, [&](const Region4& sub, std::int64_t offset) {
        ASSERT_TRUE(box.contains(sub)) << sub.str();
        ASSERT_EQ(offset, static_cast<std::int64_t>(got.size()));
        for (const Vec4& p : raster(sub)) got.push_back(p);
        ++boxes;
      });
      ASSERT_EQ(got, std::vector<Vec4>(all.begin() + first, all.begin() + first + len))
          << "run [" << first << ", +" << len << ")";
      EXPECT_LE(boxes, 2 * kDims - 1);
    }
  }
}

}  // namespace
}  // namespace h4d
