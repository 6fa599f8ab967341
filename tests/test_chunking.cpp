#include "nd/chunking.hpp"

#include <gtest/gtest.h>

#include <map>

#include "nd/raster.hpp"

namespace h4d {
namespace {

TEST(RoiOrigins, CountsAndRegion) {
  const Vec4 dims{10, 10, 4, 4};
  const Vec4 roi{3, 3, 2, 2};
  const Region4 r = roi_origin_region(dims, roi);
  EXPECT_EQ(r.origin, Vec4(0, 0, 0, 0));
  EXPECT_EQ(r.size, Vec4(8, 8, 3, 3));
  EXPECT_EQ(num_roi_origins(dims, roi), 8 * 8 * 3 * 3);
}

TEST(RoiOrigins, RoiEqualToVolumeHasOneOrigin) {
  EXPECT_EQ(num_roi_origins({5, 5, 5, 5}, {5, 5, 5, 5}), 1);
}

TEST(PartitionOverlapping, SingleChunkWhenChunkCoversVolume) {
  const auto chunks = partition_overlapping({8, 8, 4, 4}, {8, 8, 4, 4}, {3, 3, 2, 2});
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].region, Region4::whole({8, 8, 4, 4}));
  EXPECT_EQ(chunks[0].owned_origins, roi_origin_region({8, 8, 4, 4}, {3, 3, 2, 2}));
}

TEST(PartitionOverlapping, Rejections) {
  EXPECT_THROW(partition_overlapping({4, 4, 4, 4}, {4, 4, 4, 4}, {5, 4, 4, 4}),
               std::invalid_argument);  // roi > dims
  EXPECT_THROW(partition_overlapping({8, 8, 8, 8}, {2, 8, 8, 8}, {3, 3, 3, 3}),
               std::invalid_argument);  // chunk < roi
  EXPECT_THROW(partition_overlapping({8, 8, 8, 0}, {4, 4, 4, 4}, {2, 2, 2, 2}),
               std::invalid_argument);  // bad dims
}

// Property: owned origin ranges tile the full ROI origin space exactly once,
// and every owned ROI fits inside its chunk's region.
void check_partition(const Vec4& dims, const Vec4& chunk_dims, const Vec4& roi) {
  const auto chunks = partition_overlapping(dims, chunk_dims, roi);
  std::map<Vec4, int, Vec4Less> seen;
  for (const Chunk& c : chunks) {
    EXPECT_TRUE(Region4::whole(dims).contains(c.region)) << c.region.str();
    for (const Vec4& o : raster(c.owned_origins)) {
      seen[o]++;
      EXPECT_TRUE(c.region.contains(Region4{o, roi}))
          << "chunk " << c.region.str() << " origin " << o.str();
    }
  }
  const Region4 all = roi_origin_region(dims, roi);
  EXPECT_EQ(static_cast<std::int64_t>(seen.size()), all.volume());
  for (const auto& [o, n] : seen) {
    EXPECT_EQ(n, 1) << "origin " << o.str() << " owned by " << n << " chunks";
    EXPECT_TRUE(all.contains(o));
  }
}

TEST(PartitionOverlapping, TilesOriginsExactly_Even) {
  check_partition({16, 16, 8, 8}, {8, 8, 4, 4}, {3, 3, 2, 2});
}

TEST(PartitionOverlapping, TilesOriginsExactly_Ragged) {
  check_partition({17, 13, 7, 5}, {8, 6, 4, 3}, {3, 2, 2, 2});
}

TEST(PartitionOverlapping, TilesOriginsExactly_RoiOne) {
  check_partition({9, 9, 3, 3}, {4, 4, 2, 2}, {1, 1, 1, 1});
}

TEST(PartitionOverlapping, TilesOriginsExactly_ChunkEqualsRoi) {
  // step = 1 per dim: one chunk per origin.
  const Vec4 dims{5, 4, 3, 3};
  const Vec4 roi{2, 2, 2, 2};
  check_partition(dims, roi, roi);
  const auto chunks = partition_overlapping(dims, roi, roi);
  EXPECT_EQ(static_cast<std::int64_t>(chunks.size()), num_roi_origins(dims, roi));
}

TEST(PartitionOverlapping, AdjacentChunksOverlapByRoiMinusOne) {
  const Vec4 roi{3, 3, 2, 2};
  const auto chunks = partition_overlapping({20, 8, 4, 4}, {8, 8, 4, 4}, roi);
  // Chunks along x: origins 0, 6, 12 (step = 8-3+1 = 6).
  ASSERT_GE(chunks.size(), 2u);
  EXPECT_EQ(chunks[0].region.origin.x(), 0);
  EXPECT_EQ(chunks[1].region.origin.x(), 6);
  const std::int64_t overlap =
      chunks[0].region.end().x() - chunks[1].region.origin.x();
  EXPECT_EQ(overlap, roi.x() - 1);
}

TEST(PartitionOverlapping, IdsAreSequentialRasterOrder) {
  const auto chunks = partition_overlapping({16, 16, 4, 4}, {8, 8, 4, 4}, {3, 3, 2, 2});
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].id, static_cast<std::int64_t>(i));
  }
}

}  // namespace
}  // namespace h4d
