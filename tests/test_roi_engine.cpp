#include "haralick/roi_engine.hpp"

#include <gtest/gtest.h>

#include <random>

#include "haralick/directions.hpp"
#include "nd/raster.hpp"
#include "oracle/reference.hpp"

namespace h4d::haralick {
namespace {

Volume4<Level> random_volume(Vec4 dims, int ng, unsigned seed) {
  Volume4<Level> v(dims);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> u(0, ng - 1);
  for (Level& l : v.storage()) l = static_cast<Level>(u(rng));
  return v;
}

EngineConfig small_config() {
  EngineConfig cfg;
  cfg.roi_dims = {3, 3, 2, 2};
  cfg.num_levels = 8;
  cfg.features = FeatureSet::paper_eval();
  return cfg;
}

TEST(EngineConfig, DefaultDirectionsAreAll4D) {
  EngineConfig cfg;
  EXPECT_EQ(cfg.effective_directions().size(), 40u);
  cfg.directions = {{1, 0, 0, 0}};
  EXPECT_EQ(cfg.effective_directions().size(), 1u);
}

TEST(AnalyzeVolume, ProducesOneBlockPerFeature) {
  const Volume4<Level> v = random_volume({6, 6, 3, 3}, 8, 1);
  const EngineConfig cfg = small_config();
  const auto blocks = analyze_volume(v, cfg);
  ASSERT_EQ(blocks.size(), 4u);
  const Region4 want = roi_origin_region(v.dims(), cfg.roi_dims);
  for (const auto& b : blocks) {
    EXPECT_EQ(b.origins, want);
    EXPECT_EQ(static_cast<std::int64_t>(b.values.size()), want.volume());
  }
}

TEST(AnalyzeVolume, RejectsOversizeRoi) {
  const Volume4<Level> v = random_volume({4, 4, 2, 2}, 8, 2);
  EngineConfig cfg = small_config();
  cfg.roi_dims = {5, 4, 2, 2};
  EXPECT_THROW(analyze_volume(v, cfg), std::invalid_argument);
}

TEST(AnalyzeVolume, ValuesMatchDirectPerRoiComputation) {
  const Volume4<Level> v = random_volume({6, 5, 3, 3}, 8, 3);
  EngineConfig cfg = small_config();
  cfg.representation = Representation::Full;
  const auto blocks = analyze_volume(v, cfg);

  const auto dirs = cfg.effective_directions();
  std::int64_t k = 0;
  for (const Vec4& o : raster(blocks[0].origins)) {
    const Glcm g = glcm_for_roi(v.view(), Region4{o, cfg.roi_dims}, dirs, cfg.num_levels);
    const FeatureVector f =
        oracle::compute_features(g, cfg.features, oracle::ZeroPolicy::SkipZeros);
    EXPECT_FLOAT_EQ(blocks[0].values[static_cast<std::size_t>(k)],
                    static_cast<float>(f[Feature::AngularSecondMoment]));
    EXPECT_FLOAT_EQ(blocks[3].values[static_cast<std::size_t>(k)],
                    static_cast<float>(f[Feature::InverseDifferenceMoment]));
    ++k;
  }
}

TEST(AnalyzeVolume, FullAndSparseRepresentationsAgree) {
  const Volume4<Level> v = random_volume({7, 6, 4, 3}, 16, 4);
  EngineConfig full = small_config();
  full.num_levels = 16;
  full.features = FeatureSet::all();
  EngineConfig sparse = full;
  sparse.representation = Representation::Sparse;

  const auto a = analyze_volume(v, full);
  const auto b = analyze_volume(v, sparse);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].values.size(), b[i].values.size());
    for (std::size_t j = 0; j < a[i].values.size(); ++j) {
      EXPECT_NEAR(a[i].values[j], b[i].values[j],
                  1e-5 * std::max(1.0f, std::abs(a[i].values[j])))
          << feature_name(a[i].feature) << " @" << j;
    }
  }
}

// Chunking must be invisible: per-chunk analysis reassembles to exactly the
// monolithic result (core out-of-core invariant).
class ChunkingInvisible : public ::testing::TestWithParam<Vec4> {};

TEST_P(ChunkingInvisible, ChunkedEqualsMonolithic) {
  const Vec4 dims{12, 10, 5, 4};
  const Volume4<Level> v = random_volume(dims, 8, 5);
  EngineConfig cfg = small_config();

  const auto mono = analyze_volume(v, cfg);
  const Region4 all = roi_origin_region(dims, cfg.roi_dims);
  const Volume4<float> mono_map =
      assemble_feature_map({&mono[0]}, all);

  const Vec4 chunk_dims = GetParam();
  const auto chunks = partition_overlapping(dims, chunk_dims, cfg.roi_dims);
  EXPECT_GT(chunks.size(), 1u);

  std::vector<std::vector<FeatureBlock>> per_chunk;
  for (const Chunk& c : chunks) {
    Volume4<Level> local(c.region.size);
    copy_region<Level>(v.view(), Region4::whole(dims), local.view(), c.region);
    per_chunk.push_back(analyze_chunk(local.view(), c.region, c.owned_origins, cfg));
  }

  std::vector<const FeatureBlock*> first_feature;
  for (const auto& blocks : per_chunk) first_feature.push_back(&blocks[0]);
  const Volume4<float> chunked_map = assemble_feature_map(first_feature, all);

  ASSERT_EQ(chunked_map.size(), mono_map.size());
  for (std::int64_t i = 0; i < mono_map.size(); ++i) {
    EXPECT_FLOAT_EQ(chunked_map.storage()[static_cast<std::size_t>(i)],
                    mono_map.storage()[static_cast<std::size_t>(i)]);
  }
}

INSTANTIATE_TEST_SUITE_P(ChunkShapes, ChunkingInvisible,
                         ::testing::Values(Vec4{6, 6, 3, 3}, Vec4{5, 4, 4, 4},
                                           Vec4{12, 10, 3, 3}, Vec4{4, 4, 2, 2}));

TEST(AnalyzeChunk, RejectsViewRegionMismatch) {
  const Volume4<Level> v = random_volume({6, 6, 3, 3}, 8, 6);
  const EngineConfig cfg = small_config();
  EXPECT_THROW(analyze_chunk(v.view(), Region4{{0, 0, 0, 0}, {5, 6, 3, 3}},
                             Region4{{0, 0, 0, 0}, {1, 1, 1, 1}}, cfg),
               std::invalid_argument);
}

TEST(AnalyzeChunk, EmptyOwnedOriginsGiveEmptyBlocks) {
  const Volume4<Level> v = random_volume({6, 6, 3, 3}, 8, 7);
  const EngineConfig cfg = small_config();
  const auto blocks = analyze_chunk(v.view(), Region4::whole(v.dims()),
                                    Region4{{0, 0, 0, 0}, {0, 0, 0, 0}}, cfg);
  ASSERT_EQ(blocks.size(), 4u);
  for (const auto& b : blocks) EXPECT_TRUE(b.values.empty());
}

TEST(AnalyzeChunk, WorkCountersAccumulate) {
  const Volume4<Level> v = random_volume({6, 6, 3, 3}, 8, 8);
  const EngineConfig cfg = small_config();
  WorkCounters wc{};
  analyze_volume(v, cfg, &wc);
  const std::int64_t n = num_roi_origins(v.dims(), cfg.roi_dims);
  EXPECT_EQ(wc.matrices_built, n);
  EXPECT_GT(wc.glcm_pair_updates, 0);
  EXPECT_GT(wc.feature_cell_ops, 0);
}

TEST(AssembleFeatureMap, FillsMissingWithDefault) {
  FeatureBlock b;
  b.feature = Feature::Contrast;
  b.origins = Region4{{0, 0, 0, 0}, {2, 1, 1, 1}};
  b.values = {1.0f, 2.0f};
  const Region4 all{{0, 0, 0, 0}, {4, 1, 1, 1}};
  const Volume4<float> map = assemble_feature_map({&b}, all, -7.0f);
  EXPECT_FLOAT_EQ(map.at(0, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(map.at(1, 0, 0, 0), 2.0f);
  EXPECT_FLOAT_EQ(map.at(2, 0, 0, 0), -7.0f);
  EXPECT_FLOAT_EQ(map.at(3, 0, 0, 0), -7.0f);
}

}  // namespace
}  // namespace h4d::haralick
