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

TEST(EngineConfig, DefaultRepresentationIsSparse) {
  // The paper's sparse stream (Sec. 4.4.1) is what every caller ships unless
  // it asks for full matrices.
  EXPECT_EQ(EngineConfig{}.representation, Representation::Sparse);
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
    Glcm g(cfg.num_levels);
    oracle::accumulate_reference(g, v.view(), Region4{o, cfg.roi_dims}, dirs);
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

// Chunked analysis as a texture filter copy runs it: partition_overlapping,
// each chunk copied out contiguously (as IIC hands it on) and analyzed with
// one KernelScratch reused across chunks. Returns one assembled map per
// selected feature, in the order analyze_volume returns its blocks.
std::vector<Volume4<float>> analyze_chunked(const Volume4<Level>& v, const EngineConfig& cfg,
                                            const Vec4& chunk_dims,
                                            WorkCounters* wc = nullptr) {
  const auto chunks = partition_overlapping(v.dims(), chunk_dims, cfg.roi_dims);
  EXPECT_GT(chunks.size(), 1u);
  KernelScratch scratch(cfg.num_levels);
  std::vector<std::vector<FeatureBlock>> per_chunk;
  for (const Chunk& c : chunks) {
    Volume4<Level> local(c.region.size);
    copy_region<Level>(v.view(), Region4::whole(v.dims()), local.view(), c.region);
    per_chunk.push_back(
        analyze_chunk(local.view(), c.region, c.owned_origins, cfg, wc, &scratch));
  }
  std::vector<Volume4<float>> maps;
  for (std::size_t f = 0; f < per_chunk.front().size(); ++f) {
    std::vector<const FeatureBlock*> blocks;
    for (const auto& chunk_blocks : per_chunk) blocks.push_back(&chunk_blocks[f]);
    maps.push_back(assemble_feature_map(blocks, roi_origin_region(v.dims(), cfg.roi_dims)));
  }
  return maps;
}

// Chunking must be invisible: per-chunk analysis reassembles to exactly the
// monolithic result for every feature (core out-of-core invariant).
class ChunkingInvisible : public ::testing::TestWithParam<Vec4> {};

TEST_P(ChunkingInvisible, ChunkedEqualsMonolithic) {
  const Volume4<Level> v = random_volume({12, 10, 5, 4}, 8, 5);
  const EngineConfig cfg = small_config();
  const auto mono = analyze_volume(v, cfg);
  const auto chunked = analyze_chunked(v, cfg, GetParam());
  ASSERT_EQ(chunked.size(), mono.size());
  for (std::size_t f = 0; f < mono.size(); ++f) {
    ASSERT_EQ(chunked[f].storage().size(), mono[f].values.size());
    for (std::size_t i = 0; i < mono[f].values.size(); ++i) {
      EXPECT_FLOAT_EQ(chunked[f].storage()[i], mono[f].values[i])
          << feature_name(mono[f].feature) << " @" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ChunkShapes, ChunkingInvisible,
                         ::testing::Values(Vec4{6, 6, 3, 3}, Vec4{5, 4, 4, 4},
                                           Vec4{12, 10, 3, 3}, Vec4{4, 4, 2, 2},
                                           Vec4{7, 7, 4, 4}));

TEST(ChunkedAnalysis, SparseRepresentationComposes) {
  const Volume4<Level> v = random_volume({12, 12, 5, 4}, 16, 4);
  EngineConfig full = small_config();
  full.num_levels = 16;
  full.representation = Representation::Full;
  EngineConfig sparse = full;
  sparse.representation = Representation::Sparse;
  const auto whole = analyze_volume(v, full);
  const auto chunked = analyze_chunked(v, sparse, {6, 6, 4, 4});
  ASSERT_EQ(whole.size(), chunked.size());
  for (std::size_t f = 0; f < whole.size(); ++f) {
    ASSERT_EQ(whole[f].values.size(), chunked[f].storage().size());
    for (std::size_t i = 0; i < whole[f].values.size(); ++i) {
      EXPECT_NEAR(whole[f].values[i], chunked[f].storage()[i],
                  1e-5f * std::max(1.0f, std::abs(whole[f].values[i])));
    }
  }
}

TEST(ChunkedAnalysis, WorkCountersSummed) {
  // Counters are per ROI, so the chunks' sums equal the whole volume's even
  // though chunks overlap.
  const Volume4<Level> v = random_volume({12, 12, 5, 4}, 16, 5);
  EngineConfig cfg = small_config();
  cfg.num_levels = 16;
  WorkCounters whole{}, chunked{};
  analyze_volume(v, cfg, &whole);
  analyze_chunked(v, cfg, {6, 6, 4, 4}, &chunked);
  EXPECT_EQ(chunked.matrices_built, whole.matrices_built);
  EXPECT_EQ(chunked.glcm_pair_updates, whole.glcm_pair_updates);
  EXPECT_EQ(chunked.feature_cell_ops, whole.feature_cell_ops);
}

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
