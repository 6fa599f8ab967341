// The library's parallel engine is the threaded pipeline (analyze_threaded):
// chunks of a disk-resident dataset spread over transparent HMP copies (or
// the split variant's HCC and HPC copies), one thread each. Whatever the copy
// count or chunk extents, its maps must equal the sequential reference of
// paper Fig. 2.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>

#include "core/analysis.hpp"
#include "io/phantom.hpp"
#include "nd/chunking.hpp"

namespace h4d::core {
namespace {

namespace fsys = std::filesystem;

struct ParallelFixture {
  explicit ParallelFixture(Vec4 dims, unsigned seed) {
    root = fsys::temp_directory_path() /
           ("h4d_parallel_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
            std::to_string(seed));
    fsys::remove_all(root);
    io::PhantomConfig pcfg;
    pcfg.dims = dims;
    pcfg.num_tumors = 1;
    pcfg.seed = seed;
    volume = io::generate_phantom(pcfg).volume;
    io::DiskDataset::create(root, volume, 2, 1);
  }
  ~ParallelFixture() { fsys::remove_all(root); }

  PipelineConfig config() const {
    PipelineConfig cfg;
    cfg.dataset_root = root;
    cfg.engine.roi_dims = {4, 4, 3, 3};
    cfg.engine.num_levels = 16;
    cfg.engine.features = haralick::FeatureSet::paper_eval();
    cfg.rfr_copies = 2;
    return cfg;
  }

  fsys::path root;
  Volume4<std::uint16_t> volume{Vec4{1, 1, 1, 1}};
};

void expect_maps_equal(const AnalysisResult& ref, const AnalysisResult& got) {
  EXPECT_EQ(got.origins, ref.origins);
  ASSERT_EQ(got.maps.size(), ref.maps.size());
  for (const auto& [f, map] : ref.maps) {
    ASSERT_TRUE(got.maps.count(f)) << haralick::feature_name(f);
    const auto& gmap = got.maps.at(f);
    ASSERT_EQ(gmap.dims(), map.dims());
    for (std::size_t i = 0; i < map.storage().size(); ++i) {
      EXPECT_FLOAT_EQ(map.storage()[i], gmap.storage()[i])
          << haralick::feature_name(f) << " @" << i;
    }
  }
}

class ParallelThreads : public ::testing::TestWithParam<int> {};

TEST_P(ParallelThreads, MatchesSequentialExactly) {
  const ParallelFixture fx({14, 12, 6, 5}, 1);
  PipelineConfig cfg = fx.config();
  cfg.variant = Variant::HMP;
  cfg.hmp_copies = GetParam();
  cfg.texture_chunk = {6, 6, 4, 4};  // several chunks per copy
  expect_maps_equal(analyze_in_memory(fx.volume, cfg.engine), analyze_threaded(cfg));
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelThreads, ::testing::Values(1, 2, 4, 8));

TEST(ParallelEngine, ExplicitChunkDimsRespected) {
  const ParallelFixture fx({14, 12, 6, 5}, 2);
  PipelineConfig cfg = fx.config();
  cfg.hmp_copies = 3;
  cfg.texture_chunk = {7, 7, 4, 4};
  expect_maps_equal(analyze_in_memory(fx.volume, cfg.engine), analyze_threaded(cfg));
}

TEST(ParallelEngine, SparseRepresentationComposes) {
  // Split copies shipping sparse matrices agree with the dense reference.
  const ParallelFixture fx({12, 12, 5, 4}, 4);
  PipelineConfig cfg = fx.config();
  cfg.variant = Variant::Split;
  cfg.engine.representation = haralick::Representation::Sparse;
  cfg.hcc_copies = 4;
  cfg.hpc_copies = 2;
  cfg.texture_chunk = {6, 6, 4, 4};
  haralick::EngineConfig dense = cfg.engine;
  dense.representation = haralick::Representation::Full;
  const AnalysisResult seq = analyze_in_memory(fx.volume, dense);
  const AnalysisResult par = analyze_threaded(cfg);
  ASSERT_EQ(seq.maps.size(), par.maps.size());
  for (const auto& [f, map] : seq.maps) {
    const auto& pmap = par.maps.at(f);
    ASSERT_EQ(pmap.dims(), map.dims());
    for (std::size_t i = 0; i < map.storage().size(); ++i) {
      const float a = map.storage()[i];
      EXPECT_NEAR(a, pmap.storage()[i], 1e-5f * std::max(1.0f, std::abs(a)))
          << haralick::feature_name(f) << " @" << i;
    }
  }
}

TEST(ParallelEngine, WorkCountersSummed) {
  // Every ROI is owned by exactly one chunk, so the HMP copies' counters sum
  // to the single-copy totals.
  const ParallelFixture fx({12, 12, 5, 4}, 5);
  auto hmp_work = [&fx](int copies) {
    PipelineConfig cfg = fx.config();
    cfg.hmp_copies = copies;
    cfg.texture_chunk = {6, 6, 4, 4};
    haralick::WorkCounters sum{};
    for (const auto& c : analyze_threaded(cfg).stats.copies) {
      if (c.filter == "HMP") sum += c.meter.work;
    }
    return sum;
  };
  const haralick::WorkCounters seq = hmp_work(1);
  const haralick::WorkCounters par = hmp_work(4);
  EXPECT_GT(seq.matrices_built, 0);
  EXPECT_EQ(par.matrices_built, seq.matrices_built);
  EXPECT_EQ(par.glcm_pair_updates, seq.glcm_pair_updates);
}

TEST(ParallelEngine, OversizeRoiRejected) {
  const ParallelFixture fx({6, 6, 4, 4}, 6);
  PipelineConfig cfg = fx.config();
  cfg.engine.roi_dims = {8, 4, 3, 3};
  EXPECT_THROW(analyze_threaded(cfg), std::invalid_argument);
}

TEST(ParallelEngine, DefaultsWork) {
  // Default chunk extents, copy counts and variant: one map per feature over
  // every valid ROI origin.
  const ParallelFixture fx({10, 10, 5, 4}, 7);
  const PipelineConfig cfg = fx.config();
  const AnalysisResult result = analyze_threaded(cfg);
  ASSERT_EQ(result.maps.size(), 4u);
  EXPECT_EQ(result.origins, roi_origin_region(fx.volume.dims(), cfg.engine.roi_dims));
  for (const auto& [f, map] : result.maps) {
    EXPECT_EQ(map.dims(), result.origins.size) << haralick::feature_name(f);
  }
}

}  // namespace
}  // namespace h4d::core
