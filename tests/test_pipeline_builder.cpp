// Structural tests of the pipeline builder and failure injection through
// the executors.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/analysis.hpp"
#include "fs/executor_threads.hpp"
#include "io/phantom.hpp"

namespace h4d::core {
namespace {

namespace fsys = std::filesystem;

class BuilderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fsys::temp_directory_path() /
            ("h4d_builder_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fsys::remove_all(root_);
    io::PhantomConfig pcfg;
    pcfg.dims = {14, 12, 5, 4};
    const auto phantom = io::generate_phantom(pcfg).volume;
    io::DiskDataset::create(root_, phantom, 2);
  }
  void TearDown() override { fsys::remove_all(root_); }

  PipelineConfig config(Variant v) const {
    PipelineConfig cfg;
    cfg.dataset_root = root_;
    cfg.engine.roi_dims = {4, 4, 3, 3};
    cfg.engine.num_levels = 16;
    cfg.texture_chunk = {8, 8, 5, 4};
    cfg.variant = v;
    cfg.rfr_copies = 2;
    return cfg;
  }

  std::vector<std::string> filter_names(const fs::FilterGraph& g) const {
    std::vector<std::string> names;
    for (const auto& f : g.filters()) names.push_back(f.name);
    return names;
  }

  fsys::path root_;
};

TEST_F(BuilderTest, HmpGraphShape) {
  const fs::FilterGraph g = build_pipeline(config(Variant::HMP));
  EXPECT_EQ(filter_names(g), (std::vector<std::string>{"RFR", "IIC", "HMP", "USO"}));
  EXPECT_EQ(g.edges().size(), 3u);
  EXPECT_EQ(g.edges()[0].policy, fs::Policy::Explicit);  // RFR->IIC routing
}

TEST_F(BuilderTest, SplitGraphShape) {
  const fs::FilterGraph g = build_pipeline(config(Variant::Split));
  EXPECT_EQ(filter_names(g),
            (std::vector<std::string>{"RFR", "IIC", "HCC", "HPC", "USO"}));
  EXPECT_EQ(g.edges().size(), 4u);
}

TEST_F(BuilderTest, CollectOutputAppendsCollector) {
  PipelineConfig cfg = config(Variant::Split);
  cfg.output = OutputMode::Collect;
  auto collected = std::make_shared<filters::CollectedResults>();
  const fs::FilterGraph g = build_pipeline(cfg, collected);
  EXPECT_EQ(filter_names(g), (std::vector<std::string>{"RFR", "IIC", "HCC", "HPC", "HIC",
                                                       "Collector"}));
}

TEST_F(BuilderTest, CopiesAndPlacementPropagate) {
  PipelineConfig cfg = config(Variant::Split);
  cfg.hcc_copies = 3;
  cfg.hcc_nodes = {5, 6, 7};
  cfg.hpc_copies = 2;
  cfg.hpc_nodes = {8, 9};
  const fs::FilterGraph g = build_pipeline(cfg);
  const auto& hcc = g.filters()[2];
  EXPECT_EQ(hcc.copies, 3);
  EXPECT_EQ(hcc.placement, (std::vector<int>{5, 6, 7}));
  EXPECT_EQ(g.filters()[3].copies, 2);
}

TEST_F(BuilderTest, MissingDatasetThrows) {
  PipelineConfig cfg = config(Variant::HMP);
  cfg.dataset_root = root_ / "nonexistent";
  EXPECT_THROW(build_pipeline(cfg), std::runtime_error);
}

TEST_F(BuilderTest, ChunkSmallerThanRoiThrows) {
  PipelineConfig cfg = config(Variant::HMP);
  cfg.texture_chunk = {2, 2, 2, 2};
  EXPECT_THROW(build_pipeline(cfg), std::invalid_argument);
}

TEST_F(BuilderTest, CorruptDatasetSurfacesThroughExecutor) {
  // Delete one slice file: the RFR filter must fail, and run_threaded must
  // propagate the error instead of hanging.
  bool deleted = false;
  for (const auto& e : fsys::recursive_directory_iterator(root_)) {
    if (e.path().extension() == ".raw") {
      fsys::remove(e.path());
      deleted = true;
      break;
    }
  }
  ASSERT_TRUE(deleted);
  EXPECT_THROW(analyze_threaded(config(Variant::HMP)), std::runtime_error);
}

TEST_F(BuilderTest, TruncatedSliceSurfacesShortRead) {
  for (const auto& e : fsys::recursive_directory_iterator(root_)) {
    if (e.path().extension() == ".raw") {
      fsys::resize_file(e.path(), 4);
      break;
    }
  }
  EXPECT_THROW(analyze_threaded(config(Variant::Split)), std::runtime_error);
}

}  // namespace
}  // namespace h4d::core
