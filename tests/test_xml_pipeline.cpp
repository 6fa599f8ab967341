// End-to-end: the paper's split pipeline described as an XML document
// (DataCutter style) produces the same results as the programmatic builder.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/analysis.hpp"
#include "filters/registry.hpp"
#include "fs/executor_threads.hpp"
#include "io/phantom.hpp"

namespace h4d {
namespace {

namespace fsys = std::filesystem;

TEST(XmlPipeline, SplitPipelineFromXmlMatchesReference) {
  const fsys::path root =
      fsys::temp_directory_path() / ("h4d_xml_e2e_" + std::to_string(::getpid()));
  fsys::remove_all(root);

  io::PhantomConfig pcfg;
  pcfg.dims = {18, 16, 6, 5};
  pcfg.seed = 3;
  const auto phantom = io::generate_phantom(pcfg).volume;
  io::DiskDataset::create(root, phantom, 2);

  core::PipelineConfig cfg;
  cfg.dataset_root = root;
  cfg.engine.roi_dims = {5, 5, 3, 3};
  cfg.engine.num_levels = 16;
  cfg.engine.representation = haralick::Representation::Sparse;
  cfg.texture_chunk = {12, 12, 5, 4};
  const filters::ParamsPtr params = core::make_params(cfg);

  auto collected = std::make_shared<filters::CollectedResults>();
  const fs::FilterRegistry reg = filters::make_pipeline_registry(params, {}, collected);

  const fs::FilterGraph graph = fs::graph_from_xml(R"(
    <?xml version="1.0"?>
    <!-- the paper's split HCC+HPC chain, Fig. 5 -->
    <filtergraph>
      <filter name="reader"  type="rfr" copies="2"/>
      <filter name="stitch"  type="iic"/>
      <filter name="matrices" type="hcc" copies="2"/>
      <filter name="features" type="hpc" copies="2"/>
      <filter name="outstitch" type="hic"/>
      <filter name="collect" type="collector"/>
      <stream from="reader"   to="stitch"    policy="explicit-aux"/>
      <stream from="stitch"   to="matrices"  policy="demand-driven"/>
      <stream from="matrices" to="features"  policy="round-robin"/>
      <stream from="features" to="outstitch" policy="round-robin"/>
      <stream from="outstitch" to="collect"/>
    </filtergraph>)",
                                                   reg);
  fs::run_threaded(graph);

  const core::AnalysisResult ref = core::analyze_in_memory(phantom, cfg.engine);
  std::lock_guard lk(collected->mu);
  ASSERT_EQ(collected->maps.size(), ref.maps.size());
  for (const auto& [f, map] : ref.maps) {
    const auto& got = collected->maps.at(f);
    ASSERT_EQ(got.dims(), map.dims());
    for (std::int64_t i = 0; i < map.size(); ++i) {
      EXPECT_NEAR(got.storage()[static_cast<std::size_t>(i)],
                  map.storage()[static_cast<std::size_t>(i)],
                  1e-5 * std::max(1.0f, std::abs(map.storage()[static_cast<std::size_t>(i)])))
          << haralick::feature_name(f);
    }
  }
  fsys::remove_all(root);
}

TEST(XmlPipeline, RegistryExposesAllPaperFilterTypes) {
  core::PipelineConfig cfg;
  // Registry construction needs params but not a real dataset on disk for
  // the factories themselves; use a throwaway dataset.
  const fsys::path root =
      fsys::temp_directory_path() / ("h4d_xml_reg_" + std::to_string(::getpid()));
  fsys::remove_all(root);
  Volume4<std::uint16_t> v({8, 8, 3, 3}, 5);
  io::DiskDataset::create(root, v, 1);
  cfg.dataset_root = root;
  cfg.engine.roi_dims = {3, 3, 2, 2};
  const filters::ParamsPtr params = core::make_params(cfg);

  const fs::FilterRegistry reg = filters::make_pipeline_registry(params);
  for (const char* type : {"rfr", "iic", "hmp", "hcc", "hpc", "uso", "hic"}) {
    EXPECT_TRUE(reg.has(type)) << type;
    EXPECT_NE(reg.get(type)(), nullptr) << type;
  }
  EXPECT_FALSE(reg.has("jiw"));  // images are written from the collected maps
  EXPECT_FALSE(reg.has("collector"));  // only with a CollectedResults
  fsys::remove_all(root);
}

}  // namespace
}  // namespace h4d
