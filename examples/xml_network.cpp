// Filter network from an XML description (the DataCutter configuration
// style the paper's system used, Sec. 4.3).
//
//   $ ./examples/xml_network [network.xml]
//
// Without an argument, runs a built-in description of the split HCC+HPC
// chain against a generated phantom dataset and prints feature statistics.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/analysis.hpp"
#include "filters/registry.hpp"
#include "fs/executor_threads.hpp"
#include "io/phantom.hpp"

using namespace h4d;
namespace fsys = std::filesystem;

namespace {

constexpr const char* kDefaultNetwork = R"(<?xml version="1.0"?>
<!-- The paper's split HCC+HPC instantiation (Fig. 5) -->
<filtergraph>
  <filter name="reader"    type="rfr" copies="2"/>
  <filter name="stitch"    type="iic"/>
  <filter name="matrices"  type="hcc" copies="2"/>
  <filter name="features"  type="hpc" copies="2"/>
  <filter name="outstitch" type="hic"/>
  <filter name="collect"   type="collector"/>
  <stream from="reader"    to="stitch"    policy="explicit-aux"/>
  <stream from="stitch"    to="matrices"  policy="demand-driven"/>
  <stream from="matrices"  to="features"  policy="round-robin"/>
  <stream from="features"  to="outstitch" policy="round-robin"/>
  <stream from="outstitch" to="collect"/>
</filtergraph>
)";

}  // namespace

int main(int argc, char** argv) {
  std::string xml = kDefaultNetwork;
  if (argc > 1) {
    std::ifstream f(argv[1]);
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::ostringstream ss;
    ss << f.rdbuf();
    xml = ss.str();
  }

  // Workload: a phantom study on 2 storage nodes.
  const fsys::path dataset_dir = "xml_network_dataset";
  io::PhantomConfig pcfg;
  pcfg.dims = {32, 32, 8, 6};
  io::DiskDataset::create(dataset_dir, io::generate_phantom(pcfg).volume, 2);

  core::PipelineConfig cfg;
  cfg.dataset_root = dataset_dir;
  cfg.engine.roi_dims = {5, 5, 3, 3};
  cfg.engine.num_levels = 32;
  cfg.texture_chunk = {16, 16, 8, 6};
  const filters::ParamsPtr params = core::make_params(cfg);

  auto collected = std::make_shared<filters::CollectedResults>();
  const fs::FilterRegistry registry = filters::make_pipeline_registry(params, {}, collected);
  std::printf("registered filter types:");
  for (const std::string& t : registry.types()) std::printf(" %s", t.c_str());
  std::printf("\n");

  const fs::FilterGraph graph = fs::graph_from_xml(xml, registry);
  std::printf("network: %zu filters, %zu streams\n", graph.filters().size(),
              graph.edges().size());
  for (const auto& f : graph.filters()) {
    std::printf("  %-10s x%d\n", f.name.c_str(), f.copies);
  }

  const fs::RunStats stats = fs::run_threaded(graph);
  std::printf("completed in %.2fs wall\n\n", stats.total_seconds);

  std::lock_guard lk(collected->mu);
  std::printf("%-28s %12s %12s\n", "feature", "min", "max");
  for (const auto& [feature, range] : collected->ranges) {
    std::printf("%-28s %12.5f %12.5f\n",
                std::string(haralick::feature_name(feature)).c_str(), range.first,
                range.second);
  }
  return 0;
}
