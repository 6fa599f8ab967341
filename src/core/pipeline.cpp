#include "core/pipeline.hpp"

#include <stdexcept>

#include "filters/input_filters.hpp"
#include "filters/texture_filters.hpp"

namespace h4d::core {

using filters::kPortChunks;
using filters::kPortFeatures;
using filters::kPortMaps;
using filters::kPortMatrices;
using filters::kPortPieces;

namespace {

/// Single-copy placement on the first listed node (or node 0).
std::vector<int> first_node(const std::vector<int>& nodes) {
  return {nodes.empty() ? 0 : nodes.front()};
}

}  // namespace

filters::ParamsPtr make_params(const PipelineConfig& config) {
  filters::PipelineParams p;
  static_cast<filters::RunSettings&>(p) = config;
  p.meta = io::DatasetMeta::load(config.dataset_root);
  return filters::PipelineParams::make(std::move(p));
}

fs::FilterGraph build_pipeline(const PipelineConfig& config,
                               std::shared_ptr<filters::CollectedResults> collected) {
  return build_pipeline(config, make_params(config), std::move(collected));
}

fs::FilterGraph build_pipeline(const PipelineConfig& config, filters::ParamsPtr params,
                               std::shared_ptr<filters::CollectedResults> collected) {
  if (config.rfr_copies != params->meta.storage_nodes) {
    throw std::invalid_argument(
        "build_pipeline: rfr_copies (" + std::to_string(config.rfr_copies) +
        ") must equal the dataset's storage node count (" +
        std::to_string(params->meta.storage_nodes) + ")");
  }
  if (config.output == OutputMode::Collect && !collected) {
    throw std::invalid_argument("build_pipeline: Collect output needs a CollectedResults");
  }
  // A collected map is assembled in memory from this run's samples alone, so
  // every pruned chunk's origins would stay 0.0f and shift the map's min/max.
  // Only USO's per-stream sample files carry the earlier run's output.
  if (config.output == OutputMode::Collect && params->chunks_resumed > 0) {
    throw std::invalid_argument(
        "build_pipeline: resume pruned " + std::to_string(params->chunks_resumed) +
        " completed chunks, but collected maps hold only this run's chunks; resume needs "
        "the unstitched (USO) output");
  }

  fs::FilterGraph g;

  const int rfr = g.add_filter({"RFR",
                                [params] { return std::make_unique<filters::RawFileReader>(params); },
                                config.rfr_copies, config.rfr_nodes});
  const int iic = g.add_filter(
      {"IIC",
       [params] { return std::make_unique<filters::InputImageConstructor>(params); },
       config.iic_copies, config.iic_nodes});

  // RFR -> IIC: explicit routing — pieces of one chunk must reach the chunk's
  // owning IIC copy (paper Sec. 5.2: explicit IIC copies).
  g.connect(rfr, kPortPieces, iic, fs::Policy::Explicit,
            [](const fs::BufferHeader& h, int /*ncopies*/) { return static_cast<int>(h.aux); });

  int texture_out = -1;  // filter id whose kPortFeatures feeds the output stage
  if (config.variant == Variant::HMP) {
    const int hmp = g.add_filter(
        {"HMP",
         [params] { return std::make_unique<filters::HaralickMatrixProducer>(params); },
         config.hmp_copies, config.hmp_nodes});
    g.connect(iic, kPortChunks, hmp, config.chunk_policy);
    texture_out = hmp;
  } else {
    const int hcc = g.add_filter(
        {"HCC",
         [params] { return std::make_unique<filters::HaralickCoMatrixCalculator>(params); },
         config.hcc_copies, config.hcc_nodes});
    const int hpc = g.add_filter(
        {"HPC",
         [params] { return std::make_unique<filters::HaralickParameterCalculator>(params); },
         config.hpc_copies, config.hpc_nodes});
    g.connect(iic, kPortChunks, hcc, config.chunk_policy);
    g.connect(hcc, kPortMatrices, hpc, config.matrix_policy, config.matrix_route);
    texture_out = hpc;
  }

  switch (config.output) {
    case OutputMode::Unstitched: {
      const auto dir = config.output_dir;
      const int uso = g.add_filter(
          {"USO",
           [params, dir] { return std::make_unique<filters::UnstitchedOutput>(params, dir); },
           config.uso_copies, config.uso_nodes});
      g.connect(texture_out, kPortFeatures, uso, fs::Policy::DemandDriven);
      break;
    }
    case OutputMode::Collect: {
      const int hic = g.add_filter(
          {"HIC",
           [params] { return std::make_unique<filters::HaralickImageConstructor>(params); },
           1, first_node(config.uso_nodes)});
      const int sink = g.add_filter(
          {"Collector",
           [params, collected] { return std::make_unique<filters::ResultCollector>(params, collected); },
           1, first_node(config.uso_nodes)});
      g.connect(texture_out, kPortFeatures, hic, fs::Policy::RoundRobin);
      g.connect(hic, kPortMaps, sink, fs::Policy::RoundRobin);
      break;
    }
  }
  g.validate();
  return g;
}

}  // namespace h4d::core
