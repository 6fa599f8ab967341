// Pipeline assembly: builds the paper's filter graphs (Figures 4 and 5) from
// a declarative configuration.
#pragma once

#include <filesystem>
#include <memory>

#include "filters/output_filters.hpp"
#include "filters/params.hpp"
#include "fs/graph.hpp"

namespace h4d::core {

/// Which texture-filter instantiation to build (paper Figures 4 vs 5).
enum class Variant {
  HMP,    ///< fused: transparent copies of a single HMP filter
  Split,  ///< task-split: HCC copies pipelined into HPC copies
};

/// Where the pipeline's results go.
enum class OutputMode {
  Unstitched,  ///< USO filter: per-stream sample files (or accounting only)
  Collect,     ///< HIC -> in-memory collector; callers write images from it
};

/// A run's settings (filters::RunSettings, shared with PipelineParams) plus
/// the shape of its filter graph: variant, output, copies, their node
/// placement and the stream policies.
struct PipelineConfig : filters::RunSettings {
  Variant variant = Variant::HMP;
  OutputMode output = OutputMode::Unstitched;
  std::filesystem::path output_dir;  ///< USO files; empty => account writes only

  /// Copies and their node placement. An empty node list places every copy
  /// on node 0. RFR copy k always reads storage node k, so rfr copies must
  /// equal the dataset's storage node count. The IIC copy count is the
  /// run setting `iic_copies`.
  int rfr_copies = 1;
  std::vector<int> rfr_nodes;
  std::vector<int> iic_nodes;
  int hmp_copies = 1;              ///< Variant::HMP
  std::vector<int> hmp_nodes;
  int hcc_copies = 1;              ///< Variant::Split
  std::vector<int> hcc_nodes;
  int hpc_copies = 1;
  std::vector<int> hpc_nodes;
  int uso_copies = 1;              ///< also hosts HIC/collector
  std::vector<int> uso_nodes;

  fs::Policy chunk_policy = fs::Policy::DemandDriven;   ///< IIC -> texture
  fs::Policy matrix_policy = fs::Policy::DemandDriven;  ///< HCC -> HPC
  fs::RouteFn matrix_route;  ///< required when matrix_policy is Explicit
};

/// Build the filter graph for a configuration. When `collected` is non-null
/// and output == Collect, assembled maps land there after execution. Throws
/// std::invalid_argument for Collect output on a resumed run (pruned chunks
/// would leave holes in the collected maps).
fs::FilterGraph build_pipeline(const PipelineConfig& config,
                               std::shared_ptr<filters::CollectedResults> collected = {});

/// Same, with a caller-provided parameter block (from make_params). Lets the
/// caller keep a handle on the run's shared state — notably the fault-report
/// sink filled in during execution.
fs::FilterGraph build_pipeline(const PipelineConfig& config, filters::ParamsPtr params,
                               std::shared_ptr<filters::CollectedResults> collected);

/// The shared parameter block the builder derives (exposed for tests).
filters::ParamsPtr make_params(const PipelineConfig& config);

}  // namespace h4d::core
