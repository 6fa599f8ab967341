// Shared harness for the paper-figure benchmarks.
//
// Every figure binary drives the same pipeline through the cluster
// simulator with the paper's node layouts (Sec. 5.1-5.3) and prints the
// series the figure plots. Absolute numbers are virtual seconds on the
// modeled 2004 testbed; the reproduction target is the *shape* (who wins,
// by what factor, where curves cross).
//
// Scale: the default dataset is a reduced phantom so the full suite runs in
// minutes. Set H4D_FULL=1 (or pass --full) for the paper-scale dataset
// (256x256 x 32 slices x 32 timesteps).
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "core/planner.hpp"
#include "io/image_write.hpp"
#include "io/phantom.hpp"
#include "sim/executor_sim.hpp"

namespace h4d::bench {

struct Workload {
  std::filesystem::path dataset_root;
  Vec4 dims;
  Vec4 roi;
  Vec4 texture_chunk;
  int storage_nodes = 4;  ///< paper: dataset distributed across 4 I/O nodes
  bool full_scale = false;

  haralick::EngineConfig engine(haralick::Representation repr) const;
};

/// Build (or reuse a cached) phantom dataset for the benchmarks. Also parses
/// the common harness flags: `--full` (paper-scale dataset) and
/// `--metrics FILE` (export every simulated run's per-filter metrics +
/// bottleneck report as one JSON document when Report::finish() runs — the
/// EXPERIMENTS.md regeneration flow).
Workload setup_workload(int argc, char** argv);

// ---- paper node layouts (homogeneous PIII cluster, Sec. 5.2) ----
// nodes 0-3: RFR (I/O), node 4: IIC, node 5: USO, nodes 6..: texture filters.

inline constexpr int kIicNode = 4;
inline constexpr int kUsoNode = 5;
inline constexpr int kFirstTextureNode = 6;

/// PIII cluster sized for `texture_nodes` texture hosts.
sim::SimOptions piii_options(int texture_nodes);

/// HMP variant: one transparent HMP copy per texture node (Fig. 4).
core::PipelineConfig hmp_config(const Workload& w, int texture_nodes,
                                haralick::Representation repr);

/// Split HCC+HPC variant (Fig. 5). overlap=false: filters on separate nodes,
/// core::apportion_split(4.0, n) HCC + HPC (13+3 at 16 nodes, Sec. 5.2);
/// overlap=true (and n = 1): one HCC and one HPC co-located on every texture
/// node.
core::PipelineConfig split_config(const Workload& w, int texture_nodes,
                                  haralick::Representation repr, bool overlap);

/// Run one configuration through the simulator and return its stats. When
/// `--metrics` is active, the run is also recorded (labeled by variant,
/// copy counts and representation) for export at Report::finish().
sim::SimStats run_config(const core::PipelineConfig& cfg, const sim::SimOptions& opt);

// ---- reporting ----

/// Prints a table to stdout and appends it to bench_results/<name>.csv.
class Report {
 public:
  Report(std::string figure, std::string title, std::vector<std::string> columns);
  void row(const std::vector<std::string>& cells);
  /// Record a shape assertion (the paper's qualitative claim).
  void check(const std::string& what, bool ok);
  /// Print footer + save CSV; returns non-zero when any check failed.
  int finish();

  static std::string sec(double s);

 private:
  std::string figure_;
  io::CsvWriter csv_;
  std::vector<std::string> columns_;
  int failed_ = 0;
  int checks_ = 0;
};

}  // namespace h4d::bench
