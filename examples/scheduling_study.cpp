// Scheduling and placement study on a heterogeneous cluster.
//
// Demonstrates the simulator as a what-if tool (the paper's Sec. 5.3
// experiments generalized): for a fixed workload, sweep the buffer
// scheduling policy of the chunk stream and the placement of the HCC
// copies across two clusters, and report the resulting makespans.
//
//   $ ./examples/scheduling_study
#include <cstdio>
#include <filesystem>

#include "core/analysis.hpp"
#include "io/phantom.hpp"

using namespace h4d;
namespace fsys = std::filesystem;

int main() {
  const fsys::path dataset_dir = "scheduling_dataset";
  io::PhantomConfig phantom_cfg;
  phantom_cfg.dims = {48, 48, 12, 8};
  const io::Phantom phantom = io::generate_phantom(phantom_cfg);
  io::DiskDataset::create(dataset_dir, phantom.volume, 4);

  sim::SimOptions sim_opt;
  sim_opt.cluster = sim::make_paper_testbed();
  const int xeon0 = 24;     // 5 dual-CPU nodes (speed 2.6)
  const int opteron0 = 29;  // 6 dual-CPU nodes (speed 1.9)

  auto make = [&](fs::Policy policy, int xeon_hcc, int opteron_hcc) {
    core::PipelineConfig cfg;
    cfg.dataset_root = dataset_dir;
    cfg.engine.roi_dims = {5, 5, 3, 3};
    cfg.engine.num_levels = 32;
    cfg.engine.features = haralick::FeatureSet::paper_eval();
    cfg.texture_chunk = {16, 16, 8, 6};
    cfg.variant = core::Variant::Split;
    cfg.chunk_policy = policy;
    cfg.rfr_copies = 4;
    cfg.rfr_nodes = {opteron0, opteron0 + 1, opteron0 + 2, opteron0 + 3};
    cfg.iic_nodes = {opteron0 + 4};
    cfg.hpc_copies = 2;
    cfg.hpc_nodes = {opteron0 + 4, opteron0 + 5};
    cfg.uso_nodes = {opteron0 + 5};
    cfg.hcc_copies = xeon_hcc + opteron_hcc;
    for (int i = 0; i < xeon_hcc; ++i) cfg.hcc_nodes.push_back(xeon0 + (i % 5));
    for (int i = 0; i < opteron_hcc; ++i) cfg.hcc_nodes.push_back(opteron0 + (i % 4));
    return cfg;
  };

  std::printf("%-16s %-24s %10s %12s\n", "policy", "HCC placement", "time_s", "net_MB");
  for (const fs::Policy policy : {fs::Policy::RoundRobin, fs::Policy::DemandDriven}) {
    for (const auto& [label, xeon_n, opt_n] :
         {std::tuple{"4 XEON + 4 OPT", 4, 4}, std::tuple{"8 XEON", 8, 0},
          std::tuple{"8 OPTERON", 0, 8}}) {
      const auto cfg = make(policy, xeon_n, opt_n);
      const core::AnalysisResult r = core::analyze_simulated(cfg, sim_opt);
      std::printf("%-16s %-24s %10.2f %12.1f\n",
                  std::string(fs::policy_name(policy)).c_str(), label, r.sim.total_seconds,
                  static_cast<double>(r.sim.network_bytes) / 1e6);
    }
  }
  std::printf("\nlower is better; demand-driven adapts the chunk stream to the\n"
              "consumption rate of each transparent HCC copy (paper Fig. 11)\n");
  return 0;
}
