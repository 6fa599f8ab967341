// Figure 10: heterogeneous environment (PIII + XEON clusters, shared
// 100 Mbit/s uplink): HMP implementation vs. split HCC+HPC implementation.
//
// Layout (paper Sec. 5.3): 4 RFR, 4 IIC and 2 USO on the PIII cluster;
// texture filters across 13 PIII nodes + 5 XEON nodes.
//   HMP  : one transparent copy per processor => 13 + 10 = 23 copies.
//   Split: one HCC and one HPC co-located per node => 18 + 18 copies.
//
// Paper shape: the split implementation wins — fewer starving copies across
// the slow shared uplink, demand-driven scheduling inside each cluster, and
// better computation/communication overlap.
#include "bench_common.hpp"

using namespace h4d;
using haralick::Representation;

namespace {

core::PipelineConfig hetero_base(const bench::Workload& w, Representation repr) {
  core::PipelineConfig cfg;
  cfg.dataset_root = w.dataset_root;
  cfg.engine = w.engine(repr);
  cfg.texture_chunk = w.texture_chunk;
  cfg.rfr_copies = w.storage_nodes;
  cfg.rfr_nodes = {0, 1, 2, 3};
  cfg.iic_copies = 4;
  cfg.iic_nodes = {4, 5, 6, 7};
  cfg.uso_copies = 2;
  cfg.uso_nodes = {8, 9};
  cfg.output = core::OutputMode::Unstitched;
  return cfg;
}

constexpr int kFirstPiiiTexture = 10;  // 13 nodes: 10..22
constexpr int kFirstXeon = 24;         // 5 nodes: 24..28

}  // namespace

int main(int argc, char** argv) {
  const bench::Workload w = bench::setup_workload(argc, argv);
  bench::Report report("fig10", "heterogeneous PIII+XEON: HMP vs split HCC+HPC",
                       {"implementation", "copies", "time_s"});

  sim::SimOptions opt;
  opt.cluster = sim::make_paper_testbed();

  // HMP: one copy per processor (13 PIII + 2x5 XEON).
  core::PipelineConfig hmp = hetero_base(w, Representation::Full);
  hmp.variant = core::Variant::HMP;
  for (int i = 0; i < 13; ++i) hmp.hmp_nodes.push_back(kFirstPiiiTexture + i);
  for (int x = 0; x < 5; ++x) {
    hmp.hmp_nodes.push_back(kFirstXeon + x);  // one per CPU of each dual node
    hmp.hmp_nodes.push_back(kFirstXeon + x);
  }
  hmp.hmp_copies = static_cast<int>(hmp.hmp_nodes.size());
  const auto hmp_stats = bench::run_config(hmp, opt);

  // Split: HCC and HPC co-located on all 18 texture nodes.
  core::PipelineConfig split = hetero_base(w, Representation::Sparse);
  split.variant = core::Variant::Split;
  for (int i = 0; i < 13; ++i) {
    split.hcc_nodes.push_back(kFirstPiiiTexture + i);
    split.hpc_nodes.push_back(kFirstPiiiTexture + i);
  }
  for (int x = 0; x < 5; ++x) {
    split.hcc_nodes.push_back(kFirstXeon + x);
    split.hpc_nodes.push_back(kFirstXeon + x);
  }
  split.hcc_copies = 18;
  split.hpc_copies = 18;
  // Co-located pairs exchange matrices by pointer copy.
  split.matrix_policy = fs::Policy::Explicit;
  split.matrix_route = [](const fs::BufferHeader& h, int ncopies) {
    return static_cast<int>(h.from_copy % ncopies);
  };
  const auto split_stats = bench::run_config(split, opt);

  report.row({"HMP", std::to_string(hmp.hmp_copies),
              bench::Report::sec(hmp_stats.total_seconds)});
  report.row({"HCC+HPC", "18+18", bench::Report::sec(split_stats.total_seconds)});

  report.check("split HCC+HPC beats HMP in the heterogeneous setting (paper Fig 10)",
               split_stats.total_seconds < hmp_stats.total_seconds);
  report.check("both runs moved data over the network",
               hmp_stats.network_bytes > 0 && split_stats.network_bytes > 0);
  return report.finish();
}
