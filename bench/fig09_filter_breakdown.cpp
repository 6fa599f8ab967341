// Figure 9: per-filter processing time in the split HCC+HPC implementation
// (HCC and HPC on separate nodes) as texture nodes are added.
//
// Paper shape: RFR and USO are negligible; HCC and HPC fall with more
// nodes; the single IIC copy stays flat and becomes the bottleneck by 16
// nodes, limiting further scalability.
#include "bench_common.hpp"

using namespace h4d;
using haralick::Representation;

int main(int argc, char** argv) {
  const bench::Workload w = bench::setup_workload(argc, argv);
  bench::Report report("fig09",
                       "per-filter busy time, split HCC+HPC (separate nodes)",
                       {"processors", "RFR_s", "IIC_s", "HCC_s", "HPC_s", "USO_s"});

  const std::vector<int> procs{2, 4, 8, 16};
  std::vector<double> iic_s, hcc_s, hpc_s, rfr_s, uso_s, total_s;
  for (const int n : procs) {
    const auto opt = bench::piii_options(n);
    const auto cfg = bench::split_config(w, n, Representation::Sparse, /*overlap=*/false);
    const auto stats = bench::run_config(cfg, opt);
    // Per-copy busy time (paper plots the processing time of one filter).
    const double rfr = stats.filter_busy_seconds("RFR") / 4.0;
    const double iic = stats.filter_busy_seconds("IIC");
    const double hcc = stats.filter_busy_seconds("HCC") / cfg.hcc_copies;
    const double hpc = stats.filter_busy_seconds("HPC") / cfg.hpc_copies;
    const double uso = stats.filter_busy_seconds("USO");
    rfr_s.push_back(rfr);
    iic_s.push_back(iic);
    hcc_s.push_back(hcc);
    hpc_s.push_back(hpc);
    uso_s.push_back(uso);
    total_s.push_back(stats.total_seconds);
    report.row({std::to_string(n), bench::Report::sec(rfr), bench::Report::sec(iic),
                bench::Report::sec(hcc), bench::Report::sec(hpc), bench::Report::sec(uso)});
  }

  report.check("RFR time negligible vs HCC at few nodes (paper Fig 9)",
               rfr_s[0] < 0.25 * hcc_s[0]);
  report.check("USO time negligible vs HCC at few nodes (paper Fig 9)",
               uso_s[0] < 0.25 * hcc_s[0]);
  report.check("HCC per-copy time falls as nodes are added",
               hcc_s.back() < 0.5 * hcc_s.front());
  report.check("IIC time roughly flat across node counts",
               iic_s.back() > 0.7 * iic_s.front() && iic_s.back() < 1.3 * iic_s.front());
  report.check("IIC rivals HCC by 16 nodes — the bottleneck (paper Fig 9)",
               iic_s.back() > hcc_s.back());
  return report.finish();
}
