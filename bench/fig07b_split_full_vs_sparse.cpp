// Figure 7(b): split HCC+HPC implementation, execution time vs. number of
// processors, full vs. sparse co-occurrence matrix representation.
//
// Paper shape: SPARSE WINS — matrices travel on the HCC->HPC stream, and the
// sparse form slashes that communication volume (typical requantized MRI
// matrices are ~1% dense). Node split maintains HCC:HPC ~ 4:1.
#include "bench_common.hpp"

using namespace h4d;
using haralick::Representation;

int main(int argc, char** argv) {
  const bench::Workload w = bench::setup_workload(argc, argv);
  bench::Report report("fig07b",
                       "split HCC+HPC implementation: full vs sparse matrix representation",
                       {"processors", "hcc_nodes", "hpc_nodes", "full_s", "sparse_s"});

  std::vector<double> full_s, sparse_s;
  const std::vector<int> procs{1, 2, 4, 8, 12, 16};
  for (const int n : procs) {
    const auto opt = bench::piii_options(n);
    const auto full = bench::run_config(
        bench::split_config(w, n, Representation::Full, /*overlap=*/false), opt);
    const auto cfg = bench::split_config(w, n, Representation::Sparse, /*overlap=*/false);
    const auto sparse = bench::run_config(cfg, opt);
    full_s.push_back(full.total_seconds);
    sparse_s.push_back(sparse.total_seconds);
    report.row({std::to_string(n), std::to_string(cfg.hcc_copies), std::to_string(cfg.hpc_copies),
                bench::Report::sec(full.total_seconds),
                bench::Report::sec(sparse.total_seconds)});
  }

  bool sparse_wins_multinode = true;
  for (std::size_t i = 1; i < procs.size(); ++i) {  // skip the co-located 1-node case
    if (full_s[i] < sparse_s[i]) sparse_wins_multinode = false;
  }
  report.check("sparse beats full whenever matrices cross the network (paper Fig 7b)",
               sparse_wins_multinode);
  report.check("sparse curve scales down with processors",
               sparse_s.back() < 0.5 * sparse_s[0]);
  report.check("16-node split is 13 HCC + 3 HPC (paper Sec. 5.2)",
               core::apportion_split(4.0, 16) == std::pair{13, 3});
  return report.finish();
}
