// Tail-tolerance micro-benchmark: per-read latency of a ResilientReader
// whose primary storage node is gray (alive but heavy-tailed slow), with and
// without the tail layer. Both passes read every slice of a 2-node, r=2
// dataset through node 0, which the fault injector stalls with a Pareto
// distribution scaled 16x (slow_nodes); the hedged pass additionally attaches
// the LatencyTracker + SliceFetchPool, so reads that exceed the hedge
// threshold race a second fetch against node 1 and the sustained breaches
// evict node 0 as `slow`.
//
// Emits figure "bench_tail" with one row per pass — tools/check_bench.py
// gates the committed BENCH_tail.json on
//   unhedged p99_ms >= 2x hedged p99_ms, and hedged hedges_won >= 1.
// The stalls are real (bounded by stall_cap), so the tail improvement is a
// wall-clock fact on the build host, not a modeled number.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "io/dataset.hpp"
#include "io/fault.hpp"
#include "io/phantom.hpp"
#include "io/replica_set.hpp"
#include "io/resilient_reader.hpp"
#include "io/tail.hpp"
#include "micro_common.hpp"

namespace {

namespace fsys = std::filesystem;
using namespace h4d;
using steady = std::chrono::steady_clock;

io::FaultConfig gray_node_faults() {
  // Node 0 is gray: every read it serves stalls Pareto(alpha=1.5) x 1 ms,
  // scaled 16x on node 0 only, slept for real up to the 25 ms cap.
  io::FaultConfig fc;
  fc.seed = 77;
  fc.p_stall = 1.0;
  fc.stall_ms = 1.0;
  fc.stall_cap_ms = 25.0;
  fc.stall_dist = io::StallDist::Pareto;
  fc.pareto_alpha = 1.5;
  fc.slow_nodes[0] = 16.0;
  return fc;
}

double percentile(std::vector<double> sorted_ms, double q) {
  if (sorted_ms.empty()) return 0.0;
  std::sort(sorted_ms.begin(), sorted_ms.end());
  const auto idx = static_cast<std::size_t>(std::min(
      static_cast<double>(sorted_ms.size()) - 1.0,
      std::ceil(q * static_cast<double>(sorted_ms.size())) - 1.0));
  return sorted_ms[idx];
}

bench::MicroRun run_pass(const std::string& label, const fsys::path& root,
                         const io::DiskDataset& ds, bool hedged) {
  io::FaultInjector injector(gray_node_faults());  // fresh: same schedule
  io::ReplicaSet replicas(root, ds.meta(), {});
  io::LatencyTracker tracker(ds.meta().storage_nodes);
  io::SliceFetchPool pool(4);

  io::ResilienceConfig rc;
  rc.policy = io::DegradePolicy::Retry;
  rc.retry.really_sleep = false;
  io::ResilientReader reader(ds.node_reader(0), rc, &injector, nullptr, &replicas);

  io::TailConfig tail;
  if (hedged) {
    tail.hedge_enabled = true;
    tail.hedge_pct = 90.0;
    tail.hedge_floor_ms = 0.5;
    tail.deadline_enabled = true;  // adaptive: clamp(3 x p99, 5, 500)
    reader.attach_tail(tail, &tracker, &pool);
  }

  const Vec4 dims = ds.meta().dims;
  std::vector<std::uint16_t> out(
      static_cast<std::size_t>(dims[0]) * static_cast<std::size_t>(dims[1]));
  std::vector<double> read_ms;
  read_ms.reserve(reader.slices().size());
  const auto t0 = steady::now();
  for (const io::SliceRef& s : reader.slices()) {
    const auto r0 = steady::now();
    if (!reader.read_slice(s, out.data())) {
      std::cerr << "read failed at t=" << s.t << " z=" << s.z << "\n";
      std::exit(1);
    }
    read_ms.push_back(
        std::chrono::duration<double, std::milli>(steady::now() - r0).count());
  }
  const double wall = std::chrono::duration<double>(steady::now() - t0).count();

  const io::ReaderCounters c = reader.counters();
  bench::MicroRun row;
  row.label = label;
  row.metrics = {
      {"reads", static_cast<double>(read_ms.size())},
      {"p50_ms", percentile(read_ms, 0.50)},
      {"p99_ms", percentile(read_ms, 0.99)},
      {"max_ms", *std::max_element(read_ms.begin(), read_ms.end())},
      {"hedges_issued", static_cast<double>(c.hedges_issued)},
      {"hedges_won", static_cast<double>(c.hedges_won)},
      {"reads_abandoned", static_cast<double>(c.reads_abandoned)},
      {"slow_evictions", static_cast<double>(c.slow_evictions)},
      {"wall_s", wall},
  };
  std::cout << "  " << label << ": " << read_ms.size() << " reads, p50 "
            << percentile(read_ms, 0.50) << " ms, p99 " << percentile(read_ms, 0.99)
            << " ms, hedges " << c.hedges_won << "/"
            << c.hedges_issued << " won, "
            << c.slow_evictions << " slow evictions, " << wall << " s\n";
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_tail.json";
  bench::json_output_path(argc, argv, json_path);

  const fsys::path root =
      fsys::temp_directory_path() /
      ("h4d_bench_tail_" + std::to_string(static_cast<long>(::getpid())));
  fsys::remove_all(root);
  io::PhantomConfig pcfg;
  pcfg.dims = {48, 40, 12, 6};  // 72 slices
  pcfg.num_tumors = 1;
  pcfg.seed = 19;
  const io::DiskDataset ds =
      io::DiskDataset::create(root, io::generate_phantom(pcfg).volume, 2, 2);

  std::cout << "gray node drill: " << gray_node_faults().str() << "\n";
  std::vector<bench::MicroRun> runs;
  runs.push_back(run_pass("unhedged", root, ds, /*hedged=*/false));
  runs.push_back(run_pass("hedged", root, ds, /*hedged=*/true));
  fsys::remove_all(root);

  return bench::write_micro_json("bench_tail", runs, json_path);
}
