// High-level public API.
//
// Three entry points cover the library's use cases:
//   * analyze_in_memory   — sequential reference on an in-memory volume;
//   * analyze_threaded    — the real parallel pipeline on this machine
//                           (disk-resident dataset, one thread per copy);
//   * analyze_simulated   — the same pipeline on a modeled cluster in
//                           virtual time (reproduction of the paper's
//                           experiments; outputs identical to the above).
#pragma once

#include <map>

#include "core/pipeline.hpp"
#include "fs/executor_threads.hpp"
#include "sim/executor_sim.hpp"

namespace h4d::core {

/// Result of an analysis run: one 4D feature map per selected feature,
/// covering every valid ROI origin, plus execution statistics.
struct AnalysisResult {
  Region4 origins;  ///< region the maps cover (all valid ROI origins)
  std::map<haralick::Feature, Volume4<float>> maps;
  std::map<haralick::Feature, std::pair<float, float>> ranges;  ///< min/max
  fs::RunStats stats;
  sim::SimStats sim;  ///< populated by analyze_simulated only
  /// Resilience accounting of the run: retries, checksum failures, and the
  /// exact slices degraded to fill under skip_and_fill.
  io::FaultReport faults;
};

/// Sequential reference implementation (paper Fig. 2) on an in-memory
/// uint16 volume. Requantizes by the volume's min/max.
AnalysisResult analyze_in_memory(const Volume4<std::uint16_t>& volume,
                                 const haralick::EngineConfig& engine);

/// Run the pipeline with the threaded executor. The configuration's output
/// mode is overridden to Collect so maps are returned. `threaded_options`
/// carries executor tuning and observability hooks (queue depth, tracing).
AnalysisResult analyze_threaded(PipelineConfig config,
                                const fs::ThreadedOptions& threaded_options = {});

/// Run the pipeline on a simulated cluster. Outputs are identical to the
/// threaded run; stats/sim carry virtual-time figures.
AnalysisResult analyze_simulated(PipelineConfig config, const sim::SimOptions& sim_options);

/// The "cache" report with its configuration echo filled in; the caller adds
/// the counters (a run sums its copies' meters, the service reads the shared
/// cache's totals).
fs::CacheReport cache_report(const io::TileCacheConfig& cache);

/// The "io_tail" report: configuration echo, the tracker's totals and one row
/// per node, plus the eviction events of `replicas` when given (a solo run's
/// replica set; the service has none across jobs). `skip_idle_nodes` drops
/// rows of nodes that served no read and breached nothing (the service's
/// tracker is sized beyond any one dataset).
fs::TailReport tail_report(const io::TailConfig& tail, const io::LatencyTracker& latency,
                           const io::ReplicaSet* replicas, bool skip_idle_nodes);

}  // namespace h4d::core
