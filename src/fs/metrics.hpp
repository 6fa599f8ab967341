// Machine-readable run metrics and the end-of-run bottleneck report.
//
// Aggregates the per-copy statistics of a run (either executor) into a
// per-filter table, derives the bottleneck verdict the paper's Fig. 9
// analysis is about (which stage is the bound, is the pipeline backpressured
// on it), and serializes everything as JSON ("h4d-metrics-v1") or CSV.
// Every WorkMeter counter is exported by name via WorkMeter::kFieldNames, so
// the export can never lag the meter. Field reference: docs/OBSERVABILITY.md.
#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "fs/graph.hpp"

namespace h4d::fs {

/// Per-filter-group aggregate over all transparent copies.
struct FilterMetrics {
  std::string filter;
  int copies = 0;
  WorkMeter meter;  ///< summed over copies
  double busy_seconds = 0.0;
  double blocked_input_seconds = 0.0;
  double blocked_output_seconds = 0.0;
  double enqueue_stall_seconds = 0.0;
  std::int64_t stalled_pushes = 0;
  std::size_t max_inbox = 0;   ///< max over copies
  double finish_time = 0.0;    ///< max over copies
  /// busy / (copies * makespan): mean fraction of the run each copy of this
  /// filter was computing. The bound stage is the one closest to 1.
  double utilization = 0.0;
  /// blocked_output / (copies * makespan): fraction of the run the copies
  /// spent backpressured by downstream consumers.
  double output_stall_fraction = 0.0;
};

struct BottleneckReport {
  double makespan = 0.0;
  std::vector<FilterMetrics> filters;  ///< in pipeline (RunStats) order
  std::string bound_filter;            ///< highest utilization
  double bound_utilization = 0.0;
  std::string dominant_stream_filter;  ///< most bytes emitted onto streams
  std::int64_t dominant_stream_bytes = 0;
  std::string verdict;                 ///< one-line human-readable analysis
};

/// Derive the per-filter table and bottleneck verdict from run statistics.
BottleneckReport analyze_bottleneck(const RunStats& stats);

/// Human-readable end-of-run table + verdict (what the CLI prints).
void print_bottleneck_report(std::ostream& os, const BottleneckReport& report);

/// Extra scalar values appended to the JSON export under "extra" (e.g. the
/// simulator's network totals).
using MetricsExtra = std::vector<std::pair<std::string, double>>;

/// The objects h4d-metrics-v1 and h4d-jobs-v1 share, one writer each: the
/// WorkMeter counters by name, the execution counters (`with_buffers` adds
/// h4d-metrics-v1's quarantined and incidents arrays), the slice-cache
/// section and the io_tail section.
void write_meter_object(std::ostream& os, const WorkMeter& m);
void write_execution_object(std::ostream& os, const ExecutionReport& e, bool with_buffers);
void write_cache_object(std::ostream& os, const CacheReport& c);
void write_tail_object(std::ostream& os, const TailReport& t);

/// One self-contained JSON object (schema "h4d-metrics-v1"): makespan,
/// per-filter aggregates, per-copy rows, bottleneck report, extras. Usable
/// standalone or nested inside another document (no trailing newline).
void write_metrics_object(std::ostream& os, const RunStats& stats,
                          const BottleneckReport& report, const MetricsExtra& extra = {});

/// Per-copy CSV table: one row per filter copy, one column per timing field
/// and WorkMeter counter.
void write_metrics_csv(std::ostream& os, const RunStats& stats);

/// Writes by extension: ".csv" -> CSV table, anything else -> JSON document.
/// Throws std::runtime_error when the file cannot be written.
void write_metrics_file(const std::filesystem::path& path, const RunStats& stats,
                        const MetricsExtra& extra = {});

}  // namespace h4d::fs
