// Shared pieces of the end-to-end benchmark harness: workload definitions,
// the raw-sample report the harness prints for perfbench/run.py, and the
// in-memory span log of a traced run.
//
// The harness only calls the library's public API (io, nd, haralick, core,
// fs, svc) from outside; nothing in src/ knows it is being measured.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "fs/graph.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of `v` (0 when empty).
inline double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Texture copies of every analysis workload (the shipped --workers 4) and
/// storage nodes of every phantom.
inline constexpr int kTextureCopies = 4;
inline constexpr int kStorageNodes = 4;

/// One workload: the phantom's extents and the pipeline configuration
/// `h4d analyze` (or, for serve_mixed, every job's template) would build.
struct Workload {
  std::string name;
  h4d::Vec4 dims;
  h4d::core::PipelineConfig config;  ///< dataset_root left empty
  bool write_images = false;         ///< survey_io: the command writes PGMs
  bool serve = false;                ///< serve_mixed: jobs through svc
};

/// Throws std::invalid_argument for an unknown name. `smoke` shrinks every
/// phantom to toy size (seconds-long end-to-end check of the harness).
Workload make_workload(const std::string& name, bool smoke);

/// Mirror of `h4d analyze --workers n`: n HMP copies, or for the split
/// variant max(1, 4n/5) HCC copies and the rest (at least one) HPC copies.
void set_texture_copies(h4d::core::PipelineConfig& config, int copies);

/// Flat raw-sample report: scalars, sample series and error messages.
/// perfbench/run.py turns it into metrics; the harness does no statistics.
struct Report {
  std::map<std::string, double> scalars;
  std::map<std::string, std::vector<double>> series;
  std::map<std::string, std::string> strings;
  std::vector<std::string> errors;

  void write_json(std::ostream& os) const;
};

/// Spans recorded by the harness around each call into a layer: name, start,
/// end and parent, plus the id shared by all spans of one analysis or job.
/// Kept in memory and written once when the run ends. Thread-safe.
class SpanLog {
 public:
  /// Opens a span; returns its index (the handle for end() and children).
  int begin(const std::string& name, std::int64_t trace_id, int parent = -1);
  void end(int span);
  void write_json(std::ostream& os) const;

 private:
  struct Span {
    std::string name;
    std::int64_t trace_id = 0;
    int parent = -1;
    double start = 0.0;
    double end = -1.0;
  };

  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  const Clock::time_point origin_ = Clock::now();
};

/// Records nothing when `log` is null; otherwise one span for its lifetime.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, std::int64_t trace_id, int parent = -1)
      : log_(log), id_(log ? log->begin(name, trace_id, parent) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

// ---- per-layer probes (probes.cpp) ----------------------------------------

/// io.*, nd.*, haralick.* and core.* layer metrics at the workload's
/// configuration, measured by calling each module's public functions.
/// `haralick_engine` is the engine configuration the kernel replay runs.
void layer_probes(const Workload& w, const std::filesystem::path& dataset,
                  const h4d::haralick::EngineConfig& haralick_engine, Report& report,
                  SpanLog& spans);

/// filters.* metrics of the last run's statistics, and the copy-balance
/// figures (skew, idle copies, per-copy residual) over all of `runs`. A
/// negative residual is reported as an error.
void stats_metrics(const std::vector<h4d::fs::RunStats>& runs, const Workload& w,
                   Report& report);

/// Write every feature map of `maps` as PGM slices under `dir` (what
/// `h4d analyze --out DIR` does); returns the bytes written.
std::int64_t write_images(
    const std::filesystem::path& dir,
    const std::map<h4d::haralick::Feature, h4d::Volume4<float>>& maps,
    const std::map<h4d::haralick::Feature, std::pair<float, float>>& ranges);

}  // namespace perfbench
