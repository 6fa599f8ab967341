// Per-layer probes of a traced run: each times calls into one module's
// public functions at the workload's configuration, or derives a layer's
// figures from the RunStats core::analyze_threaded returns.
#include <algorithm>
#include <numeric>

#include "bench.hpp"
#include "core/analysis.hpp"
#include "haralick/kernel.hpp"
#include "io/dataset.hpp"
#include "io/image_write.hpp"
#include "nd/chunking.hpp"
#include "nd/quantize.hpp"

namespace fsys = std::filesystem;
using namespace h4d;

namespace perfbench {

namespace {

/// Median wall time of `reps` calls of fn.
template <typename Fn>
double time_median(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int k = 0; k < reps; ++k) {
    const Clock::time_point t0 = Clock::now();
    fn();
    t.push_back(seconds_since(t0));
  }
  return median_of(std::move(t));
}

/// Origin of the k-th ROI in raster order (x fastest) of `region`.
Vec4 raster_point(const Region4& region, std::int64_t k) {
  Vec4 p;
  for (int d = 0; d < 4; ++d) {
    p[d] = region.origin[d] + k % region.size[d];
    k /= region.size[d];
  }
  return p;
}

void io_probes(const fsys::path& root, Report& r, SpanLog& spans) {
  {
    const ScopedSpan s(&spans, "io.DiskDataset::open", -1);
    r.scalars["io.open_s"] = time_median(25, [&] { (void)io::DiskDataset::open(root); });
  }
  // Every slice of every node through StorageNodeReader::read_slice_bytes on
  // one thread. The files were just written, so these are page-cache reads.
  const io::DiskDataset ds = io::DiskDataset::open(root);
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(ds.meta().slice_bytes()));
  std::int64_t bytes = 0;
  const ScopedSpan s(&spans, "io.read_slice_bytes", -1);
  const double read_s = time_median(3, [&] {
    bytes = 0;
    for (int n = 0; n < ds.num_nodes(); ++n) {
      const io::StorageNodeReader reader = ds.node_reader(n);
      for (const io::SliceRef& slice : reader.slices()) {
        reader.read_slice_bytes(slice, buf.data());
        bytes += static_cast<std::int64_t>(buf.size());
      }
    }
  });
  r.scalars["io.read_s"] = read_s;
  r.scalars["io.read_bytes"] = static_cast<double>(bytes);
}

void nd_probes(const Workload& w, const Volume4<std::uint16_t>& volume, const io::DatasetMeta& meta,
               int num_levels, Report& r, SpanLog& spans) {
  {
    const ScopedSpan s(&spans, "nd.quantize_into", -1);
    const Quantizer q(meta.value_min, meta.value_max, num_levels);
    Volume4<Level> out(volume.dims());
    r.scalars["nd.quantize_s"] = time_median(
        5, [&] { quantize_into<std::uint16_t>(volume.view(), q, out.view()); });
  }
  // Eqs. 1-2 chunking of the texture stage: how many chunks, how evenly
  // they own ROI origins, and how much data the overlap duplicates.
  const std::vector<Chunk> chunks =
      partition_overlapping(w.dims, w.config.texture_chunk, w.config.engine.roi_dims);
  const int copies = w.config.variant == core::Variant::HMP ? w.config.hmp_copies
                                                            : w.config.hcc_copies;
  std::int64_t owned_max = 0;
  std::int64_t owned_sum = 0;
  std::int64_t data_sum = 0;
  for (const Chunk& c : chunks) {
    owned_max = std::max(owned_max, c.owned_origins.volume());
    owned_sum += c.owned_origins.volume();
    data_sum += c.region.volume();
  }
  const double n = static_cast<double>(chunks.size());
  r.scalars["nd.chunks"] = n;
  r.scalars["nd.chunks_per_copy"] = n / copies;
  r.scalars["nd.owned_roi_skew"] = static_cast<double>(owned_max) / (owned_sum / n);
  r.scalars["nd.overlap_dup_ratio"] =
      static_cast<double>(data_sum) / static_cast<double>(w.dims.volume());
}

/// Single-thread replay of the ROI kernel on an evenly spaced sample of ROI
/// origins: construction (accumulate + finalize_add) and the Fast-mode fused
/// feature sweep, each timed per ROI.
void haralick_probes(const Volume4<Level>& levels, const haralick::EngineConfig& engine,
                     Report& r, SpanLog& spans) {
  constexpr std::int64_t kSample = 20000;
  const Region4 origins = roi_origin_region(levels.dims(), engine.roi_dims);
  const std::int64_t total = origins.volume();
  const std::int64_t n = std::min(total, kSample);
  const std::vector<Vec4> dirs = engine.effective_directions();
  haralick::KernelScratch scratch(engine.num_levels);
  haralick::Glcm glcm(engine.num_levels);
  double construct_s = 0.0;
  double sweep_s = 0.0;
  std::int64_t updates = 0;
  double checksum = 0.0;
  const ScopedSpan s(&spans, "haralick.replay", -1);
  for (std::int64_t k = 0; k < n; ++k) {
    const Region4 roi(raster_point(origins, k * total / n), engine.roi_dims);
    Clock::time_point t0 = Clock::now();
    updates += scratch.accumulate(levels.view(), roi, dirs);
    scratch.finalize_add(glcm);
    construct_s += seconds_since(t0);
    glcm.clear();

    scratch.accumulate(levels.view(), roi, dirs);
    t0 = Clock::now();
    const haralick::FeatureVector f =
        scratch.features_fused(engine.features, nullptr, nullptr, haralick::SweepMode::Fast);
    sweep_s += seconds_since(t0);
    checksum += f[haralick::Feature::AngularSecondMoment];
  }
  r.scalars["haralick.rois_sampled"] = static_cast<double>(n);
  r.scalars["haralick.construct_us_per_roi"] = construct_s * 1e6 / static_cast<double>(n);
  r.scalars["haralick.sweep_us_per_roi"] = sweep_s * 1e6 / static_cast<double>(n);
  r.scalars["haralick.pair_updates_per_roi"] =
      static_cast<double>(updates) / static_cast<double>(n);
  if (!(checksum > 0.0)) r.errors.push_back("kernel replay produced no angular second moment");
}

}  // namespace

void layer_probes(const Workload& w, const fsys::path& dataset,
                  const haralick::EngineConfig& haralick_engine, Report& r, SpanLog& spans) {
  io_probes(dataset, r, spans);
  const io::DiskDataset ds = io::DiskDataset::open(dataset);
  const Volume4<std::uint16_t> volume = ds.read_all();
  nd_probes(w, volume, ds.meta(), w.config.engine.num_levels, r, spans);
  haralick_probes(quantize_volume(volume, haralick_engine.num_levels), haralick_engine, r, spans);

  core::PipelineConfig cfg = w.config;
  cfg.dataset_root = dataset;
  cfg.output = core::OutputMode::Collect;
  const ScopedSpan s(&spans, "core.build_pipeline", -1);
  r.scalars["core.build_pipeline_s"] = time_median(25, [&] {
    (void)core::build_pipeline(cfg, std::make_shared<filters::CollectedResults>());
  });
}

void stats_metrics(const std::vector<fs::RunStats>& runs, const Workload& w, Report& r) {
  const bool hmp = w.config.variant == core::Variant::HMP;
  const fs::RunStats& last = runs.back();
  // Texture stage: the HMP copies, or the HCC and HPC copies together.
  auto in_group = [&](const fs::CopyStats& c, const std::string& group) {
    if (group == "texture") return c.filter == (hmp ? "HMP" : "HCC") || c.filter == "HPC";
    return c.filter == group;
  };
  for (const std::string group : {"RFR", "IIC", "texture", "HIC", "Collector"}) {
    double busy = 0.0, in = 0.0, out = 0.0;
    int copies = 0;
    for (const fs::CopyStats& c : last.copies) {
      if (!in_group(c, group)) continue;
      busy += c.busy_seconds;
      in += c.blocked_input_seconds;
      out += c.blocked_output_seconds;
      ++copies;
    }
    const std::string p = "filters." + group + ".";
    r.scalars[p + "busy_s"] = busy;
    r.scalars[p + "blocked_in_s"] = in;
    r.scalars[p + "blocked_out_s"] = out;
    r.scalars[p + "util"] = copies ? busy / (copies * last.total_seconds) : 0.0;
  }
  r.scalars["filters.HCC.bytes_out_mb"] = static_cast<double>(last.total_bytes_out("HCC")) / 1e6;
  r.scalars["filters.HMP.bytes_out_mb"] = static_cast<double>(last.total_bytes_out("HMP")) / 1e6;
  // Producer time stalled on full inboxes, as a share of the run's wall time
  // (a ratio: on most workloads no inbox ever fills and it is exactly 0).
  double stall = 0.0;
  for (const fs::CopyStats& c : last.copies) stall += c.enqueue_stall_seconds;
  r.scalars["fs.enqueue_stall_share"] = stall / last.total_seconds;

  // Copy balance of the chunk-consuming texture copies (HMP or HCC). Which
  // copy the demand-driven router hands a chunk to changes from run to run,
  // so skew and idle copies are means over all runs given.
  const std::string consumer = hmp ? "HMP" : "HCC";
  double skew_sum = 0.0;
  double idle_sum = 0.0;
  double residual_max = -1e300;
  double residual_min = 1e300;
  for (const fs::RunStats& run : runs) {
    std::vector<double> busy;
    for (const fs::CopyStats& c : run.copies) {
      if (c.filter != consumer) continue;
      busy.push_back(c.busy_seconds);
      if (c.meter.buffers_in == 0) idle_sum += 1.0;
      const double residual =
          c.finish_time - c.busy_seconds - c.blocked_input_seconds - c.blocked_output_seconds;
      residual_max = std::max(residual_max, residual);
      residual_min = std::min(residual_min, residual);
    }
    const double mean = std::accumulate(busy.begin(), busy.end(), 0.0) / busy.size();
    skew_sum += *std::max_element(busy.begin(), busy.end()) / mean;
  }
  const double n = static_cast<double>(runs.size());
  r.scalars["fs.texture_copy_skew"] = skew_sum / n;
  r.scalars["fs.idle_texture_copies"] = idle_sum / n;
  r.scalars["fs.balance_runs"] = n;
  r.scalars["fs.residual_s_max"] = residual_max;
  r.scalars["fs.residual_s_min"] = residual_min;
  // A copy cannot be busy or blocked for longer than it existed; allow only
  // clock-read granularity.
  if (residual_min < -1e-3) {
    r.errors.push_back("negative copy residual " + std::to_string(residual_min) + " s");
  }
}

std::int64_t write_images(const fsys::path& dir,
                          const std::map<haralick::Feature, Volume4<float>>& maps,
                          const std::map<haralick::Feature, std::pair<float, float>>& ranges) {
  for (const auto& [feature, map] : maps) {
    const auto [lo, hi] = ranges.at(feature);
    io::write_feature_map_images(dir, std::string(haralick::feature_slug(feature)), map, lo, hi);
  }
  std::int64_t bytes = 0;
  for (const auto& entry : fsys::directory_iterator(dir)) {
    bytes += static_cast<std::int64_t>(entry.file_size());
  }
  return bytes;
}

}  // namespace perfbench
