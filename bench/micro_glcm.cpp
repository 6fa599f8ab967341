// Micro-benchmark of the co-occurrence construction kernel: the cache-aware
// kernel (haralick/kernel.hpp) A/B'd against the reference dual-store loop
// (tests/oracle), across ROI sizes and direction counts, and a whole HMP
// chunk built by the per-origin scan against the column histograms,
// measured for real on this machine.
//
// Two modes:
//   * default: google-benchmark tables (interactive exploration);
//   * --json FILE: the committed-baseline flow — times the labeled
//     configurations with the best-of-N harness in micro_common.hpp and
//     writes an h4d-bench-metrics-v1 document for tools/check_bench.py
//     (see BENCH_kernel.json and EXPERIMENTS.md).
#include <benchmark/benchmark.h>

#include "haralick/directions.hpp"
#include "haralick/kernel.hpp"
#include "haralick/roi_engine.hpp"
#include "micro_common.hpp"
#include "nd/raster.hpp"
#include "oracle/reference.hpp"

namespace {

using namespace h4d;
using haralick::ActiveDims;
using h4d::bench::mri_like;

void BM_GlcmAccumulate_Reference_AllDirections(benchmark::State& state) {
  const std::int64_t r = state.range(0);
  const Vec4 roi{r, r, 3, 3};
  const auto v = mri_like({r + 4, r + 4, 7, 7}, 32);
  const auto dirs = haralick::unique_directions(ActiveDims::all4());
  haralick::Glcm g(32);
  for (auto _ : state) {
    g.clear();
    oracle::accumulate_reference(g, v.view(), Region4{{2, 2, 2, 2}, roi}, dirs);
    benchmark::DoNotOptimize(g);
  }
  state.counters["pair_updates_per_roi"] = static_cast<double>(g.total());
}
BENCHMARK(BM_GlcmAccumulate_Reference_AllDirections)->Arg(5)->Arg(7)->Arg(11);

void BM_GlcmAccumulate_Kernel_AllDirections(benchmark::State& state) {
  const std::int64_t r = state.range(0);
  const Vec4 roi{r, r, 3, 3};
  const auto v = mri_like({r + 4, r + 4, 7, 7}, 32);
  const auto dirs = haralick::unique_directions(ActiveDims::all4());
  haralick::KernelScratch scratch(32);
  haralick::Glcm g(32);
  for (auto _ : state) {
    g.clear();
    g.accumulate(v.view(), Region4{{2, 2, 2, 2}, roi}, dirs, &scratch);
    benchmark::DoNotOptimize(g);
  }
  state.counters["pair_updates_per_roi"] = static_cast<double>(g.total());
}
BENCHMARK(BM_GlcmAccumulate_Kernel_AllDirections)->Arg(5)->Arg(7)->Arg(11);

void BM_GlcmAccumulate_AxisDirections(benchmark::State& state) {
  const std::int64_t r = state.range(0);
  const Vec4 roi{r, r, 3, 3};
  const auto v = mri_like({r + 4, r + 4, 7, 7}, 32);
  const auto dirs = haralick::axis_directions(ActiveDims::all4());
  haralick::Glcm g(32);
  for (auto _ : state) {
    g.clear();
    g.accumulate(v.view(), Region4{{2, 2, 2, 2}, roi}, dirs);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_GlcmAccumulate_AxisDirections)->Arg(5)->Arg(7)->Arg(11);

void BM_AnalyzeChunk_FullPipelineKernel(benchmark::State& state) {
  // One HMP work unit: a chunk's worth of ROIs end to end.
  const auto v = mri_like({24, 24, 6, 6}, 32);
  haralick::EngineConfig cfg;
  cfg.roi_dims = {5, 5, 3, 3};
  cfg.num_levels = 32;
  cfg.representation = state.range(0) == 0 ? haralick::Representation::Full
                                           : haralick::Representation::Sparse;
  const Region4 whole = Region4::whole(v.dims());
  const Region4 owned = roi_origin_region(v.dims(), cfg.roi_dims);
  haralick::KernelScratch scratch(32);
  for (auto _ : state) {
    auto blocks = haralick::analyze_chunk(v.view(), whole, owned, cfg, nullptr, &scratch);
    benchmark::DoNotOptimize(blocks);
  }
  state.SetLabel(state.range(0) == 0 ? "full" : "sparse");
}
BENCHMARK(BM_AnalyzeChunk_FullPipelineKernel)->Arg(0)->Arg(1);

// ---- committed-baseline mode (--json) ----

/// Times one (volume, roi, dirs, ng) configuration through both construction
/// paths. Each op rebuilds the dense matrix from scratch, exactly what the
/// engine does per ROI position.
void json_glcm_pair(std::vector<h4d::bench::MicroRun>& runs, const std::string& config,
                    const Volume4<Level>& v, const Region4& roi,
                    const std::vector<Vec4>& dirs, int ng) {
  haralick::Glcm g(ng);
  const double pairs =
      static_cast<double>(oracle::accumulate_reference(g, v.view(), roi, dirs));

  g.clear();
  const double ref_ns = h4d::bench::measure_ns_per_op([&] {
    g.clear();
    oracle::accumulate_reference(g, v.view(), roi, dirs);
  });

  haralick::KernelScratch scratch(ng);
  g.clear();
  const double ker_ns = h4d::bench::measure_ns_per_op([&] {
    g.clear();
    g.accumulate(v.view(), roi, dirs, &scratch);
  });

  runs.push_back({"glcm_reference/" + config,
                  {{"ns_per_roi", ref_ns},
                   {"pair_updates_per_roi", pairs},
                   {"pair_updates_per_sec", pairs / (ref_ns * 1e-9)}}});
  runs.push_back({"glcm_kernel/" + config,
                  {{"ns_per_roi", ker_ns},
                   {"pair_updates_per_roi", pairs},
                   {"pair_updates_per_sec", pairs / (ker_ns * 1e-9)}}});
}

/// Times one HMP chunk through both construction paths, construction plus
/// the Fast sweep with the paper features: the per-origin scan (accumulate +
/// features_fused per ROI) and analyze_chunk (the column histograms).
void json_chunk_pair(std::vector<h4d::bench::MicroRun>& runs, const std::string& config,
                     const Volume4<Level>& v, haralick::EngineConfig cfg) {
  cfg.sweep_mode = haralick::SweepMode::Fast;
  const Vec4 roi_dims = cfg.roi_dims;
  const auto dirs = cfg.effective_directions();
  const Region4 whole = Region4::whole(v.dims());
  const Region4 owned = roi_origin_region(v.dims(), roi_dims);
  const auto rois = static_cast<double>(owned.volume());
  haralick::KernelScratch scratch(cfg.num_levels);

  double sink = 0.0;
  const double scan_ns = h4d::bench::measure_ns_per_op([&] {
    for (const Vec4& o : raster(owned)) {
      scratch.accumulate(v.view(), Region4{o, roi_dims}, dirs);
      sink += scratch.features_fused(cfg.features, nullptr, nullptr, cfg.sweep_mode,
                                     cfg.representation)[haralick::Feature::Correlation];
    }
  });
  const double col_ns = h4d::bench::measure_ns_per_op([&] {
    const auto blocks = haralick::analyze_chunk(v.view(), whole, owned, cfg, nullptr, &scratch);
    sink += blocks[0].values[0];
  });
  benchmark::DoNotOptimize(sink);

  runs.push_back({"chunk_scan/" + config,
                  {{"ns_per_roi", scan_ns / rois}, {"rois_per_chunk", rois}}});
  runs.push_back({"chunk_columns/" + config,
                  {{"ns_per_roi", col_ns / rois}, {"rois_per_chunk", rois}}});
}

int run_json(const std::string& path) {
  std::vector<h4d::bench::MicroRun> runs;

  // The paper configuration (Sec. 5.1): 7x7x3x3 ROI, the 13 unique 3D
  // directions, Ng=32 — the acceptance gate compares these two rows.
  {
    const auto v = mri_like({11, 11, 7, 7}, 32);
    const Region4 roi{{2, 2, 2, 2}, {7, 7, 3, 3}};
    json_glcm_pair(runs, "paper_roi7x7x3x3_dirs13_ng32", v, roi,
                   haralick::unique_directions(ActiveDims::spatial3()), 32);
  }
  // Full 4D neighborhood (40 unique directions) on the same ROI.
  {
    const auto v = mri_like({11, 11, 7, 7}, 32);
    const Region4 roi{{2, 2, 2, 2}, {7, 7, 3, 3}};
    json_glcm_pair(runs, "all4_roi7x7x3x3_dirs40_ng32", v, roi,
                   haralick::unique_directions(ActiveDims::all4()), 32);
  }
  // A whole hmp_balanced chunk in the shipped configuration (40 directions,
  // paper features, Fast sweep): 10x10x6x4 owned ROIs. Its 32 levels make
  // the row histograms too large, so it rebuilds each (z, t) row's column
  // histograms. The gate compares the column path with the per-origin scan.
  {
    haralick::EngineConfig cfg;
    cfg.roi_dims = {7, 7, 3, 3};
    cfg.num_levels = 32;
    json_chunk_pair(runs, "all4_roi7x7x3x3_dirs40_ng32_chunk16x16x8x6",
                    mri_like({16, 16, 8, 6}, 32), cfg);
  }
  // A survey_io chunk (8 axis directions, ROI 3^4, Ng = 8): 30x30x6x4 owned
  // ROIs over 7 of the 8 levels, like most of that phantom's chunks. Its
  // row histograms fit (63 x 2 x 32 x 32 bins = 252 KiB), so it slides
  // them in z; the same gate covers that path.
  {
    haralick::EngineConfig cfg;
    cfg.roi_dims = {3, 3, 3, 3};
    cfg.num_levels = 8;
    cfg.directions = haralick::axis_directions(ActiveDims::all4());
    json_chunk_pair(runs, "axis4_roi3x3x3x3_dirs8_ng8_chunk32x32x8x6",
                    mri_like({32, 32, 8, 6}, 7), cfg);
  }
  // Large-Ng stress: the tile no longer fits L1; the fold dominates less.
  {
    const auto v = mri_like({15, 15, 7, 7}, 256);
    const Region4 roi{{2, 2, 2, 2}, {11, 11, 3, 3}};
    json_glcm_pair(runs, "all4_roi11x11x3x3_dirs40_ng256", v, roi,
                   haralick::unique_directions(ActiveDims::all4()), 256);
  }

  return h4d::bench::write_micro_json("micro_glcm", runs, path);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  if (h4d::bench::json_output_path(argc, argv, json_path)) return run_json(json_path);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
