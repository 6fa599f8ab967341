// Micro-benchmark of the feature pass (the HPC stage's inner loop): the three
// reference passes of tests/oracle (dense VisitAll, dense SkipZeros, sparse
// from_dense + compute) against the kernel's feature sweep, which gathers the
// sparse entry list from the tile and reduces all fourteen features from it.
//
// Two modes, matching micro_glcm:
//   * default: google-benchmark tables;
//   * --json FILE: h4d-bench-metrics-v1 emission for BENCH_kernel.json /
//     tools/check_bench.py.
#include <benchmark/benchmark.h>

#include "haralick/directions.hpp"
#include "haralick/features.hpp"
#include "haralick/kernel.hpp"
#include "micro_common.hpp"
#include "oracle/reference.hpp"

namespace {

using namespace h4d;
using haralick::ActiveDims;
using h4d::bench::mri_like;

/// The paper-configuration GLCM every benchmark below consumes: 7x7x3x3 ROI,
/// 13 unique 3D directions, Ng=32.
haralick::Glcm paper_glcm() {
  const auto v = mri_like({11, 11, 7, 7}, 32);
  haralick::Glcm g(32);
  oracle::accumulate_reference(g, v.view(), Region4{{2, 2, 2, 2}, {7, 7, 3, 3}},
                               haralick::unique_directions(ActiveDims::spatial3()));
  return g;
}

void BM_Features_DenseVisitAll(benchmark::State& state) {
  const haralick::Glcm g = paper_glcm();
  for (auto _ : state) {
    auto fv = oracle::compute_features(g, haralick::FeatureSet::all(),
                                       oracle::ZeroPolicy::VisitAll);
    benchmark::DoNotOptimize(fv);
  }
}
BENCHMARK(BM_Features_DenseVisitAll);

void BM_Features_DenseSkipZeros(benchmark::State& state) {
  const haralick::Glcm g = paper_glcm();
  for (auto _ : state) {
    auto fv = oracle::compute_features(g, haralick::FeatureSet::all(),
                                       oracle::ZeroPolicy::SkipZeros);
    benchmark::DoNotOptimize(fv);
  }
}
BENCHMARK(BM_Features_DenseSkipZeros);

void BM_Features_SparseReference(benchmark::State& state) {
  // What the sparse-representation engine did per ROI before the fused sweep:
  // compress the dense matrix, then loop the entry list.
  const haralick::Glcm g = paper_glcm();
  for (auto _ : state) {
    const auto sp = haralick::SparseGlcm::from_dense(g);
    auto fv = oracle::compute_features(sp, haralick::FeatureSet::all());
    benchmark::DoNotOptimize(fv);
  }
}
BENCHMARK(BM_Features_SparseReference);

void BM_Features_KernelFused(benchmark::State& state) {
  // features_fused consumes (and resets) the scratch, so each iteration
  // re-accumulates; subtract BM_GlcmAccumulate_Kernel to isolate the sweep.
  const auto v = mri_like({11, 11, 7, 7}, 32);
  const Region4 roi{{2, 2, 2, 2}, {7, 7, 3, 3}};
  const auto dirs = haralick::unique_directions(ActiveDims::spatial3());
  haralick::KernelScratch scratch(32);
  for (auto _ : state) {
    scratch.accumulate(v.view(), roi, dirs);
    auto fv = scratch.features_fused(haralick::FeatureSet::all(), nullptr, nullptr,
                                     haralick::SweepMode::Fast);
    benchmark::DoNotOptimize(fv);
  }
}
BENCHMARK(BM_Features_KernelFused);

// ---- committed-baseline mode (--json) ----

int run_json(const std::string& path) {
  std::vector<h4d::bench::MicroRun> runs;

  const auto v = mri_like({11, 11, 7, 7}, 32);
  const Region4 roi{{2, 2, 2, 2}, {7, 7, 3, 3}};
  const auto dirs = haralick::unique_directions(ActiveDims::spatial3());
  const haralick::FeatureSet set = haralick::FeatureSet::all();
  const std::string config = "paper_roi7x7x3x3_dirs13_ng32";

  const haralick::Glcm g = paper_glcm();
  const double nnz = static_cast<double>(haralick::SparseGlcm::from_dense(g).nnz());

  // Feature pass alone, from a prebuilt dense matrix.
  const double visitall_ns = h4d::bench::measure_ns_per_op([&] {
    auto fv = oracle::compute_features(g, set, oracle::ZeroPolicy::VisitAll);
    benchmark::DoNotOptimize(fv);
  });
  const double skipzeros_ns = h4d::bench::measure_ns_per_op([&] {
    auto fv = oracle::compute_features(g, set, oracle::ZeroPolicy::SkipZeros);
    benchmark::DoNotOptimize(fv);
  });
  const double sparse_ns = h4d::bench::measure_ns_per_op([&] {
    const auto sp = haralick::SparseGlcm::from_dense(g);
    auto fv = oracle::compute_features(sp, set);
    benchmark::DoNotOptimize(fv);
  });

  runs.push_back({"features_dense_visitall/" + config,
                  {{"ns_per_roi", visitall_ns}, {"nnz", nnz}}});
  runs.push_back({"features_dense_skipzeros/" + config,
                  {{"ns_per_roi", skipzeros_ns}, {"nnz", nnz}}});
  runs.push_back({"features_sparse_reference/" + config,
                  {{"ns_per_roi", sparse_ns}, {"nnz", nnz}}});

  // End to end per ROI position in sparse mode: build + compress + features.
  // These two rows are the apples-to-apples fused-pipeline comparison.
  haralick::Glcm ref_g(32);
  const double ref_e2e_ns = h4d::bench::measure_ns_per_op([&] {
    ref_g.clear();
    oracle::accumulate_reference(ref_g, v.view(), roi, dirs);
    const auto sp = haralick::SparseGlcm::from_dense(ref_g);
    auto fv = oracle::compute_features(sp, set);
    benchmark::DoNotOptimize(fv);
  });
  haralick::KernelScratch scratch(32);
  const double fused_e2e_ns = h4d::bench::measure_ns_per_op([&] {
    scratch.accumulate(v.view(), roi, dirs);
    auto fv = scratch.features_fused(set, nullptr, nullptr, haralick::SweepMode::Fast);
    benchmark::DoNotOptimize(fv);
  });
  const double strict_e2e_ns = h4d::bench::measure_ns_per_op([&] {
    scratch.accumulate(v.view(), roi, dirs);
    auto fv = scratch.features_fused(set, nullptr, nullptr, haralick::SweepMode::Strict);
    benchmark::DoNotOptimize(fv);
  });

  runs.push_back({"roi_reference_sparse/" + config,
                  {{"ns_per_roi", ref_e2e_ns}, {"nnz", nnz}}});
  runs.push_back({"roi_kernel_fused/" + config,
                  {{"ns_per_roi", fused_e2e_ns}, {"nnz", nnz}}});
  runs.push_back({"roi_kernel_fused_strict/" + config,
                  {{"ns_per_roi", strict_e2e_ns}, {"nnz", nnz}}});

  return h4d::bench::write_micro_json("micro_features", runs, path);
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
