// Section 4.4.1 micro-benchmark: the zero-skip optimization in dense feature
// loops ("this optimization allowed us to process a typical MRI dataset in
// one-fourth the time") and the sparse feature path, measured for real on
// this machine with google-benchmark.
#include <benchmark/benchmark.h>

#include <random>

#include "haralick/directions.hpp"
#include "haralick/features.hpp"
#include "oracle/reference.hpp"

namespace {

using namespace h4d;
using haralick::Feature;
using haralick::FeatureSet;
using haralick::Glcm;
using haralick::SparseGlcm;
using oracle::ZeroPolicy;

/// A GLCM with the paper's sparsity profile: smooth MRI-like ROI, Ng=32.
Glcm sparse_mri_like_glcm(int ng) {
  Volume4<Level> v({7, 7, 3, 3});
  std::mt19937_64 rng(1234);
  std::normal_distribution<double> jitter(0.0, 0.7);
  for (std::int64_t t = 0; t < 3; ++t)
    for (std::int64_t z = 0; z < 3; ++z)
      for (std::int64_t y = 0; y < 7; ++y)
        for (std::int64_t x = 0; x < 7; ++x) {
          const double base = static_cast<double>(x + y + z + t) / 18.0 * ng;
          const double val = std::clamp(base / 2.0 + jitter(rng), 0.0, ng - 1.0);
          v.at(x, y, z, t) = static_cast<Level>(val);
        }
  Glcm g(ng);
  g.accumulate(v.view(), Region4::whole(v.dims()),
               haralick::unique_directions(haralick::ActiveDims::all4()));
  return g;
}

const FeatureSet kPaperFeatures = FeatureSet::paper_eval();

void BM_Features_DenseVisitAll(benchmark::State& state) {
  const Glcm g = sparse_mri_like_glcm(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto fv = oracle::compute_features(g, kPaperFeatures, ZeroPolicy::VisitAll);
    benchmark::DoNotOptimize(fv);
  }
  state.counters["nnz"] = static_cast<double>(g.nonzero_upper());
}
BENCHMARK(BM_Features_DenseVisitAll)->Arg(32)->Arg(64)->Arg(128);

void BM_Features_DenseSkipZeros(benchmark::State& state) {
  const Glcm g = sparse_mri_like_glcm(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto fv = oracle::compute_features(g, kPaperFeatures, ZeroPolicy::SkipZeros);
    benchmark::DoNotOptimize(fv);
  }
}
BENCHMARK(BM_Features_DenseSkipZeros)->Arg(32)->Arg(64)->Arg(128);

void BM_Features_Sparse(benchmark::State& state) {
  const SparseGlcm s = SparseGlcm::from_dense(sparse_mri_like_glcm(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    auto fv = oracle::compute_features(s, kPaperFeatures);
    benchmark::DoNotOptimize(fv);
  }
}
BENCHMARK(BM_Features_Sparse)->Arg(32)->Arg(64)->Arg(128);

void BM_SparseCompression(benchmark::State& state) {
  const Glcm g = sparse_mri_like_glcm(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto s = SparseGlcm::from_dense(g);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_SparseCompression)->Arg(32)->Arg(64)->Arg(128);

}  // namespace

BENCHMARK_MAIN();
