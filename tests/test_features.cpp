#include "haralick/features.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "haralick/directions.hpp"
#include "haralick/fast_log.hpp"
#include "oracle/reference.hpp"

namespace h4d::haralick {
namespace {

using oracle::compute_features;
using oracle::ZeroPolicy;

TEST(FastLog, AccuracyContractAgainstLibm) {
  // The documented bound: |fast_log(x) - log(x)| <= 1e-10 * max(1, |log x|)
  // for normal positive doubles. Sweep the probability range the entropy
  // terms actually see plus wide magnitude extremes.
  std::mt19937_64 rng(123);
  std::uniform_real_distribution<double> u01(1e-12, 1.0);
  std::uniform_real_distribution<double> uexp(-300.0, 300.0);
  auto check = [](double x) {
    const double want = std::log(x);
    const double got = fast_log(x);
    EXPECT_NEAR(got, want, 1e-10 * std::max(1.0, std::abs(want))) << "x=" << x;
  };
  for (int k = 0; k < 20000; ++k) check(u01(rng));
  for (int k = 0; k < 2000; ++k) check(std::exp2(uexp(rng)));
  for (double x : {1.0, 2.0, 0.5, 1.0 / 3.0, 1e-300, 1e300,
                   1.4142135623730951, 0.7071067811865476}) {
    check(x);
  }
}

TEST(FastLog, XlogxMatchesReferenceShape) {
  EXPECT_EQ(fast_xlogx(0.0), 0.0);
  EXPECT_EQ(fast_xlogx(-1.0), 0.0);
  EXPECT_NEAR(fast_xlogx(0.25), 0.25 * std::log(0.25), 1e-12);
  EXPECT_NEAR(fast_xlogx(1.0), 0.0, 1e-15);
}

Volume4<Level> random_volume(Vec4 dims, int ng, unsigned seed) {
  Volume4<Level> v(dims);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> u(0, ng - 1);
  for (Level& l : v.storage()) l = static_cast<Level>(u(rng));
  return v;
}

Glcm sample_glcm(int ng, unsigned seed, Vec4 dims = {7, 7, 3, 3}) {
  const Volume4<Level> v = random_volume(dims, ng, seed);
  Glcm g(ng);
  g.accumulate(v.view(), Region4::whole(dims), unique_directions(ActiveDims::all4()));
  return g;
}

TEST(FeatureSet, BasicOperations) {
  FeatureSet s;
  EXPECT_EQ(s.count(), 0);
  s.set(Feature::Entropy);
  s.set(Feature::Contrast);
  EXPECT_TRUE(s.has(Feature::Entropy));
  EXPECT_FALSE(s.has(Feature::Correlation));
  EXPECT_EQ(s.count(), 2);
  EXPECT_EQ(FeatureSet::all().count(), kNumFeatures);
  EXPECT_EQ(FeatureSet::from_mask(s.mask()), s);
}

TEST(FeatureSet, PaperEvalSelection) {
  const FeatureSet s = FeatureSet::paper_eval();
  EXPECT_EQ(s.count(), 4);
  EXPECT_TRUE(s.has(Feature::AngularSecondMoment));
  EXPECT_TRUE(s.has(Feature::Correlation));
  EXPECT_TRUE(s.has(Feature::SumOfSquaresVariance));
  EXPECT_TRUE(s.has(Feature::InverseDifferenceMoment));
}

TEST(FeatureNames, AllDistinct) {
  for (int i = 0; i < kNumFeatures; ++i) {
    for (int j = i + 1; j < kNumFeatures; ++j) {
      EXPECT_NE(feature_name(static_cast<Feature>(i)), feature_name(static_cast<Feature>(j)));
      EXPECT_NE(feature_slug(static_cast<Feature>(i)), feature_slug(static_cast<Feature>(j)));
    }
  }
}

// ---- hand-checked values on a tiny known matrix ----
//
// 2-level GLCM from counts {{2,1},{1,4}}: total 8.
// p = {{.25, .125}, {.125, .5}}
Glcm tiny_glcm() {
  Glcm g(2);
  g.set_raw({2, 1, 1, 4}, 8);
  return g;
}

TEST(Features, HandCheckedTinyMatrix) {
  const Glcm g = tiny_glcm();
  const FeatureVector f = compute_features(g, FeatureSet::all(), ZeroPolicy::VisitAll);

  // ASM = .0625 + .015625 + .015625 + .25 = .34375
  EXPECT_NEAR(f[Feature::AngularSecondMoment], 0.34375, 1e-12);
  // Contrast = sum k^2 p_diff(k); p_diff(1) = .25 => f2 = .25
  EXPECT_NEAR(f[Feature::Contrast], 0.25, 1e-12);
  // px = {.375, .625}; mu = .625; var = .625*.375 = .234375
  EXPECT_NEAR(f[Feature::SumOfSquaresVariance], 0.234375, 1e-12);
  // sum ij p = p(1,1) = .5; corr = (.5 - .625^2)/.234375 = .109375/.234375
  EXPECT_NEAR(f[Feature::Correlation], 0.109375 / 0.234375, 1e-12);
  // IDM = .25 + .5 + (.125+.125)/2 = .875
  EXPECT_NEAR(f[Feature::InverseDifferenceMoment], 0.875, 1e-12);
  // p_sum = {.25, .25, .5}; f6 = 0*.25 + 1*.25 + 2*.5 = 1.25
  EXPECT_NEAR(f[Feature::SumAverage], 1.25, 1e-12);
  // f7 = (0-1.25)^2*.25 + (1-1.25)^2*.25 + (2-1.25)^2*.5 = .6875
  EXPECT_NEAR(f[Feature::SumVariance], 0.6875, 1e-12);
  // f8 = -(.25 ln .25)*2 - .5 ln .5
  EXPECT_NEAR(f[Feature::SumEntropy], -2 * 0.25 * std::log(0.25) - 0.5 * std::log(0.5), 1e-12);
  // f9 = -(.25ln.25 + .5ln.5 + 2*.125ln.125)
  const double hxy = -(0.25 * std::log(0.25) + 0.5 * std::log(0.5) +
                       2 * 0.125 * std::log(0.125));
  EXPECT_NEAR(f[Feature::Entropy], hxy, 1e-12);
  // p_diff = {.75, .25}; mu_d = .25; f10 = .25*.75*... variance of Bernoulli(.25) = .1875
  EXPECT_NEAR(f[Feature::DifferenceVariance], 0.1875, 1e-12);
  EXPECT_NEAR(f[Feature::DifferenceEntropy],
              -(0.75 * std::log(0.75) + 0.25 * std::log(0.25)), 1e-12);
  // HX = -(.375 ln .375 + .625 ln .625); f12 = (HXY - 2HX)/HX
  const double hx = -(0.375 * std::log(0.375) + 0.625 * std::log(0.625));
  EXPECT_NEAR(f[Feature::InfoMeasureCorrelation1], (hxy - 2 * hx) / hx, 1e-12);
  EXPECT_NEAR(f[Feature::InfoMeasureCorrelation2],
              std::sqrt(1.0 - std::exp(-2.0 * (2 * hx - hxy))), 1e-12);
  // f14 in [0, 1]
  EXPECT_GE(f[Feature::MaximalCorrelationCoeff], 0.0);
  EXPECT_LE(f[Feature::MaximalCorrelationCoeff], 1.0);
}

// ---- path equivalence: the paper's three computation paths must agree ----

class FeaturePathEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(FeaturePathEquivalence, AllThreePathsAgree) {
  const Glcm g = sample_glcm(32, GetParam());
  const SparseGlcm s = SparseGlcm::from_dense(g);
  const FeatureSet set = FeatureSet::all();

  const FeatureVector a = compute_features(g, set, ZeroPolicy::VisitAll);
  const FeatureVector b = compute_features(g, set, ZeroPolicy::SkipZeros);
  const FeatureVector c = compute_features(s, set);

  for (int i = 0; i < kNumFeatures; ++i) {
    const Feature f = static_cast<Feature>(i);
    const double scale = std::max({1.0, std::abs(a[f])});
    EXPECT_NEAR(a[f], b[f], 1e-9 * scale) << feature_name(f);
    EXPECT_NEAR(a[f], c[f], 1e-9 * scale) << feature_name(f);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FeaturePathEquivalence,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 10u, 20u, 42u));

// ---- invariants over random matrices ----

class FeatureInvariants : public ::testing::TestWithParam<unsigned> {};

TEST_P(FeatureInvariants, RangesAndSanity) {
  const Glcm g = sample_glcm(32, GetParam());
  const FeatureVector f = compute_features(g, FeatureSet::all(), ZeroPolicy::SkipZeros);

  EXPECT_GT(f[Feature::AngularSecondMoment], 0.0);
  EXPECT_LE(f[Feature::AngularSecondMoment], 1.0);
  EXPECT_GE(f[Feature::Contrast], 0.0);
  EXPECT_GE(f[Feature::Correlation], -1.0 - 1e-9);
  EXPECT_LE(f[Feature::Correlation], 1.0 + 1e-9);
  EXPECT_GE(f[Feature::SumOfSquaresVariance], 0.0);
  EXPECT_GT(f[Feature::InverseDifferenceMoment], 0.0);
  EXPECT_LE(f[Feature::InverseDifferenceMoment], 1.0);
  EXPECT_GE(f[Feature::Entropy], 0.0);
  EXPECT_GE(f[Feature::SumEntropy], 0.0);
  EXPECT_GE(f[Feature::DifferenceEntropy], 0.0);
  EXPECT_LE(f[Feature::InfoMeasureCorrelation1], 0.0 + 1e-9);  // HXY <= HXY1
  EXPECT_GE(f[Feature::InfoMeasureCorrelation2], 0.0);
  EXPECT_LE(f[Feature::InfoMeasureCorrelation2], 1.0);
  EXPECT_GE(f[Feature::MaximalCorrelationCoeff], 0.0);
  EXPECT_LE(f[Feature::MaximalCorrelationCoeff], 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FeatureInvariants,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u, 16u));

TEST(Features, ConstantRegionExtremes) {
  // All pixels identical: ASM = 1, contrast = 0, IDM = 1, entropy = 0,
  // correlation defined as 1 (degenerate).
  Glcm g(32);
  std::vector<std::uint32_t> table(32 * 32, 0);
  table[5 * 32 + 5] = 100;
  g.set_raw(std::move(table), 100);
  const FeatureVector f = compute_features(g, FeatureSet::all(), ZeroPolicy::SkipZeros);
  EXPECT_DOUBLE_EQ(f[Feature::AngularSecondMoment], 1.0);
  EXPECT_DOUBLE_EQ(f[Feature::Contrast], 0.0);
  EXPECT_DOUBLE_EQ(f[Feature::InverseDifferenceMoment], 1.0);
  EXPECT_DOUBLE_EQ(f[Feature::Entropy], 0.0);
  EXPECT_DOUBLE_EQ(f[Feature::Correlation], 1.0);
  EXPECT_DOUBLE_EQ(f[Feature::SumOfSquaresVariance], 0.0);
}

TEST(Features, CheckerboardAntiCorrelated) {
  // Perfect alternation: p(0,1) = p(1,0) = .5 => correlation = -1.
  Glcm g(2);
  g.set_raw({0, 50, 50, 0}, 100);
  const FeatureVector f =
      compute_features(g, {Feature::Correlation, Feature::Contrast}, ZeroPolicy::SkipZeros);
  EXPECT_NEAR(f[Feature::Correlation], -1.0, 1e-12);
  EXPECT_NEAR(f[Feature::Contrast], 1.0, 1e-12);
}

TEST(Features, EmptyMatrixProducesZeros) {
  const Glcm g(16);
  const FeatureVector f = compute_features(g, FeatureSet::all(), ZeroPolicy::VisitAll);
  EXPECT_DOUBLE_EQ(f[Feature::AngularSecondMoment], 0.0);
  EXPECT_DOUBLE_EQ(f[Feature::Entropy], 0.0);
}

TEST(Features, UnselectedSlotsStayZero) {
  const Glcm g = sample_glcm(16, 3);
  const FeatureVector f =
      compute_features(g, {Feature::Contrast}, ZeroPolicy::SkipZeros);
  EXPECT_NE(f[Feature::Contrast], 0.0);
  EXPECT_DOUBLE_EQ(f[Feature::Entropy], 0.0);
  EXPECT_DOUBLE_EQ(f[Feature::AngularSecondMoment], 0.0);
}

TEST(Features, WorkCountersReflectZeroSkip) {
  // Smooth data gives a genuinely sparse matrix (uniform noise would not).
  Volume4<Level> v({7, 7, 3, 3});
  for (std::int64_t t = 0; t < 3; ++t)
    for (std::int64_t z = 0; z < 3; ++z)
      for (std::int64_t y = 0; y < 7; ++y)
        for (std::int64_t x = 0; x < 7; ++x)
          v.at(x, y, z, t) = static_cast<Level>((2 * x + y + z + t) / 2);
  Glcm g(32);
  g.accumulate(v.view(), Region4::whole(v.dims()), unique_directions(ActiveDims::all4()));
  ASSERT_LT(g.nonzero_upper(), 32 * 32 / 4);  // genuinely sparse sample

  WorkCounters all{}, skip{}, sparse{};
  compute_features(g, FeatureSet::paper_eval(), ZeroPolicy::VisitAll, &all);
  compute_features(g, FeatureSet::paper_eval(), ZeroPolicy::SkipZeros, &skip);
  compute_features(SparseGlcm::from_dense(g), FeatureSet::paper_eval(), &sparse);

  EXPECT_EQ(all.feature_cells_scanned, 32 * 32);
  EXPECT_EQ(skip.feature_cells_scanned, 32 * 32);  // still scans all cells
  EXPECT_GT(all.feature_cell_ops, skip.feature_cell_ops);  // but computes fewer
  EXPECT_LT(sparse.feature_cells_scanned, skip.feature_cells_scanned);
  EXPECT_EQ(sparse.feature_cell_ops, skip.feature_cell_ops);  // same math cells
}

TEST(Features, MaxCorrSparseMatchesDense) {
  for (unsigned seed : {31u, 32u, 33u}) {
    const Glcm g = sample_glcm(32, seed);
    const SparseGlcm s = SparseGlcm::from_dense(g);
    const FeatureVector a =
        compute_features(g, {Feature::MaximalCorrelationCoeff}, ZeroPolicy::SkipZeros);
    const FeatureVector b = compute_features(s, {Feature::MaximalCorrelationCoeff});
    EXPECT_NEAR(a[Feature::MaximalCorrelationCoeff], b[Feature::MaximalCorrelationCoeff],
                1e-8);
  }
}

}  // namespace
}  // namespace h4d::haralick
