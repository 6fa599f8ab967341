#include "io/phantom.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "haralick/directions.hpp"
#include "haralick/glcm_sparse.hpp"
#include "nd/quantize.hpp"

namespace h4d::io {
namespace {

PhantomConfig small_config() {
  PhantomConfig cfg;
  cfg.dims = {24, 24, 8, 6};
  cfg.num_tumors = 2;
  cfg.seed = 99;
  return cfg;
}

TEST(EnhancementCurve, PeaksAtOneAndDecays) {
  const double up = 1.5, down = 0.15;
  const double tpeak = std::log(up / down) / (up - down);
  EXPECT_NEAR(enhancement_curve(tpeak, up, down), 1.0, 1e-12);
  EXPECT_NEAR(enhancement_curve(0.0, up, down), 0.0, 1e-12);
  // Monotone rise before the peak, decay after.
  EXPECT_LT(enhancement_curve(tpeak / 2, up, down), 1.0);
  EXPECT_GT(enhancement_curve(tpeak / 2, up, down), 0.0);
  EXPECT_LT(enhancement_curve(tpeak * 4, up, down), enhancement_curve(tpeak, up, down));
}

TEST(EnhancementCurve, RejectsUnphysicalRates) {
  EXPECT_THROW(enhancement_curve(1.0, 0.1, 0.5), std::invalid_argument);
  EXPECT_THROW(enhancement_curve(1.0, 0.5, 0.0), std::invalid_argument);
  EXPECT_THROW(enhancement_curve(1.0, 0.5, -0.1), std::invalid_argument);
}

TEST(Phantom, DeterministicForSeed) {
  const Phantom a = generate_phantom(small_config());
  const Phantom b = generate_phantom(small_config());
  EXPECT_EQ(a.volume.storage(), b.volume.storage());
  ASSERT_EQ(a.tumors.size(), b.tumors.size());
  for (std::size_t i = 0; i < a.tumors.size(); ++i) {
    EXPECT_EQ(a.tumors[i].center, b.tumors[i].center);
  }
}

TEST(Phantom, DifferentSeedDiffers) {
  PhantomConfig c1 = small_config();
  PhantomConfig c2 = small_config();
  c2.seed = 100;
  EXPECT_NE(generate_phantom(c1).volume.storage(), generate_phantom(c2).volume.storage());
}

TEST(Phantom, RequestedDimsAndTumorCount) {
  const Phantom p = generate_phantom(small_config());
  EXPECT_EQ(p.volume.dims(), Vec4(24, 24, 8, 6));
  EXPECT_EQ(p.tumors.size(), 2u);
}

TEST(Phantom, TumorsEnhanceOverTime) {
  PhantomConfig cfg = small_config();
  cfg.noise_sigma = 0.0;  // isolate the enhancement signal
  const Phantom p = generate_phantom(cfg);
  for (const Tumor& tu : p.tumors) {
    const Vec4 c = tu.center;
    // Center voxel brightens from t=0 to its uptake peak.
    const double t0 = p.volume.at(c[0], c[1], c[2], 0);
    double peak = t0;
    for (std::int64_t t = 1; t < cfg.dims[3]; ++t) {
      peak = std::max(peak, static_cast<double>(p.volume.at(c[0], c[1], c[2], t)));
    }
    EXPECT_GT(peak, t0 + 0.3 * tu.amplitude)
        << "tumor at " << c.str() << " does not enhance";
  }
}

TEST(Phantom, IntensitiesWithinU16AndNonDegenerate) {
  const Phantom p = generate_phantom(small_config());
  std::uint16_t lo = 65535, hi = 0;
  for (auto v : p.volume.storage()) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_LT(lo, hi);
  EXPECT_GT(hi, 500);  // carries real signal
}

TEST(Phantom, ZeroTumorsAllowed) {
  PhantomConfig cfg = small_config();
  cfg.num_tumors = 0;
  const Phantom p = generate_phantom(cfg);
  EXPECT_TRUE(p.tumors.empty());
}

TEST(Phantom, RejectsBadConfig) {
  PhantomConfig cfg = small_config();
  cfg.dims = {0, 24, 8, 6};
  EXPECT_THROW(generate_phantom(cfg), std::invalid_argument);
  cfg = small_config();
  cfg.num_tumors = -1;
  EXPECT_THROW(generate_phantom(cfg), std::invalid_argument);
  cfg = small_config();
  cfg.noise_sigma = -1.0;
  EXPECT_THROW(generate_phantom(cfg), std::invalid_argument);
  cfg.noise_sigma = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(generate_phantom(cfg), std::invalid_argument);
}

TEST(Phantom, GlcmsAreSparseAtNg32) {
  // The paper's premise (Sec. 4.4.1): requantized MRI-like data yields ~1%
  // dense co-occurrence matrices on typical ROIs. Verify the phantom
  // reproduces that property (the motivation for the sparse representation).
  PhantomConfig cfg;
  cfg.dims = {32, 32, 8, 6};
  cfg.seed = 5;
  const Phantom p = generate_phantom(cfg);
  const Volume4<Level> q = quantize_volume(p.volume, 32);

  const auto dirs = haralick::unique_directions(haralick::ActiveDims::all4());
  const Vec4 roi{7, 7, 3, 3};
  double total_nnz = 0;
  int n = 0;
  for (std::int64_t x = 0; x + roi[0] <= 32; x += 6) {
    for (std::int64_t y = 0; y + roi[1] <= 32; y += 6) {
      haralick::Glcm g(32);
      g.accumulate(q.view(), Region4{{x, y, 2, 1}, roi}, dirs);
      total_nnz += static_cast<double>(g.nonzero_upper());
      ++n;
    }
  }
  const double avg_density = total_nnz / n / (32.0 * 32.0);
  EXPECT_LT(avg_density, 0.12) << "phantom GLCMs not sparse enough";
  EXPECT_GT(avg_density, 0.001) << "phantom GLCMs degenerate";
}

}  // namespace
}  // namespace h4d::io
