#include "io/phantom.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

namespace h4d::io {

namespace {

/// Smooth 3D value noise: random values on a coarse lattice, trilinearly
/// interpolated. Deterministic for a given seed.
class ValueNoise3 {
 public:
  ValueNoise3(Vec4 dims, int cell, unsigned seed) : cell_(cell) {
    nx_ = dims[0] / cell + 2;
    ny_ = dims[1] / cell + 2;
    nz_ = dims[2] / cell + 2;
    lattice_.resize(static_cast<std::size_t>(nx_ * ny_ * nz_));
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    for (double& v : lattice_) v = u(rng);
  }

  double operator()(std::int64_t x, std::int64_t y, std::int64_t z) const {
    const double fx = static_cast<double>(x) / cell_;
    const double fy = static_cast<double>(y) / cell_;
    const double fz = static_cast<double>(z) / cell_;
    const auto ix = static_cast<std::int64_t>(fx);
    const auto iy = static_cast<std::int64_t>(fy);
    const auto iz = static_cast<std::int64_t>(fz);
    const double tx = smooth(fx - static_cast<double>(ix));
    const double ty = smooth(fy - static_cast<double>(iy));
    const double tz = smooth(fz - static_cast<double>(iz));

    double acc = 0.0;
    for (int dz = 0; dz <= 1; ++dz) {
      for (int dy = 0; dy <= 1; ++dy) {
        for (int dx = 0; dx <= 1; ++dx) {
          const double w = (dx ? tx : 1.0 - tx) * (dy ? ty : 1.0 - ty) * (dz ? tz : 1.0 - tz);
          acc += w * at(ix + dx, iy + dy, iz + dz);
        }
      }
    }
    return acc;
  }

 private:
  static double smooth(double t) { return t * t * (3.0 - 2.0 * t); }

  double at(std::int64_t i, std::int64_t j, std::int64_t k) const {
    i = std::clamp<std::int64_t>(i, 0, nx_ - 1);
    j = std::clamp<std::int64_t>(j, 0, ny_ - 1);
    k = std::clamp<std::int64_t>(k, 0, nz_ - 1);
    return lattice_[static_cast<std::size_t>((k * ny_ + j) * nx_ + i)];
  }

  int cell_;
  std::int64_t nx_, ny_, nz_;
  std::vector<double> lattice_;
};

}  // namespace

double enhancement_curve(double t, double uptake_rate, double washout_rate) {
  if (!(uptake_rate > washout_rate) || washout_rate <= 0.0) {
    throw std::invalid_argument("enhancement_curve: need uptake > washout > 0");
  }
  // Peak of e^{-b t} - e^{-a t} occurs at t* = ln(a/b)/(a-b).
  const double a = uptake_rate;
  const double b = washout_rate;
  const double tpeak = std::log(a / b) / (a - b);
  const double peak = std::exp(-b * tpeak) - std::exp(-a * tpeak);
  const double v = std::exp(-b * t) - std::exp(-a * t);
  return v / peak;
}

Phantom generate_phantom(const PhantomConfig& cfg) {
  if (!cfg.dims.all_positive()) {
    throw std::invalid_argument("generate_phantom: dims must be positive");
  }
  if (cfg.num_tumors < 0) {
    throw std::invalid_argument("generate_phantom: num_tumors must be >= 0");
  }
  if (!(cfg.noise_sigma >= 0.0)) {
    throw std::invalid_argument("generate_phantom: noise_sigma must be >= 0");
  }

  const Vec4 d = cfg.dims;
  Phantom out{Volume4<std::uint16_t>(d), {}};

  std::mt19937_64 rng(cfg.seed);
  const ValueNoise3 texture(d, cfg.texture_cell, cfg.seed + 1);
  const ValueNoise3 anatomy(d, cfg.texture_cell * 3, cfg.seed + 2);

  // Place tumors away from the borders.
  std::uniform_real_distribution<double> ux(0.2, 0.8);
  std::uniform_real_distribution<double> ur(0.05, 0.12);
  std::uniform_real_distribution<double> uamp(0.7, 1.0);
  std::uniform_real_distribution<double> uup(1.0, 2.0);
  std::uniform_real_distribution<double> uwash(0.08, 0.25);
  for (int i = 0; i < cfg.num_tumors; ++i) {
    Tumor t;
    t.center = {static_cast<std::int64_t>(ux(rng) * static_cast<double>(d[0])),
                static_cast<std::int64_t>(ux(rng) * static_cast<double>(d[1])),
                static_cast<std::int64_t>(ux(rng) * static_cast<double>(d[2])), 0};
    t.radii = {std::max<std::int64_t>(2, static_cast<std::int64_t>(ur(rng) * static_cast<double>(d[0]))),
               std::max<std::int64_t>(2, static_cast<std::int64_t>(ur(rng) * static_cast<double>(d[1]))),
               std::max<std::int64_t>(1, static_cast<std::int64_t>(ur(rng) * static_cast<double>(d[2]))),
               0};
    t.amplitude = cfg.tumor_amplitude * uamp(rng);
    t.uptake_rate = uup(rng);
    t.washout_rate = uwash(rng);
    out.tumors.push_back(t);
  }

  // normal_distribution requires sigma > 0; sigma == 0 draws no noise.
  const bool noisy = cfg.noise_sigma > 0.0;
  std::normal_distribution<double> noise(0.0, noisy ? cfg.noise_sigma : 1.0);

  for (std::int64_t t = 0; t < d[3]; ++t) {
    // Mild global intensity drift over time (scanner gain).
    const double drift = 1.0 + 0.02 * std::sin(0.7 * static_cast<double>(t));
    for (std::int64_t z = 0; z < d[2]; ++z) {
      for (std::int64_t y = 0; y < d[1]; ++y) {
        for (std::int64_t x = 0; x < d[0]; ++x) {
          double v = cfg.base_intensity * (1.0 + 0.35 * anatomy(x, y, z)) +
                     cfg.texture_amplitude * texture(x, y, z);
          for (const Tumor& tu : out.tumors) {
            const double ex = static_cast<double>(x - tu.center[0]) / static_cast<double>(tu.radii[0]);
            const double ey = static_cast<double>(y - tu.center[1]) / static_cast<double>(tu.radii[1]);
            const double ez = static_cast<double>(z - tu.center[2]) / static_cast<double>(tu.radii[2]);
            const double r2 = ex * ex + ey * ey + ez * ez;
            if (r2 < 1.0) {
              const double profile = 1.0 - r2;  // soft edge
              const double s = enhancement_curve(static_cast<double>(t), tu.uptake_rate,
                                                 tu.washout_rate);
              v += tu.amplitude * profile * s;
            }
          }
          v = drift * v + (noisy ? noise(rng) : 0.0);
          out.volume.at(x, y, z, t) =
              static_cast<std::uint16_t>(std::clamp(v, 0.0, 65535.0));
        }
      }
    }
  }
  return out;
}

Volume4<std::uint8_t> tumor_mask(const Vec4& dims, const std::vector<Tumor>& tumors) {
  Volume4<std::uint8_t> mask(dims, 0);
  for (std::int64_t t = 0; t < dims[3]; ++t) {
    for (std::int64_t z = 0; z < dims[2]; ++z) {
      for (std::int64_t y = 0; y < dims[1]; ++y) {
        for (std::int64_t x = 0; x < dims[0]; ++x) {
          for (const Tumor& tu : tumors) {
            const double ex = static_cast<double>(x - tu.center[0]) /
                              static_cast<double>(tu.radii[0]);
            const double ey = static_cast<double>(y - tu.center[1]) /
                              static_cast<double>(tu.radii[1]);
            const double ez = static_cast<double>(z - tu.center[2]) /
                              static_cast<double>(tu.radii[2]);
            if (ex * ex + ey * ey + ez * ez < 1.0) {
              mask.at(x, y, z, t) = 1;
              break;
            }
          }
        }
      }
    }
  }
  return mask;
}

}  // namespace h4d::io
