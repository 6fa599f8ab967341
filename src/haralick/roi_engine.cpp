#include "haralick/roi_engine.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "haralick/directions.hpp"
#include "haralick/kernel.hpp"
#include "nd/raster.hpp"

namespace h4d::haralick {

std::vector<Vec4> EngineConfig::effective_directions() const {
  if (!directions.empty()) return directions;
  return unique_directions(ActiveDims::all4(), 1);
}

Glcm glcm_for_roi(Vol4View<const Level> vol, const Region4& roi, const std::vector<Vec4>& dirs,
                  int num_levels, WorkCounters* wc, KernelScratch* scratch) {
  Glcm g(num_levels);
  const std::int64_t updates = g.accumulate(vol, roi, dirs, scratch);
  if (wc != nullptr) {
    wc->glcm_pair_updates += updates;
    wc->matrices_built += 1;
  }
  return g;
}

std::vector<FeatureBlock> analyze_chunk(Vol4View<const Level> chunk_view,
                                        const Region4& chunk_region,
                                        const Region4& owned_origins, const EngineConfig& cfg,
                                        WorkCounters* wc, KernelScratch* scratch) {
  if (chunk_view.dims() != chunk_region.size) {
    throw std::invalid_argument("analyze_chunk: view dims do not match chunk region");
  }
  const std::vector<Vec4> dirs = cfg.effective_directions();

  std::vector<FeatureBlock> blocks;
  std::vector<Feature> selected;
  for (int f = 0; f < kNumFeatures; ++f) {
    if (cfg.features.has(static_cast<Feature>(f))) selected.push_back(static_cast<Feature>(f));
  }
  const std::int64_t n = owned_origins.empty() ? 0 : owned_origins.volume();
  blocks.reserve(selected.size());
  for (Feature f : selected) {
    FeatureBlock b;
    b.feature = f;
    b.origins = owned_origins;
    b.values.assign(static_cast<std::size_t>(n), 0.0f);
    blocks.push_back(std::move(b));
  }
  if (n == 0) return blocks;

  // Kernel working state: the caller's per-thread scratch when given, else a
  // local one for this chunk.
  std::optional<KernelScratch> local_scratch;
  if (scratch == nullptr) {
    local_scratch.emplace(cfg.num_levels);
    scratch = &*local_scratch;
  } else {
    scratch->configure(cfg.num_levels);
  }
  KernelScratch& ks = *scratch;

  // Per-ROI matrix + feature evaluation through the kernel: accumulate the
  // upper-triangle tile, then run the feature sweep over its non-zero cells.
  // The representation only decides how the sweep credits `wc`.
  const auto features_of_roi = [&](const Region4& roi, const std::vector<Vec4>& dv) {
    const std::int64_t updates = ks.accumulate(chunk_view, roi, dv);
    if (wc != nullptr) {
      wc->glcm_pair_updates += updates;
      wc->matrices_built += 1;
    }
    return ks.features_fused(cfg.features, wc, nullptr, cfg.sweep_mode, cfg.representation);
  };

  std::int64_t k = 0;
  for (const Vec4& origin : raster(owned_origins)) {
    // ROI in chunk-local coordinates.
    const Region4 roi{origin - chunk_region.origin, cfg.roi_dims};
    if (!Region4::whole(chunk_region.size).contains(roi)) {
      throw std::logic_error("analyze_chunk: owned origin " + origin.str() +
                             " has ROI escaping chunk " + chunk_region.str());
    }

    FeatureVector fv;
    if (cfg.direction_mode == DirectionMode::Pooled) {
      fv = features_of_roi(roi, dirs);
    } else {
      // One matrix per direction; aggregate the per-direction features.
      FeatureVector lo, hi, sum;
      bool first = true;
      std::vector<Vec4> one_dir(1);
      for (const Vec4& d : dirs) {
        one_dir[0] = d;
        const FeatureVector f = features_of_roi(roi, one_dir);
        for (int s = 0; s < kNumFeatures; ++s) {
          const auto idx = static_cast<std::size_t>(s);
          sum.value[idx] += f.value[idx];
          if (first) {
            lo.value[idx] = f.value[idx];
            hi.value[idx] = f.value[idx];
          } else {
            lo.value[idx] = std::min(lo.value[idx], f.value[idx]);
            hi.value[idx] = std::max(hi.value[idx], f.value[idx]);
          }
        }
        first = false;
      }
      const auto ndirs = static_cast<double>(dirs.size());
      for (int s = 0; s < kNumFeatures; ++s) {
        const auto idx = static_cast<std::size_t>(s);
        fv.value[idx] = cfg.direction_mode == DirectionMode::MeanOverDirections
                            ? sum.value[idx] / ndirs
                            : hi.value[idx] - lo.value[idx];
      }
    }
    for (std::size_t s = 0; s < selected.size(); ++s) {
      blocks[s].values[static_cast<std::size_t>(k)] = static_cast<float>(fv[selected[s]]);
    }
    ++k;
  }
  return blocks;
}

std::vector<FeatureBlock> analyze_volume(const Volume4<Level>& vol, const EngineConfig& cfg,
                                         WorkCounters* wc) {
  const Region4 whole = Region4::whole(vol.dims());
  const Region4 origins = roi_origin_region(vol.dims(), cfg.roi_dims);
  if (origins.empty()) {
    throw std::invalid_argument("analyze_volume: roi " + cfg.roi_dims.str() +
                                " larger than volume " + vol.dims().str());
  }
  return analyze_chunk(vol.view(), whole, origins, cfg, wc);
}

Volume4<float> assemble_feature_map(const std::vector<const FeatureBlock*>& blocks,
                                    const Region4& all_origins, float fill) {
  Volume4<float> map(all_origins.size, fill);
  for (const FeatureBlock* b : blocks) {
    if (b == nullptr) continue;
    std::int64_t k = 0;
    for (const Vec4& p : raster(b->origins)) {
      map.at(p - all_origins.origin) = b->values[static_cast<std::size_t>(k)];
      ++k;
    }
  }
  return map;
}

}  // namespace h4d::haralick
