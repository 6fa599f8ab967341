// The 4D Haralick raster-scan engine (paper Sec. 3, Fig. 2).
//
// Slides an ROI window over every owned origin of a (chunk of a) quantized
// 4D volume; per position builds a co-occurrence matrix over the selected
// directions and evaluates the selected Haralick features. Produces one
// dense block of values per feature.
#pragma once

#include <cstdint>
#include <vector>

#include "haralick/features.hpp"
#include "haralick/glcm.hpp"
#include "haralick/glcm_sparse.hpp"
#include "haralick/kernel.hpp"
#include "nd/chunking.hpp"
#include "nd/quantize.hpp"
#include "nd/region.hpp"
#include "nd/volume4.hpp"

namespace h4d::haralick {

/// Parameters of one texture analysis run. Every ROI gets one co-occurrence
/// matrix pooled over the whole direction set (paper Sec. 3, Fig. 2).
struct EngineConfig {
  Vec4 roi_dims{7, 7, 3, 3};
  int num_levels = 32;
  std::vector<Vec4> directions;  ///< empty => all unique 4D unit directions
  FeatureSet features = FeatureSet::paper_eval();
  /// Wire format of the HCC->HPC stream and how the feature sweep credits
  /// the cost model (kernel.hpp); it does not change the features. Sparse
  /// (the paper's optimization (ii), Sec. 4.4.1) ships only the non-zero
  /// upper-triangle entries, ~15x fewer bytes than Full's Ng^2 table at
  /// Ng=32. An HMP run does the same work either way: the representation
  /// only changes its modelled counters, which simulate charges as Fig.
  /// 7(a)'s sparse bookkeeping, so the paper's HMP curve needs Full.
  Representation representation = Representation::Sparse;

  /// Floating-point mode of the feature sweep, in every filter and for both
  /// representations. Fast (default) uses the SoA/SIMD reductions and the
  /// fast_log polynomial — agreement with Strict is ULP-bounded (~1e-10
  /// relative); Strict is bit-identical to the reference sparse feature
  /// pass.
  SweepMode sweep_mode = SweepMode::Fast;

  /// Directions, with the default applied.
  std::vector<Vec4> effective_directions() const;
};

/// A block of computed feature values: `values[k]` is the feature at ROI
/// origin raster(origins)[k] (global coordinates).
struct FeatureBlock {
  Feature feature{};
  Region4 origins;
  std::vector<float> values;
};

/// Analyze the owned ROI origins of one chunk.
///
/// `chunk_view` holds the quantized data of `chunk_region` (global coords);
/// every ROI with origin in `owned_origins` must fit inside `chunk_region`
/// (guaranteed by partition_overlapping; otherwise std::invalid_argument, a
/// std::logic_error). Returns one FeatureBlock per
/// selected feature. `wc` accumulates operation counts for the cost model.
///
/// `scratch`, when non-null, supplies the kernel working state (tile,
/// marginal buffers); pass one per worker thread / filter copy so repeated
/// chunks reuse it instead of re-allocating.
std::vector<FeatureBlock> analyze_chunk(Vol4View<const Level> chunk_view,
                                        const Region4& chunk_region,
                                        const Region4& owned_origins, const EngineConfig& cfg,
                                        WorkCounters* wc = nullptr,
                                        KernelScratch* scratch = nullptr);

/// Reference sequential path: analyze a whole in-memory quantized volume.
/// Equivalent to one chunk covering everything.
std::vector<FeatureBlock> analyze_volume(const Volume4<Level>& vol, const EngineConfig& cfg,
                                         WorkCounters* wc = nullptr);

/// Merge per-chunk blocks of one feature into a full map over all ROI
/// origins of a volume. Missing positions are left at `fill`.
Volume4<float> assemble_feature_map(const std::vector<const FeatureBlock*>& blocks,
                                    const Region4& all_origins, float fill = 0.0f);

}  // namespace h4d::haralick
