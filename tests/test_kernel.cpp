// Equivalence proofs for the cache-aware kernel (kernel.hpp): construction
// and feature-sweep results must be bit-identical to the reference passes in
// tests/oracle (DESIGN.md §11) across level counts, direction sets, strided
// views, and the uint16 tile-saturation spill.
#include "haralick/kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <string>

#include "haralick/directions.hpp"
#include "haralick/glcm_sparse.hpp"
#include "haralick/roi_engine.hpp"
#include "nd/raster.hpp"
#include "oracle/reference.hpp"
#include "glcm_test_util.hpp"

namespace h4d::haralick {
namespace {

Volume4<Level> random_volume(Vec4 dims, int ng, unsigned seed) {
  Volume4<Level> v(dims);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> u(0, ng - 1);
  for (Level& l : v.storage()) l = static_cast<Level>(u(rng));
  return v;
}

std::vector<Vec4> random_directions(std::mt19937_64& rng, int count, int max_mag) {
  std::uniform_int_distribution<int> u(-max_mag, max_mag);
  std::vector<Vec4> dirs;
  while (static_cast<int>(dirs.size()) < count) {
    const Vec4 d{u(rng), u(rng), u(rng), u(rng)};
    if (d == Vec4{0, 0, 0, 0}) continue;
    dirs.push_back(d);
  }
  return dirs;
}

void expect_same_matrix(const Glcm& a, const Glcm& b) {
  ASSERT_EQ(a.num_levels(), b.num_levels());
  EXPECT_EQ(a.total(), b.total());
  for (int i = 0; i < a.num_levels(); ++i) {
    for (int j = 0; j < a.num_levels(); ++j) {
      ASSERT_EQ(a.count(i, j), b.count(i, j)) << "cell (" << i << ", " << j << ")";
    }
  }
}

TEST(Kernel, MatchesReferenceAcrossLevelCounts) {
  std::mt19937_64 rng(11);
  for (const int ng : {2, 32, 256}) {
    for (int trial = 0; trial < 8; ++trial) {
      const Vec4 dims{9, 8, 5, 4};
      const auto v = random_volume(dims, ng, static_cast<unsigned>(100 + trial + ng));
      const auto dirs = random_directions(rng, 5, 2);
      const Region4 roi{{1, 1, 1, 0}, {7, 6, 3, 3}};

      Glcm ref(ng);
      const std::int64_t ref_updates = oracle::accumulate_reference(ref, v.view(), roi, dirs);
      Glcm ker(ng);
      const std::int64_t ker_updates = ker.accumulate(v.view(), roi, dirs);
      EXPECT_EQ(ker_updates, ref_updates);
      expect_same_matrix(ker, ref);
      EXPECT_TRUE(is_symmetric(ker));
    }
  }
}

TEST(Kernel, MatchesReferenceOnPaperConfiguration) {
  const int ng = 32;
  const auto v = random_volume({13, 13, 7, 7}, ng, 7);
  const auto dirs = unique_directions(ActiveDims::all4());
  const Region4 roi{{2, 2, 2, 2}, {7, 7, 3, 3}};

  Glcm ref(ng);
  const auto ref_updates = oracle::accumulate_reference(ref, v.view(), roi, dirs);
  KernelScratch scratch(ng);
  Glcm ker(ng);
  const auto ker_updates = ker.accumulate(v.view(), roi, dirs, &scratch);
  EXPECT_EQ(ker_updates, ref_updates);
  expect_same_matrix(ker, ref);
}

TEST(Kernel, MatchesReferenceOnNonContiguousSubviews) {
  // A strided chunk view: every other x/y element of a larger volume, so the
  // x-stride is 2 and the kernel's generic (non unit-stride) loop runs.
  const int ng = 32;
  const auto v = random_volume({20, 18, 4, 3}, ng, 23);
  const Vec4 sub_dims{10, 9, 4, 3};
  const Vec4 strides{2, 2 * 20, 20 * 18, 20 * 18 * 4};
  const Vol4View<const Level> strided(v.data(), sub_dims, strides);
  ASSERT_EQ(strided.strides()[0], 2);

  std::mt19937_64 rng(5);
  const auto dirs = random_directions(rng, 6, 2);
  const Region4 roi{{1, 0, 0, 0}, {8, 8, 3, 3}};

  Glcm ref(ng);
  oracle::accumulate_reference(ref, strided, roi, dirs);
  Glcm ker(ng);
  ker.accumulate(strided, roi, dirs);
  expect_same_matrix(ker, ref);

  // Interior subview of a contiguous volume (unit x-stride, offset base).
  const Region4 inner{{3, 2, 1, 0}, {12, 12, 3, 3}};
  Glcm ref2(ng);
  oracle::accumulate_reference(ref2, v.view().subview(inner), roi, dirs);
  Glcm ker2(ng);
  ker2.accumulate(v.view().subview(inner), roi, dirs);
  expect_same_matrix(ker2, ref2);
}

TEST(Kernel, AccumulatesOnTopOfExistingCounts) {
  const int ng = 16;
  const auto v = random_volume({8, 8, 3, 3}, ng, 3);
  const std::vector<Vec4> d1{{1, 0, 0, 0}, {0, 1, 0, 0}};
  const std::vector<Vec4> d2{{1, 1, 0, 0}, {0, 0, 1, 1}};
  const Region4 roi = Region4::whole(v.dims());

  Glcm ref(ng);
  oracle::accumulate_reference(ref, v.view(), roi, d1);
  oracle::accumulate_reference(ref, v.view(), roi, d2);

  KernelScratch scratch(ng);
  Glcm ker(ng);
  ker.accumulate(v.view(), roi, d1, &scratch);
  ker.accumulate(v.view(), roi, d2, &scratch);
  expect_same_matrix(ker, ref);
}

TEST(Kernel, Uint16TileSaturationSpillsToWideTable) {
  // A constant volume funnels every pair into cell (0, 0). The tile is split
  // across two banks, so forcing a uint16 wrap needs > 2 * 65,535 pairs: a
  // 600x300 ROI with one x-direction makes 179,700 (~89,850 per bank).
  const Volume4<Level> v({600, 300, 1, 1}, 0);
  const std::vector<Vec4> dirs{{1, 0, 0, 0}};
  const Region4 roi = Region4::whole(v.dims());

  KernelScratch scratch(8);
  const std::int64_t updates = scratch.accumulate(v.view(), roi, dirs);
  EXPECT_EQ(updates, 2 * 599 * 300);
  EXPECT_TRUE(scratch.spilled());
  Glcm ker(8);
  scratch.finalize_add(ker);

  Glcm ref(8);
  oracle::accumulate_reference(ref, v.view(), roi, dirs);
  expect_same_matrix(ker, ref);

  // The scratch resets after finalize: a small follow-up ROI is unpolluted.
  const Region4 small{{0, 0, 0, 0}, {4, 4, 1, 1}};
  Glcm ker2(8), ref2(8);
  ker2.accumulate(v.view(), small, dirs, &scratch);
  EXPECT_FALSE(scratch.spilled());
  oracle::accumulate_reference(ref2, v.view(), small, dirs);
  expect_same_matrix(ker2, ref2);
}

TEST(Kernel, RepeatedAccumulationCrossesCheckedThreshold) {
  // Many accumulations into one scratch push pairs_since_reset past 65,535,
  // switching the branch-free loop to the wrap-checked variant mid-stream;
  // the fold must still match the reference exactly.
  const int ng = 2;  // two levels -> individual cells actually wrap
  const auto v = random_volume({40, 40, 2, 2}, ng, 57);
  const std::vector<Vec4> dirs{{1, 0, 0, 0}, {0, 1, 0, 0}, {1, 1, 1, 1}};
  const Region4 roi = Region4::whole(v.dims());

  Glcm ref(ng);
  KernelScratch scratch(ng);
  Glcm ker(ng);
  for (int rep = 0; rep < 50; ++rep) {
    oracle::accumulate_reference(ref, v.view(), roi, dirs);
    scratch.accumulate(v.view(), roi, dirs);
  }
  EXPECT_TRUE(scratch.spilled());
  scratch.finalize_add(ker);
  expect_same_matrix(ker, ref);
}

TEST(Kernel, FusedFeaturesBitIdenticalToSparseReference) {
  std::mt19937_64 rng(29);
  for (const int ng : {2, 32, 256}) {
    for (int trial = 0; trial < 4; ++trial) {
      const auto v = random_volume({9, 9, 4, 3}, ng, static_cast<unsigned>(40 + trial));
      const auto dirs = random_directions(rng, 4, 1);
      const Region4 roi{{0, 1, 0, 0}, {8, 7, 3, 3}};

      // Reference: dense build -> from_dense -> sparse feature path.
      Glcm ref(ng);
      oracle::accumulate_reference(ref, v.view(), roi, dirs);
      const SparseGlcm ref_sparse = SparseGlcm::from_dense(ref);
      const FeatureVector ref_fv = oracle::compute_features(ref_sparse, FeatureSet::all());

      // Kernel: accumulate + fused sweep, no dense table at all.
      KernelScratch scratch(ng);
      scratch.accumulate(v.view(), roi, dirs);
      SparseGlcm fused_sparse;
      const FeatureVector fv =
          scratch.features_fused(FeatureSet::all(), nullptr, &fused_sparse);

      EXPECT_EQ(fused_sparse.entries(), ref_sparse.entries());
      EXPECT_EQ(fused_sparse.total(), ref_sparse.total());
      for (int f = 0; f < kNumFeatures; ++f) {
        const auto feat = static_cast<Feature>(f);
        EXPECT_EQ(fv[feat], ref_fv[feat]) << feature_name(feat);  // bit-identical
      }
    }
  }
}

TEST(Kernel, FastSweepMatchesStrictWithinUlpBound) {
  // SweepMode::Fast reorders the reductions and batches entropy through the
  // fast_log polynomial; every feature must still agree with Strict (and so
  // with the reference path) to tight relative tolerance, and the emitted
  // entry list must be identical.
  std::mt19937_64 rng(31);
  for (const int ng : {2, 32, 256}) {
    for (int trial = 0; trial < 4; ++trial) {
      const auto v = random_volume({9, 9, 4, 3}, ng, static_cast<unsigned>(60 + trial));
      const auto dirs = random_directions(rng, 4, 1);
      const Region4 roi{{0, 1, 0, 0}, {8, 7, 3, 3}};

      KernelScratch scratch(ng);
      scratch.accumulate(v.view(), roi, dirs);
      SparseGlcm strict_sparse;
      const FeatureVector strict =
          scratch.features_fused(FeatureSet::all(), nullptr, &strict_sparse, SweepMode::Strict);

      scratch.accumulate(v.view(), roi, dirs);
      SparseGlcm fast_sparse;
      const FeatureVector fast =
          scratch.features_fused(FeatureSet::all(), nullptr, &fast_sparse, SweepMode::Fast);

      EXPECT_EQ(fast_sparse.entries(), strict_sparse.entries());
      EXPECT_EQ(fast_sparse.total(), strict_sparse.total());
      for (int f = 0; f < kNumFeatures; ++f) {
        const auto feat = static_cast<Feature>(f);
        EXPECT_NEAR(fast[feat], strict[feat],
                    1e-9 * std::max(1.0, std::abs(strict[feat])))
            << feature_name(feat) << " ng=" << ng;
      }
    }
  }
}

TEST(Kernel, FastSweepWorkCountersMatchStrict) {
  const int ng = 32;
  const auto v = random_volume({9, 9, 4, 3}, ng, 78);
  const auto dirs = axis_directions(ActiveDims::all4());
  const Region4 roi{{0, 0, 0, 0}, {7, 7, 3, 3}};

  WorkCounters strict_wc, fast_wc;
  KernelScratch scratch(ng);
  scratch.accumulate(v.view(), roi, dirs);
  scratch.features_fused(FeatureSet::all(), &strict_wc, nullptr, SweepMode::Strict);
  scratch.accumulate(v.view(), roi, dirs);
  scratch.features_fused(FeatureSet::all(), &fast_wc, nullptr, SweepMode::Fast);

  EXPECT_EQ(fast_wc.sparse_entries_emitted, strict_wc.sparse_entries_emitted);
  EXPECT_EQ(fast_wc.sparse_compress_cells, strict_wc.sparse_compress_cells);
  EXPECT_EQ(fast_wc.feature_cells_scanned, strict_wc.feature_cells_scanned);
  EXPECT_EQ(fast_wc.feature_cell_ops, strict_wc.feature_cell_ops);
}

TEST(Kernel, FusedFeatureWorkCountersMatchReferencePath) {
  // Whatever produces the entry list, the sweep credits exactly what the
  // reference pass of the same representation did: Sparse as from_dense +
  // the sparse pass, Full as the dense SkipZeros pass (an Ng^2 scan, no
  // sparse counters). The compression is credited only from the tile; a
  // received matrix was compressed by its producer.
  const int ng = 32;
  const auto v = random_volume({9, 9, 4, 3}, ng, 77);
  const auto dirs = axis_directions(ActiveDims::all4());
  const Region4 roi{{0, 0, 0, 0}, {7, 7, 3, 3}};
  const FeatureSet set = FeatureSet::all();

  Glcm ref(ng);
  oracle::accumulate_reference(ref, v.view(), roi, dirs);
  const SparseGlcm ref_sparse = SparseGlcm::from_dense(ref);
  WorkCounters ref_sparse_wc, ref_dense_wc;
  oracle::compute_features(ref_sparse, set, &ref_sparse_wc);
  oracle::compute_features(ref, set, oracle::ZeroPolicy::SkipZeros, &ref_dense_wc);
  WorkCounters ref_compress;
  ref_compress.sparse_entries_emitted = static_cast<std::int64_t>(ref_sparse.nnz());
  ref_compress.sparse_compress_cells = static_cast<std::int64_t>(ng) * ng;

  const auto expect_same = [](const WorkCounters& got, const WorkCounters& want,
                              const char* what) {
    EXPECT_EQ(got.sparse_entries_emitted, want.sparse_entries_emitted) << what;
    EXPECT_EQ(got.sparse_compress_cells, want.sparse_compress_cells) << what;
    EXPECT_EQ(got.feature_cells_scanned, want.feature_cells_scanned) << what;
    EXPECT_EQ(got.feature_cell_ops, want.feature_cell_ops) << what;
  };
  KernelScratch scratch(ng);
  for (const Representation repr : {Representation::Sparse, Representation::Full}) {
    WorkCounters want = repr == Representation::Sparse ? ref_sparse_wc : ref_dense_wc;
    WorkCounters received;
    scratch.features_of(ref_sparse, set, &received, SweepMode::Fast, repr);
    expect_same(received, want, "features_of");

    if (repr == Representation::Sparse) want += ref_compress;
    WorkCounters fused;
    scratch.accumulate(v.view(), roi, dirs);
    scratch.features_fused(set, &fused, nullptr, SweepMode::Fast, repr);
    expect_same(fused, want, "features_fused");
  }
}

TEST(Kernel, AnalyzeChunkWithSharedScratchMatchesFreshScratch) {
  const int ng = 32;
  const auto v = random_volume({16, 14, 6, 5}, ng, 91);
  EngineConfig cfg;
  cfg.roi_dims = {5, 5, 3, 3};
  cfg.num_levels = ng;
  const Region4 whole = Region4::whole(v.dims());
  const Region4 owned = roi_origin_region(v.dims(), cfg.roi_dims);

  for (const Representation repr : {Representation::Full, Representation::Sparse}) {
    cfg.representation = repr;
    const auto fresh = analyze_chunk(v.view(), whole, owned, cfg);
    KernelScratch scratch(2);  // wrong Ng on purpose; analyze_chunk reconfigures
    const auto a = analyze_chunk(v.view(), whole, owned, cfg, nullptr, &scratch);
    const auto b = analyze_chunk(v.view(), whole, owned, cfg, nullptr, &scratch);
    ASSERT_EQ(fresh.size(), a.size());
    for (std::size_t s = 0; s < fresh.size(); ++s) {
      EXPECT_EQ(a[s].values, fresh[s].values);
      EXPECT_EQ(b[s].values, fresh[s].values);
    }
  }
}

TEST(Kernel, RejectsRoiOutsideVolumeAndNgMismatch) {
  const Volume4<Level> v({4, 4, 1, 1}, 0);
  KernelScratch scratch(8);
  EXPECT_THROW(scratch.accumulate(v.view(), Region4{{2, 2, 0, 0}, {4, 4, 1, 1}},
                                  {Vec4{1, 0, 0, 0}}),
               std::invalid_argument);
  scratch.accumulate(v.view(), Region4::whole(v.dims()), {Vec4{1, 0, 0, 0}});
  Glcm wrong(16);
  EXPECT_THROW(scratch.finalize_add(wrong), std::invalid_argument);
  EXPECT_THROW(KernelScratch(1), std::invalid_argument);
  EXPECT_THROW(KernelScratch(257), std::invalid_argument);
}

// ---- analyze_chunk: column histograms vs the per-ROI scan and the oracle ----

struct ChunkResult {
  std::vector<FeatureBlock> blocks;
  WorkCounters wc;
};

std::vector<Feature> selected_features(FeatureSet set) {
  std::vector<Feature> out;
  for (int f = 0; f < kNumFeatures; ++f) {
    if (set.has(static_cast<Feature>(f))) out.push_back(static_cast<Feature>(f));
  }
  return out;
}

ChunkResult empty_blocks(const Region4& owned, const EngineConfig& cfg) {
  ChunkResult r;
  for (const Feature f : selected_features(cfg.features)) {
    r.blocks.push_back({f, owned, std::vector<float>(static_cast<std::size_t>(owned.volume()))});
  }
  return r;
}

/// The per-origin loop: accumulate + features_fused at every owned origin.
ChunkResult per_origin_scan(const Volume4<Level>& v, const Region4& owned,
                            const EngineConfig& cfg) {
  ChunkResult r = empty_blocks(owned, cfg);
  const auto dirs = cfg.effective_directions();
  KernelScratch scratch(cfg.num_levels);
  std::size_t k = 0;
  for (const Vec4& o : raster(owned)) {
    r.wc.glcm_pair_updates += scratch.accumulate(v.view(), Region4{o, cfg.roi_dims}, dirs);
    r.wc.matrices_built += 1;
    const FeatureVector fv = scratch.features_fused(cfg.features, &r.wc, nullptr,
                                                    cfg.sweep_mode, cfg.representation);
    for (FeatureBlock& b : r.blocks) b.values[k] = static_cast<float>(fv[b.feature]);
    ++k;
  }
  return r;
}

/// The oracle: reference construction, from_dense, and the reference sparse
/// pass (the values) with the credits of the representation's reference
/// pass (sparse + compression, or the dense SkipZeros scan).
ChunkResult oracle_chunk(const Volume4<Level>& v, const Region4& owned, const EngineConfig& cfg) {
  ChunkResult r = empty_blocks(owned, cfg);
  const auto dirs = cfg.effective_directions();
  std::size_t k = 0;
  for (const Vec4& o : raster(owned)) {
    Glcm g(cfg.num_levels);
    r.wc.glcm_pair_updates +=
        oracle::accumulate_reference(g, v.view(), Region4{o, cfg.roi_dims}, dirs);
    r.wc.matrices_built += 1;
    const SparseGlcm sparse = SparseGlcm::from_dense(g);
    WorkCounters sparse_wc;
    const FeatureVector fv = oracle::compute_features(sparse, cfg.features, &sparse_wc);
    if (cfg.representation == Representation::Sparse) {
      r.wc += sparse_wc;
      r.wc.sparse_entries_emitted += static_cast<std::int64_t>(sparse.nnz());
      r.wc.sparse_compress_cells += static_cast<std::int64_t>(cfg.num_levels) * cfg.num_levels;
    } else {
      oracle::compute_features(g, cfg.features, oracle::ZeroPolicy::SkipZeros, &r.wc);
    }
    for (FeatureBlock& b : r.blocks) b.values[k] = static_cast<float>(fv[b.feature]);
    ++k;
  }
  return r;
}

void expect_same_counters(const WorkCounters& got, const WorkCounters& want,
                          const std::string& what) {
  EXPECT_EQ(got.glcm_pair_updates, want.glcm_pair_updates) << what;
  EXPECT_EQ(got.matrices_built, want.matrices_built) << what;
  EXPECT_EQ(got.sparse_entries_emitted, want.sparse_entries_emitted) << what;
  EXPECT_EQ(got.sparse_compress_cells, want.sparse_compress_cells) << what;
  EXPECT_EQ(got.feature_cells_scanned, want.feature_cells_scanned) << what;
  EXPECT_EQ(got.feature_cell_ops, want.feature_cell_ops) << what;
}

/// Bitwise equality of two block lists (the float bits, so NaNs compare).
void expect_same_blocks(const std::vector<FeatureBlock>& got,
                        const std::vector<FeatureBlock>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t s = 0; s < got.size(); ++s) {
    EXPECT_EQ(got[s].feature, want[s].feature) << what;
    EXPECT_EQ(got[s].origins, want[s].origins) << what;
    ASSERT_EQ(got[s].values.size(), want[s].values.size()) << what;
    EXPECT_EQ(std::memcmp(got[s].values.data(), want[s].values.data(),
                          got[s].values.size() * sizeof(float)),
              0)
        << what << " feature " << feature_name(got[s].feature);
  }
}

/// analyze_chunk on `v` (the whole chunk) against the per-origin scan in
/// every sweep mode and representation, and against the oracle in Strict.
void check_chunk(const Volume4<Level>& v, const Region4& owned, EngineConfig cfg,
                 const std::string& what) {
  cfg.features = FeatureSet::all();
  for (const SweepMode mode : {SweepMode::Strict, SweepMode::Fast}) {
    for (const Representation repr : {Representation::Full, Representation::Sparse}) {
      cfg.sweep_mode = mode;
      cfg.representation = repr;
      const std::string tag = what + (mode == SweepMode::Strict ? " strict" : " fast") +
                              (repr == Representation::Full ? " full" : " sparse");
      ChunkResult got;
      KernelScratch scratch(2);
      got.blocks = analyze_chunk(v.view(), Region4::whole(v.dims()), owned, cfg, &got.wc,
                                 &scratch);
      const ChunkResult scan = per_origin_scan(v, owned, cfg);
      expect_same_blocks(got.blocks, scan.blocks, tag + " vs scan");
      expect_same_counters(got.wc, scan.wc, tag + " vs scan");
      const ChunkResult ref = oracle_chunk(v, owned, cfg);
      expect_same_counters(got.wc, ref.wc, tag + " vs oracle");
      if (mode == SweepMode::Strict) expect_same_blocks(got.blocks, ref.blocks, tag + " vs oracle");
    }
  }
}

/// The scratch the column path's row histograms take for the ROIs of
/// `owned` in `v`, by the formula of KernelScratch::kRowHistogramBytes:
/// (2 ny - 1) x 2 x columns x bin stride uint16, where the bins cover the
/// level range of the voxels the ROIs reach and the stride pads their
/// count to a multiple of 16.
std::size_t row_histogram_bytes(const Volume4<Level>& v, const Region4& owned, const Vec4& roi) {
  const Region4 reach{owned.origin, owned.size + roi - Vec4{1, 1, 1, 1}};
  int lo = 255;
  int hi = 0;
  for (const Vec4& p : raster(reach)) {
    lo = std::min<int>(lo, v.at(p[0], p[1], p[2], p[3]));
    hi = std::max<int>(hi, v.at(p[0], p[1], p[2], p[3]));
  }
  const auto w = static_cast<std::size_t>(hi - lo + 1);
  const std::size_t stride = (w * (w + 1) / 2 + 15) / 16 * 16;
  const auto ny = static_cast<std::size_t>(reach.size[1]);
  return (2 * ny - 1) * 2 * static_cast<std::size_t>(reach.size[0]) * stride *
         sizeof(std::uint16_t);
}

bool takes_row_path(const Volume4<Level>& v, const Region4& owned, const Vec4& roi) {
  return row_histogram_bytes(v, owned, roi) <= KernelScratch::kRowHistogramBytes;
}

std::vector<Vec4> unit_directions() {
  std::vector<Vec4> out;
  for (const Vec4& p : raster(Region4{{-1, -1, -1, -1}, {3, 3, 3, 3}})) {
    if (p != Vec4{0, 0, 0, 0}) out.push_back(p);
  }
  return out;
}

TEST(KernelChunk, ColumnHistogramsMatchScanAndOracleOnRandomChunks) {
  std::mt19937_64 rng(2007);
  const auto units = unit_directions();
  const auto pick = [&rng](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  int trial = 0;
  int row_trials = 0;
  int column_trials = 0;
  for (const int ng : {2, 7, 32, 64}) {
    for (int rep = 0; rep < 6; ++rep, ++trial) {
      EngineConfig cfg;
      cfg.num_levels = ng;
      // ROI extents of 1 on some axes leave the directions that step along
      // them with no pair.
      Vec4 chunk;
      for (int k = 0; k < kDims; ++k) {
        cfg.roi_dims[k] = pick(1, k < 2 ? 4 : 3);
        chunk[k] = cfg.roi_dims[k] + pick(0, k < 2 ? 6 : 2);
      }
      // Owned widths from 1 up to every origin of the chunk.
      Region4 owned;
      for (int k = 0; k < kDims; ++k) {
        const std::int64_t span = chunk[k] - cfg.roi_dims[k] + 1;
        owned.size[k] = k == 0 && rep == 0 ? 1 : (k == 0 && rep == 1 ? span : pick(1, span));
        owned.origin[k] = pick(0, span - owned.size[k]);
      }
      switch (trial % 3) {
        case 0:
          cfg.directions = unique_directions(ActiveDims::all4());
          break;
        case 1:
          cfg.directions = axis_directions(ActiveDims::all4());
          break;
        default: {
          std::vector<Vec4> subset;
          for (const Vec4& d : units) {
            if (pick(0, 3) == 0) subset.push_back(d);
          }
          if (subset.empty()) subset.push_back(units[static_cast<std::size_t>(pick(0, 79))]);
          cfg.directions = subset;
        }
      }
      const auto v = random_volume(chunk, ng, static_cast<unsigned>(500 + trial));
      ++(takes_row_path(v, owned, cfg.roi_dims) ? row_trials : column_trials);
      check_chunk(v, owned, cfg,
                  "ng=" + std::to_string(ng) + " roi=" + cfg.roi_dims.str() +
                      " chunk=" + chunk.str() + " owned=" + owned.str() +
                      " dirs=" + std::to_string(cfg.directions.size()));
    }
  }
  // Small level counts keep the row histograms under their bound, Ng = 64
  // puts most chunks over it.
  EXPECT_GT(row_trials, 0);
  EXPECT_GT(column_trials, 0);

  // The edges of the row path, and both sides of its bound.
  const auto edge = [&](const std::string& what, int ng, const Vec4& roi, const Vec4& chunk,
                        const Region4& owned, const std::vector<Vec4>& dirs, bool rows) {
    EngineConfig cfg;
    cfg.num_levels = ng;
    cfg.roi_dims = roi;
    cfg.directions = dirs;
    const auto v = random_volume(chunk, ng, static_cast<unsigned>(600 + trial++));
    EXPECT_EQ(takes_row_path(v, owned, roi), rows)
        << what << ": " << row_histogram_bytes(v, owned, roi) << " bytes";
    check_chunk(v, owned, cfg, what);
  };
  const auto all = unique_directions(ActiveDims::all4());
  // ry = 1: no direction steps in y, so no pair spans two rows (no L).
  edge("ry=1", 7, {3, 1, 2, 2}, {8, 6, 4, 3}, {{0, 0, 0, 0}, {6, 6, 3, 2}}, all, true);
  // rz = rt = 1: each z slide replaces the whole window.
  edge("rz=rt=1", 7, {3, 3, 1, 1}, {7, 6, 4, 3}, {{0, 0, 0, 0}, {5, 4, 4, 3}}, all, true);
  // One owned y: no y slide.
  edge("owned y=1", 7, {3, 3, 2, 2}, {7, 5, 4, 3}, {{0, 1, 0, 0}, {5, 1, 3, 2}}, all, true);
  // One owned z: no z slide.
  edge("owned z=1", 7, {3, 3, 3, 2}, {7, 6, 4, 3}, {{0, 0, 1, 0}, {5, 4, 1, 2}}, all, true);
  // Only directions that step in y: P stays empty.
  std::vector<Vec4> dy_only;
  for (const Vec4& d : units) {
    if (d[1] != 0) dy_only.push_back(d);
  }
  edge("dy!=0", 7, {3, 3, 2, 2}, {7, 7, 4, 3}, {{0, 0, 0, 0}, {5, 5, 3, 2}}, dy_only, true);
  // Only dy = -1 once dx >= 0: anchor row r pairs rows r - 1 and r.
  edge("dy=-1", 7, {3, 3, 2, 2}, {7, 7, 4, 3}, {{0, 0, 0, 0}, {5, 5, 3, 2}},
       {Vec4{0, -1, 0, 0}, Vec4{-1, 1, 0, 0}, Vec4{1, -1, 1, -1}}, true);
  // ny = 33 rows, Ng = 8 (36 bins, stride 48): 21 columns take
  // 65 x 2 x 21 x 48 x 2 = 262,080 bytes, 22 columns 274,560.
  edge("at the bound", 8, {3, 3, 2, 2}, {21, 33, 3, 2}, {{0, 0, 0, 0}, {19, 31, 2, 1}}, all,
       true);
  edge("over the bound", 8, {3, 3, 2, 2}, {22, 33, 3, 2}, {{0, 0, 0, 0}, {20, 31, 2, 1}}, all,
       false);
}

TEST(KernelChunk, ColumnHistogramsExactNearTheUint16Limit) {
  // 15 * 16^3 = 61,440 pairs per ROI, just under the column path's bound.
  // A constant volume puts every pair in one bin, whose wrapping uint16 sums
  // must still come out exact. Few levels keep the row histograms under
  // their bound; 64 random levels put them over it.
  EngineConfig cfg;
  cfg.num_levels = 8;
  cfg.roi_dims = {16, 16, 16, 16};
  cfg.directions = {Vec4{1, 0, 0, 0}};
  const Region4 owned{{0, 0, 0, 0}, {2, 1, 1, 1}};
  const Volume4<Level> constant({17, 16, 16, 16}, 5);
  EXPECT_TRUE(takes_row_path(constant, owned, cfg.roi_dims));
  check_chunk(constant, owned, cfg, "constant");
  const auto few = random_volume({17, 16, 16, 16}, 3, 17);
  EXPECT_TRUE(takes_row_path(few, owned, cfg.roi_dims));
  check_chunk(few, owned, cfg, "random");
  cfg.num_levels = 64;
  const auto many = random_volume({17, 16, 16, 16}, 64, 18);
  EXPECT_FALSE(takes_row_path(many, owned, cfg.roi_dims));
  check_chunk(many, owned, cfg, "random ng=64");
}

TEST(KernelChunk, FallbackCasesMatchScanAndOracle) {
  EngineConfig cfg;
  cfg.roi_dims = {4, 3, 2, 2};
  const Region4 owned{{0, 1, 0, 0}, {4, 2, 2, 1}};
  // Ng above 64: the bins no longer pay for themselves.
  for (const int ng : {65, 256}) {
    cfg.num_levels = ng;
    check_chunk(random_volume({7, 6, 3, 2}, ng, 71), owned, cfg, "ng=" + std::to_string(ng));
  }
  // A distance-2 step reaches past the next column.
  cfg.num_levels = 32;
  cfg.directions = {Vec4{1, 0, 0, 0}, Vec4{2, 0, 0, 0}, Vec4{0, 1, 1, 0}};
  check_chunk(random_volume({7, 6, 3, 2}, 32, 72), owned, cfg, "distance 2");
  // More than 65,535 pairs per ROI could wrap a uint16 bin.
  cfg.roi_dims = {12, 12, 6, 6};
  cfg.directions = unique_directions(ActiveDims::all4());
  check_chunk(random_volume({13, 12, 6, 6}, 32, 73), Region4{{0, 0, 0, 0}, {2, 1, 1, 1}}, cfg,
              "pairs > 65535");
}

TEST(KernelChunk, RejectsRoisLeavingTheChunk) {
  const auto v = random_volume({8, 8, 3, 3}, 8, 74);
  EngineConfig cfg;
  cfg.num_levels = 8;
  cfg.roi_dims = {5, 5, 3, 3};
  EXPECT_THROW(analyze_chunk(v.view(), Region4::whole(v.dims()),
                             Region4{{1, 0, 0, 0}, {4, 1, 1, 1}}, cfg),
               std::logic_error);
  KernelScratch scratch(8);
  EXPECT_THROW(scratch.features_of_rois(v.view(), Region4{{0, 0, 1, 0}, {1, 1, 1, 1}},
                                        cfg.roi_dims, cfg.effective_directions(),
                                        cfg.features, nullptr, SweepMode::Fast,
                                        Representation::Sparse,
                                        [](std::int64_t, const FeatureVector&) {}),
               std::invalid_argument);
}

// ---- the moment path (Fast, Ng <= 64, <= 65,535 pairs) ----

/// The paper features of one ROI from every producer of the moment path:
/// the tile (features_fused), a received matrix (features_of) and the
/// column path (features_of_rois). All three must give the same bits, and
/// stay within the Fast bound of the Strict sweep. Returns the Fast values.
FeatureVector check_moments(const Volume4<Level>& v, const Vec4& roi_dims,
                            const std::vector<Vec4>& dirs, int ng, const std::string& what) {
  const FeatureSet set = FeatureSet::paper_eval();
  const Region4 roi{{0, 0, 0, 0}, roi_dims};
  KernelScratch scratch(ng);
  scratch.accumulate(v.view(), roi, dirs);
  const FeatureVector strict = scratch.features_fused(set, nullptr, nullptr, SweepMode::Strict);
  scratch.accumulate(v.view(), roi, dirs);
  SparseGlcm matrix;
  const FeatureVector fast = scratch.features_fused(set, nullptr, &matrix, SweepMode::Fast);
  for (const Representation repr : {Representation::Sparse, Representation::Full}) {
    const FeatureVector received = scratch.features_of(matrix, set, nullptr, SweepMode::Fast, repr);
    EXPECT_EQ(std::memcmp(&received, &fast, sizeof fast), 0) << what << " features_of";
  }
  FeatureVector chunk;
  scratch.features_of_rois(v.view(), Region4{{0, 0, 0, 0}, {1, 1, 1, 1}}, roi_dims, dirs, set,
                           nullptr, SweepMode::Fast, Representation::Sparse,
                           [&](std::int64_t, const FeatureVector& fv) { chunk = fv; });
  EXPECT_EQ(std::memcmp(&chunk, &fast, sizeof fast), 0) << what << " features_of_rois";
  for (int f = 0; f < kNumFeatures; ++f) {
    const auto feat = static_cast<Feature>(f);
    EXPECT_NEAR(fast[feat], strict[feat], 1e-9 * std::max(1.0, std::abs(strict[feat])))
        << feature_name(feat) << " " << what;
  }
  return fast;
}

TEST(Kernel, MomentFeaturesMatchStrictWithinUlpBound) {
  // The same bound as FastSweepMatchesStrictWithinUlpBound, on random ROIs
  // with extents of 1 (directions that step along them find no pair),
  // random unit directions, and constant and near-constant regions.
  std::mt19937_64 rng(4231);
  const auto units = unit_directions();
  const auto pick = [&rng](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  int trial = 0;
  for (const int ng : {2, 7, 32, 64}) {
    for (int rep = 0; rep < 8; ++rep, ++trial) {
      Vec4 roi_dims;
      for (int k = 0; k < kDims; ++k) roi_dims[k] = pick(1, k < 2 ? 6 : 3);
      std::vector<Vec4> dirs;
      for (const Vec4& d : units) {
        if (pick(0, 3) == 0) dirs.push_back(d);
      }
      if (dirs.empty()) dirs.push_back(units[static_cast<std::size_t>(pick(0, 79))]);
      const std::string what = "ng=" + std::to_string(ng) + " roi=" + roi_dims.str() +
                               " dirs=" + std::to_string(dirs.size());

      check_moments(random_volume(roi_dims, ng, static_cast<unsigned>(900 + trial)), roi_dims,
                    dirs, ng, what + " random");
      // A constant region: var = 0, so correlation is exactly 1.
      const auto level = static_cast<Level>(pick(0, ng - 1));
      Volume4<Level> flat(roi_dims, level);
      const FeatureVector fv = check_moments(flat, roi_dims, dirs, ng, what + " constant");
      EXPECT_EQ(fv[Feature::Correlation], 1.0) << what;
      EXPECT_EQ(fv[Feature::SumOfSquaresVariance], 0.0) << what;
      // Near-constant: one voxel moved to another level.
      flat.at(Vec4{pick(0, roi_dims[0] - 1), pick(0, roi_dims[1] - 1),
                   pick(0, roi_dims[2] - 1), pick(0, roi_dims[3] - 1)}) =
          static_cast<Level>((level + pick(1, ng - 1)) % ng);
      check_moments(flat, roi_dims, dirs, ng, what + " near-constant");
    }
  }
}

TEST(Kernel, MomentFeaturesExactNearTheUint16Limit) {
  // 61,440 pairs: the largest windows the moment path takes, where a single
  // bin holds them all (constant) or nearly all (near-constant).
  const Vec4 roi_dims{16, 16, 16, 16};
  const std::vector<Vec4> dirs{Vec4{1, 0, 0, 0}};
  Volume4<Level> v(roi_dims, 40);
  const FeatureVector fv = check_moments(v, roi_dims, dirs, 64, "constant");
  EXPECT_EQ(fv[Feature::AngularSecondMoment], 1.0);
  EXPECT_EQ(fv[Feature::Correlation], 1.0);
  EXPECT_EQ(fv[Feature::InverseDifferenceMoment], 1.0);
  v.at(Vec4{3, 5, 7, 9}) = 63;
  v.at(Vec4{0, 0, 0, 0}) = 0;
  check_moments(v, roi_dims, dirs, 64, "near-constant");
  check_moments(random_volume(roi_dims, 3, 88), roi_dims, dirs, 3, "random");
}

TEST(Kernel, MomentPathCreditsTheSweepsWorkCounters) {
  // Credits stay in reference units: with the sweep skipped, the moment
  // pass credits what the sweep would have, per producer and representation.
  const int ng = 32;
  const auto v = random_volume({9, 9, 4, 3}, ng, 79);
  const auto dirs = unique_directions(ActiveDims::all4());
  const Region4 roi{{0, 0, 0, 0}, {7, 7, 3, 3}};
  const FeatureSet set = FeatureSet::paper_eval();
  KernelScratch scratch(ng);
  for (const Representation repr : {Representation::Sparse, Representation::Full}) {
    WorkCounters strict_wc, fast_wc, strict_rx, fast_rx;
    scratch.accumulate(v.view(), roi, dirs);
    SparseGlcm matrix;
    scratch.features_fused(set, &strict_wc, &matrix, SweepMode::Strict, repr);
    scratch.accumulate(v.view(), roi, dirs);
    scratch.features_fused(set, &fast_wc, nullptr, SweepMode::Fast, repr);
    scratch.features_of(matrix, set, &strict_rx, SweepMode::Strict, repr);
    scratch.features_of(matrix, set, &fast_rx, SweepMode::Fast, repr);
    for (const auto& [got, want] : {std::pair{fast_wc, strict_wc}, std::pair{fast_rx, strict_rx}}) {
      EXPECT_EQ(got.sparse_entries_emitted, want.sparse_entries_emitted);
      EXPECT_EQ(got.sparse_compress_cells, want.sparse_compress_cells);
      EXPECT_EQ(got.feature_cells_scanned, want.feature_cells_scanned);
      EXPECT_EQ(got.feature_cell_ops, want.feature_cell_ops);
    }
    EXPECT_GT(fast_wc.feature_cell_ops, 0);
  }
}

/// Every ROI's matrix of a chunk (origins local to `v`), as entries_of_rois
/// hands it out.
std::vector<SparseGlcm> chunk_matrices(const Volume4<Level>& v, const Region4& owned,
                                       const Vec4& roi_dims, const std::vector<Vec4>& dirs,
                                       int ng) {
  std::vector<SparseGlcm> out;
  KernelScratch scratch(ng);
  scratch.entries_of_rois(v.view(), owned, roi_dims, dirs, nullptr,
                          [&](std::int64_t, std::span<const SparseEntry> entries,
                              std::int64_t total) {
                            out.emplace_back(ng, total, std::vector<SparseEntry>(
                                                            entries.begin(), entries.end()));
                          });
  return out;
}

/// The moment features of every ROI of a chunk, summed off the entry list
/// (features_of, either representation) and off the column path's bin
/// window (features_of_rois): the same bits. Returns the matrices.
std::vector<SparseGlcm> check_entry_moments(const Volume4<Level>& v, const Region4& owned,
                                            const Vec4& roi_dims,
                                            const std::vector<Vec4>& dirs, int ng,
                                            const std::string& what) {
  const auto matrices = chunk_matrices(v, owned, roi_dims, dirs, ng);
  EXPECT_EQ(static_cast<std::int64_t>(matrices.size()), owned.volume()) << what;
  for (const FeatureSet set : {FeatureSet::paper_eval(), FeatureSet::all()}) {
    std::vector<FeatureVector> window;
    KernelScratch chunk_scratch(ng);
    chunk_scratch.features_of_rois(v.view(), owned, roi_dims, dirs, set, nullptr,
                                   SweepMode::Fast, Representation::Sparse,
                                   [&](std::int64_t, const FeatureVector& fv) {
                                     window.push_back(fv);
                                   });
    EXPECT_EQ(window.size(), matrices.size()) << what;
    if (window.size() != matrices.size()) break;
    KernelScratch scratch(2);
    for (std::size_t k = 0; k < matrices.size(); ++k) {
      for (const Representation repr : {Representation::Sparse, Representation::Full}) {
        const FeatureVector entry = scratch.features_of(matrices[k], set, nullptr,
                                                        SweepMode::Fast, repr);
        EXPECT_EQ(std::memcmp(&entry, &window[k], sizeof entry), 0)
            << what << " roi " << k << " nnz " << matrices[k].nnz();
      }
    }
  }
  return matrices;
}

TEST(Kernel, EntryMomentsMatchWindowMoments) {
  std::mt19937_64 rng(6113);
  const auto units = unit_directions();
  const auto pick = [&rng](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  int trial = 0;
  for (const int ng : {2, 7, 32, 64}) {
    for (int rep = 0; rep < 6; ++rep, ++trial) {
      Vec4 roi_dims, chunk;
      for (int k = 0; k < kDims; ++k) {
        roi_dims[k] = pick(1, k < 2 ? 5 : 3);
        chunk[k] = roi_dims[k] + pick(0, k < 2 ? 4 : 2);
      }
      Region4 owned;
      for (int k = 0; k < kDims; ++k) {
        const std::int64_t span = chunk[k] - roi_dims[k] + 1;
        owned.size[k] = pick(1, span);
        owned.origin[k] = pick(0, span - owned.size[k]);
      }
      std::vector<Vec4> dirs;
      for (const Vec4& d : units) {
        if (pick(0, 3) == 0) dirs.push_back(d);
      }
      if (dirs.empty()) dirs.push_back(units[static_cast<std::size_t>(pick(0, 79))]);
      const std::string what = "ng=" + std::to_string(ng) + " roi=" + roi_dims.str() +
                               " chunk=" + chunk.str() + " owned=" + owned.str() +
                               " dirs=" + std::to_string(dirs.size());
      check_entry_moments(random_volume(chunk, ng, static_cast<unsigned>(1300 + trial)), owned,
                          roi_dims, dirs, ng, what + " random");
      const auto level = static_cast<Level>(pick(0, ng - 1));
      check_entry_moments(Volume4<Level>(chunk, level), owned, roi_dims, dirs, ng,
                          what + " constant");
    }
  }
}

TEST(Kernel, EntryMomentsMatchWindowMomentsOnEdgeMatrices) {
  const int ng = 32;
  const Vec4 chunk{9, 8, 4, 3};
  const Region4 owned{{0, 0, 0, 0}, {4, 3, 2, 2}};
  // Empty: a ROI one voxel wide along the only direction holds no pair.
  const auto empty = check_entry_moments(random_volume(chunk, ng, 41), owned, {1, 4, 3, 2},
                                         {Vec4{1, 0, 0, 0}}, ng, "empty");
  for (const SparseGlcm& m : empty) EXPECT_EQ(m.nnz(), 0u);
  // Diagonal-only, over many levels: the level varies in x only and every
  // pair steps in y, z or t.
  Volume4<Level> stripes(chunk);
  for (const Vec4& p : raster(Region4::whole(chunk))) {
    stripes.at(p) = static_cast<Level>((5 * p[0]) % ng);
  }
  const auto diagonal =
      check_entry_moments(stripes, owned, {5, 4, 3, 2},
                          {Vec4{0, 1, 0, 0}, Vec4{0, 0, 1, 0}, Vec4{0, 1, -1, 1}}, ng,
                          "diagonal-only");
  for (const SparseGlcm& m : diagonal) {
    EXPECT_GT(m.nnz(), 1u);
    for (const SparseEntry& e : m.entries()) EXPECT_EQ(e.i, e.j);
  }
  // Constant: one diagonal entry holding every pair.
  for (const SparseGlcm& m :
       check_entry_moments(Volume4<Level>(chunk, 17), owned, {5, 4, 3, 2},
                           unique_directions(ActiveDims::all4()), ng, "constant")) {
    ASSERT_EQ(m.nnz(), 1u);
    EXPECT_EQ(m.entries()[0].count, m.total());
  }
  // 15 * 16^3 = 61,440 pairs: the largest matrices the moment path takes.
  const Vec4 near{17, 16, 16, 16};
  const Region4 two{{0, 0, 0, 0}, {2, 1, 1, 1}};
  const Vec4 roi{16, 16, 16, 16};
  const std::vector<Vec4> x_step{Vec4{1, 0, 0, 0}};
  const auto limit = check_entry_moments(Volume4<Level>(near, 63), two, roi, x_step, 64,
                                         "near-limit constant");
  for (const SparseGlcm& m : limit) EXPECT_EQ(m.total(), 2 * 61440);
  Volume4<Level> nearly(near, 40);
  nearly.at(Vec4{3, 5, 7, 9}) = 63;
  nearly.at(Vec4{0, 0, 0, 0}) = 0;
  check_entry_moments(nearly, two, roi, x_step, 64, "near-limit near-constant");
  check_entry_moments(random_volume(near, 3, 89), two, roi, x_step, 3, "near-limit random");
}

TEST(Kernel, SharedScratchAlternatingEntryAndWindowPathsMatchesFreshScratches) {
  // One scratch serving HMP (features_of_rois) and HPC (features_of) in
  // turn, across level counts, gives the bits a fresh scratch gives each.
  const Vec4 chunk{8, 7, 4, 3};
  const Region4 owned{{0, 0, 0, 0}, {3, 3, 2, 2}};
  const Vec4 roi_dims{5, 4, 3, 2};
  const auto dirs = unique_directions(ActiveDims::all4());
  const auto window_features = [&](KernelScratch& scratch, const Volume4<Level>& v,
                                   FeatureSet set) {
    std::vector<FeatureVector> out;
    scratch.features_of_rois(v.view(), owned, roi_dims, dirs, set, nullptr, SweepMode::Fast,
                             Representation::Sparse,
                             [&](std::int64_t, const FeatureVector& fv) { out.push_back(fv); });
    return out;
  };
  KernelScratch shared(32);
  int trial = 0;
  for (const FeatureSet set : {FeatureSet::paper_eval(), FeatureSet::all()}) {
    for (const int ng : {32, 7, 64, 32}) {
      const auto v = random_volume(chunk, ng, static_cast<unsigned>(170 + trial++));
      KernelScratch fresh(ng);
      const auto want = window_features(fresh, v, set);
      shared.configure(ng);
      const auto got = window_features(shared, v, set);
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(FeatureVector)), 0)
          << "features_of_rois ng=" << ng;
      // Then the matrices of another level count, as received by HPC.
      const int other = ng == 7 ? 64 : 7;
      const auto vo = random_volume(chunk, other, static_cast<unsigned>(90 + trial));
      const auto matrices = chunk_matrices(vo, owned, roi_dims, dirs, other);
      for (const Representation repr : {Representation::Sparse, Representation::Full}) {
        for (const SparseGlcm& m : matrices) {
          KernelScratch one(2);
          const FeatureVector a = shared.features_of(m, set, nullptr, SweepMode::Fast, repr);
          const FeatureVector b = one.features_of(m, set, nullptr, SweepMode::Fast, repr);
          EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << "features_of ng=" << other;
        }
      }
    }
  }
}

TEST(Glcm, FromDenseSkipsEmptyRowsViaOccupancyBitmap) {
  // Build a matrix with many empty rows through set_raw and check the
  // compressed form is exactly the brute-force scan.
  const int ng = 64;
  Glcm g(ng);
  std::vector<std::uint32_t> table(static_cast<std::size_t>(ng) * ng, 0);
  table[static_cast<std::size_t>(3) * ng + 60] = 5;
  table[static_cast<std::size_t>(60) * ng + 3] = 5;
  table[static_cast<std::size_t>(17) * ng + 17] = 4;
  table[static_cast<std::size_t>(40) * ng + 41] = 1;
  table[static_cast<std::size_t>(41) * ng + 40] = 1;
  g.set_raw(std::move(table), 16);

  EXPECT_TRUE(g.row_possibly_occupied(3));
  EXPECT_TRUE(g.row_possibly_occupied(17));
  EXPECT_TRUE(g.row_possibly_occupied(40));
  EXPECT_TRUE(g.row_possibly_occupied(60));
  EXPECT_FALSE(g.row_possibly_occupied(0));
  EXPECT_FALSE(g.row_possibly_occupied(63));

  const SparseGlcm sparse = SparseGlcm::from_dense(g);
  std::vector<SparseEntry> expected;
  for (int i = 0; i < ng; ++i) {
    for (int j = i; j < ng; ++j) {
      if (g.count(i, j) != 0) {
        expected.push_back({static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(j),
                            g.count(i, j)});
      }
    }
  }
  EXPECT_EQ(sparse.entries(), expected);
  EXPECT_EQ(g.nonzero_upper(), static_cast<std::int64_t>(expected.size()));
}

}  // namespace
}  // namespace h4d::haralick
