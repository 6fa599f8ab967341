// Equivalence proofs for the cache-aware kernel (kernel.hpp): construction
// and feature-sweep results must be bit-identical to the reference passes in
// tests/oracle (DESIGN.md §11) across level counts, direction sets, strided
// views, and the uint16 tile-saturation spill.
#include "haralick/kernel.hpp"

#include <gtest/gtest.h>

#include <random>

#include "haralick/directions.hpp"
#include "haralick/glcm_sparse.hpp"
#include "haralick/roi_engine.hpp"
#include "oracle/reference.hpp"

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
      EXPECT_TRUE(ker.is_symmetric());
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
