// End-to-end correctness of the full pipeline: every execution mode, filter
// composition, representation and distribution policy must produce feature
// maps identical to the sequential reference of paper Fig. 2.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/analysis.hpp"
#include "fs/executor_threads.hpp"
#include "io/image_write.hpp"
#include "io/phantom.hpp"

namespace h4d::core {
namespace {

namespace fsys = std::filesystem;
using haralick::Feature;
using haralick::Representation;
using haralick::SweepMode;

struct E2EFixture : ::testing::Test {
  void SetUp() override {
    root_ = fsys::temp_directory_path() /
            ("h4d_e2e_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fsys::remove_all(root_);

    io::PhantomConfig pcfg;
    pcfg.dims = {20, 18, 6, 5};
    pcfg.num_tumors = 1;
    pcfg.seed = 11;
    phantom_ = io::generate_phantom(pcfg).volume;
  }
  void TearDown() override { fsys::remove_all(root_); }

  haralick::EngineConfig engine() const {
    haralick::EngineConfig e;
    e.roi_dims = {5, 5, 3, 3};
    e.num_levels = 16;
    e.features = haralick::FeatureSet::paper_eval();
    return e;
  }

  PipelineConfig base_config(int storage_nodes, int replicas = 1) {
    DiskDataset_ = std::make_unique<io::DiskDataset>(
        io::DiskDataset::create(root_, phantom_, storage_nodes, replicas));
    PipelineConfig cfg;
    cfg.dataset_root = root_;
    cfg.engine = engine();
    cfg.texture_chunk = {12, 12, 5, 4};
    cfg.rfr_copies = storage_nodes;
    return cfg;
  }

  void expect_matches_reference(const AnalysisResult& got, double tol = 1e-5) {
    const AnalysisResult ref = analyze_in_memory(phantom_, engine());
    ASSERT_EQ(got.maps.size(), ref.maps.size());
    for (const auto& [f, map] : ref.maps) {
      ASSERT_TRUE(got.maps.count(f)) << haralick::feature_name(f);
      const auto& gmap = got.maps.at(f);
      ASSERT_EQ(gmap.dims(), map.dims());
      for (std::int64_t i = 0; i < map.size(); ++i) {
        const float a = map.storage()[static_cast<std::size_t>(i)];
        const float b = gmap.storage()[static_cast<std::size_t>(i)];
        ASSERT_NEAR(a, b, tol * std::max(1.0f, std::abs(a)))
            << haralick::feature_name(f) << " @" << i;
      }
    }
  }

  Volume4<std::uint16_t> phantom_{Vec4{1, 1, 1, 1}};
  fsys::path root_;
  std::unique_ptr<io::DiskDataset> DiskDataset_;
};

TEST_F(E2EFixture, HmpThreadedMatchesReference) {
  PipelineConfig cfg = base_config(2);
  cfg.variant = Variant::HMP;
  cfg.hmp_copies = 3;
  expect_matches_reference(analyze_threaded(cfg));
}

TEST_F(E2EFixture, SplitThreadedFullMatchesReference) {
  PipelineConfig cfg = base_config(2);
  cfg.variant = Variant::Split;
  cfg.engine.representation = Representation::Full;
  cfg.hcc_copies = 3;
  cfg.hpc_copies = 2;
  expect_matches_reference(analyze_threaded(cfg));
}

TEST_F(E2EFixture, SplitThreadedSparseMatchesReference) {
  PipelineConfig cfg = base_config(3);
  cfg.variant = Variant::Split;
  cfg.engine.representation = Representation::Sparse;
  cfg.hcc_copies = 4;
  cfg.hpc_copies = 1;
  expect_matches_reference(analyze_threaded(cfg));
}

TEST_F(E2EFixture, HmpSparseRepresentationMatchesReference) {
  PipelineConfig cfg = base_config(1);
  cfg.variant = Variant::HMP;
  cfg.engine.representation = Representation::Sparse;
  cfg.hmp_copies = 2;
  expect_matches_reference(analyze_threaded(cfg));
}

TEST_F(E2EFixture, HmpAndSplitAreByteIdenticalForEveryRepresentationAndSweep) {
  // HMP evaluates each ROI from its column-path bin window; HPC evaluates
  // the same matrix read off the wire in either format. Same matrix, same
  // sweep and (in Fast mode) same moment pass: the maps match bit for bit,
  // not just to tolerance, for the paper's set (moments only), all 14
  // features (sweep, then moments) and a mixed set.
  PipelineConfig hmp = base_config(2);
  hmp.variant = Variant::HMP;
  hmp.hmp_copies = 2;
  using haralick::Feature;
  using haralick::FeatureSet;
  for (const FeatureSet set : {FeatureSet::paper_eval(), FeatureSet::all(),
                               FeatureSet{Feature::AngularSecondMoment, Feature::Entropy}}) {
    for (const Representation repr : {Representation::Full, Representation::Sparse}) {
      for (const SweepMode mode : {SweepMode::Fast, SweepMode::Strict}) {
        hmp.engine.features = set;
        hmp.engine.representation = repr;
        hmp.engine.sweep_mode = mode;
        PipelineConfig split = hmp;
        split.variant = Variant::Split;
        split.hcc_copies = 2;
        split.hpc_copies = 2;
        const AnalysisResult a = analyze_threaded(hmp);
        const AnalysisResult b = analyze_threaded(split);
        ASSERT_EQ(a.maps.size(), static_cast<std::size_t>(set.count()));
        ASSERT_EQ(a.maps.size(), b.maps.size());
        for (const auto& [f, map] : a.maps) {
          EXPECT_EQ(map.storage(), b.maps.at(f).storage())
              << haralick::feature_name(f) << " set=" << set.mask()
              << " repr=" << static_cast<int>(repr)
              << " strict=" << (mode == SweepMode::Strict);
        }
      }
    }
  }
}

TEST_F(E2EFixture, MomentFeatureMapsDoNotDependOnTheSelection) {
  // f1 alone takes the moment pass only; within all 14 features the sweep
  // runs too and the moments overwrite f1, f3, f4 and f5. Either way a
  // feature's map is the same bits, on both variants.
  using haralick::Feature;
  using haralick::FeatureSet;
  PipelineConfig cfg = base_config(2);
  cfg.hmp_copies = 2;
  cfg.hcc_copies = 2;
  cfg.hpc_copies = 2;
  for (const Variant variant : {Variant::HMP, Variant::Split}) {
    cfg.variant = variant;
    cfg.engine.features = FeatureSet{Feature::AngularSecondMoment};
    const AnalysisResult alone = analyze_threaded(cfg);
    cfg.engine.features = FeatureSet::paper_eval();
    const AnalysisResult paper = analyze_threaded(cfg);
    cfg.engine.features = FeatureSet::all();
    const AnalysisResult all = analyze_threaded(cfg);
    EXPECT_EQ(alone.maps.at(Feature::AngularSecondMoment).storage(),
              all.maps.at(Feature::AngularSecondMoment).storage());
    for (const auto& [f, map] : paper.maps) {
      EXPECT_EQ(map.storage(), all.maps.at(f).storage()) << haralick::feature_name(f);
    }
  }
}

TEST_F(E2EFixture, FeatureStreamCountersAreDeterministic) {
  // HMP ships one block per (chunk, feature), so its stream counters, and
  // what HIC receives, do not depend on which copy took which chunk.
  PipelineConfig cfg = base_config(2);
  cfg.variant = Variant::HMP;
  cfg.hmp_copies = 3;
  cfg.texture_chunk = {16, 16, 8, 6};
  const auto chunks = static_cast<std::int64_t>(make_params(cfg)->chunks.size());
  ASSERT_GT(chunks, 1);

  struct Stream {
    std::int64_t hmp_buffers_out = 0, hmp_bytes_out = 0, hic_buffers_in = 0, hic_bytes_in = 0;
    bool operator==(const Stream&) const = default;
  };
  const auto run = [&] {
    const AnalysisResult r = analyze_threaded(cfg);
    Stream s;
    for (const fs::CopyStats& c : r.stats.copies) {
      if (c.filter == "HMP") {
        s.hmp_buffers_out += c.meter.buffers_out;
        s.hmp_bytes_out += c.meter.bytes_out;
      } else if (c.filter == "HIC") {
        s.hic_buffers_in += c.meter.buffers_in;
        s.hic_bytes_in += c.meter.bytes_in;
      }
    }
    return s;
  };
  const Stream a = run();
  const Stream b = run();
  EXPECT_EQ(a.hmp_buffers_out, chunks * cfg.engine.features.count());
  EXPECT_EQ(a.hic_buffers_in, a.hmp_buffers_out);
  EXPECT_TRUE(a == b) << "HMP out " << a.hmp_buffers_out << "/" << a.hmp_bytes_out << " vs "
                      << b.hmp_buffers_out << "/" << b.hmp_bytes_out << ", HIC in "
                      << a.hic_buffers_in << "/" << a.hic_bytes_in << " vs "
                      << b.hic_buffers_in << "/" << b.hic_bytes_in;
}

TEST_F(E2EFixture, MultipleIicCopiesMatchReference) {
  PipelineConfig cfg = base_config(4);
  cfg.variant = Variant::HMP;
  cfg.iic_copies = 3;
  cfg.hmp_copies = 2;
  expect_matches_reference(analyze_threaded(cfg));
}

TEST_F(E2EFixture, RoundRobinChunkPolicyMatchesReference) {
  PipelineConfig cfg = base_config(2);
  cfg.variant = Variant::Split;
  cfg.chunk_policy = fs::Policy::RoundRobin;
  cfg.matrix_policy = fs::Policy::RoundRobin;
  cfg.hcc_copies = 2;
  cfg.hpc_copies = 2;
  expect_matches_reference(analyze_threaded(cfg));
}

TEST_F(E2EFixture, SimulatedRunProducesIdenticalMaps) {
  PipelineConfig cfg = base_config(2);
  cfg.variant = Variant::Split;
  cfg.engine.representation = Representation::Sparse;
  cfg.hcc_copies = 3;
  cfg.hpc_copies = 1;
  cfg.rfr_nodes = {0, 1};
  cfg.iic_nodes = {2};
  cfg.hcc_nodes = {3, 4, 5};
  cfg.hpc_nodes = {6};
  cfg.uso_nodes = {7};

  sim::SimOptions sopt;
  sopt.cluster = sim::make_piii_cluster(8);

  const AnalysisResult threaded = analyze_threaded(cfg);
  const AnalysisResult simulated = analyze_simulated(cfg, sopt);

  ASSERT_EQ(threaded.maps.size(), simulated.maps.size());
  for (const auto& [f, map] : threaded.maps) {
    const auto& smap = simulated.maps.at(f);
    ASSERT_EQ(map.storage(), smap.storage()) << haralick::feature_name(f);
  }
  expect_matches_reference(simulated);
  EXPECT_GT(simulated.sim.total_seconds, 0.0);
  EXPECT_GT(simulated.sim.network_transfers, 0);
}

TEST_F(E2EFixture, SimulatedHmpMatchesReference) {
  PipelineConfig cfg = base_config(2);
  cfg.variant = Variant::HMP;
  cfg.hmp_copies = 4;
  cfg.rfr_nodes = {0, 1};
  cfg.iic_nodes = {2};
  cfg.hmp_nodes = {3, 4, 5, 6};
  cfg.uso_nodes = {7};
  sim::SimOptions sopt;
  sopt.cluster = sim::make_piii_cluster(8);
  expect_matches_reference(analyze_simulated(cfg, sopt));
}

TEST_F(E2EFixture, AllFourteenFeaturesThroughPipeline) {
  PipelineConfig cfg = base_config(2);
  cfg.engine.features = haralick::FeatureSet::all();
  cfg.variant = Variant::Split;
  cfg.hcc_copies = 2;
  cfg.hpc_copies = 2;
  const AnalysisResult ref = analyze_in_memory(phantom_, cfg.engine);
  const AnalysisResult got = analyze_threaded(cfg);
  ASSERT_EQ(got.maps.size(), static_cast<std::size_t>(haralick::kNumFeatures));
  for (const auto& [f, map] : ref.maps) {
    const auto& gmap = got.maps.at(f);
    for (std::int64_t i = 0; i < map.size(); ++i) {
      ASSERT_NEAR(map.storage()[static_cast<std::size_t>(i)],
                  gmap.storage()[static_cast<std::size_t>(i)],
                  1e-4 * std::max(1.0f, std::abs(map.storage()[static_cast<std::size_t>(i)])))
          << haralick::feature_name(f);
    }
  }
}

TEST_F(E2EFixture, ReplicatedHealthyRunMatchesReferenceWithoutFailovers) {
  PipelineConfig cfg = base_config(3, 2);
  cfg.variant = Variant::HMP;
  cfg.hmp_copies = 2;
  const AnalysisResult got = analyze_threaded(cfg);
  expect_matches_reference(got);
  // Replication must not duplicate reads or reroute anything while every
  // node is healthy.
  EXPECT_EQ(got.stats.exec.replica_failovers, 0);
  EXPECT_EQ(got.stats.exec.nodes_evicted, 0);
}

TEST_F(E2EFixture, ReplicatedRunSurvivesDeletedNodeDirByteIdentical) {
  PipelineConfig cfg = base_config(3, 2);
  cfg.variant = Variant::HMP;
  cfg.hmp_copies = 2;
  const AnalysisResult healthy = analyze_threaded(cfg);

  fsys::remove_all(root_ / io::node_dir_name(1));
  const AnalysisResult degraded = analyze_threaded(cfg);

  ASSERT_EQ(degraded.maps.size(), healthy.maps.size());
  for (const auto& [f, map] : healthy.maps) {
    ASSERT_EQ(degraded.maps.at(f).storage(), map.storage()) << haralick::feature_name(f);
  }
  // The rerouted reads are visible in the run's accounting.
  EXPECT_GT(degraded.faults.replica_failovers, 0);
  EXPECT_EQ(degraded.stats.exec.replica_failovers, degraded.faults.replica_failovers);
}

TEST_F(E2EFixture, DeadNodesFlagReroutesWithoutChangingOutput) {
  PipelineConfig cfg = base_config(3, 2);
  cfg.variant = Variant::Split;
  cfg.hcc_copies = 2;
  cfg.hpc_copies = 2;
  cfg.dead_nodes = {2};  // directory still exists; operator declared it dead
  const AnalysisResult got = analyze_threaded(cfg);
  expect_matches_reference(got);
  EXPECT_GT(got.faults.replica_failovers, 0);
}

TEST_F(E2EFixture, UnreplicatedRunRefusesToStartWithoutCoverage) {
  PipelineConfig cfg = base_config(3, 1);
  fsys::remove_all(root_ / io::node_dir_name(0));
  // With r = 1 a lost node means lost slices; the run must fail up front
  // instead of producing silently incomplete maps.
  EXPECT_THROW(analyze_threaded(cfg), std::runtime_error);
}

TEST_F(E2EFixture, RfrCopyCountMustMatchStorageNodes) {
  PipelineConfig cfg = base_config(2);
  cfg.rfr_copies = 3;
  EXPECT_THROW(build_pipeline(cfg, std::make_shared<filters::CollectedResults>()),
               std::invalid_argument);
}

TEST_F(E2EFixture, CollectModeRequiresSink) {
  PipelineConfig cfg = base_config(2);
  cfg.output = OutputMode::Collect;
  EXPECT_THROW(build_pipeline(cfg, nullptr), std::invalid_argument);
}

TEST_F(E2EFixture, UnstitchedOutputWritesSampleFiles) {
  PipelineConfig cfg = base_config(2);
  cfg.variant = Variant::HMP;
  cfg.output = OutputMode::Unstitched;
  cfg.output_dir = root_ / "out";
  const fs::FilterGraph g = build_pipeline(cfg);
  fs::run_threaded(g);

  std::size_t files = 0, bytes = 0;
  for (const auto& e : fsys::directory_iterator(cfg.output_dir)) {
    ++files;
    bytes += fsys::file_size(e.path());
  }
  EXPECT_EQ(files, 4u);  // one per paper-eval feature, single USO copy
  const std::int64_t samples =
      num_roi_origins(phantom_.dims(), cfg.engine.roi_dims) * 4;
  EXPECT_EQ(bytes, static_cast<std::size_t>(samples) * sizeof(filters::FeatureSample));
}

TEST_F(E2EFixture, ImageOutputWritesPgmSeries) {
  // Image output as every map-producing path runs it: the Collector's maps,
  // each written as a slice series by write_feature_map_images.
  PipelineConfig cfg = base_config(2);
  cfg.variant = Variant::HMP;
  const AnalysisResult result = analyze_threaded(cfg);
  const fsys::path dir = root_ / "img";
  for (const auto& [f, map] : result.maps) {
    const auto [lo, hi] = result.ranges.at(f);
    io::write_feature_map_images(dir, std::string(haralick::feature_slug(f)), map, lo, hi);
  }

  std::size_t pgms = 0;
  for (const auto& e : fsys::directory_iterator(dir)) {
    if (e.path().extension() == ".pgm") ++pgms;
  }
  const Region4 origins = roi_origin_region(phantom_.dims(), cfg.engine.roi_dims);
  EXPECT_EQ(pgms, static_cast<std::size_t>(4 * origins.size[2] * origins.size[3]));
}

TEST_F(E2EFixture, CollectOutputRefusesResumedRun) {
  // A resumed run prunes the chunks its manifest records. Collected maps
  // would hold 0.0f at their origins (and a shifted min/max), so Collect
  // output must refuse before anything runs.
  PipelineConfig cfg = base_config(2);
  cfg.checkpoint_path = root_ / "ck.txt";
  expect_matches_reference(analyze_threaded(cfg));  // records every chunk

  cfg.resume = true;
  cfg.output = OutputMode::Collect;
  const filters::ParamsPtr params = make_params(cfg);
  ASSERT_GT(params->chunks_resumed, 0);
  EXPECT_THROW(build_pipeline(cfg, params, std::make_shared<filters::CollectedResults>()),
               std::invalid_argument);
  EXPECT_THROW(analyze_threaded(cfg), std::invalid_argument);

  // USO's sample files keep the earlier run's output, so it may resume.
  cfg.output = OutputMode::Unstitched;
  EXPECT_NO_THROW(build_pipeline(cfg, params, nullptr));
}

}  // namespace
}  // namespace h4d::core
