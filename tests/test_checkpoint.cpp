// Checkpoint/resume: manifest durability, chunk-completion tracking, and the
// end-to-end guarantee that a killed-then-resumed run reproduces the
// uninterrupted run's outputs exactly while re-planning strictly fewer chunks.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/pipeline.hpp"
#include "filters/payloads.hpp"
#include "fs/executor_threads.hpp"
#include "io/dataset.hpp"
#include "io/manifest.hpp"
#include "io/phantom.hpp"
#include "nd/chunking.hpp"

namespace h4d::io {
namespace {

namespace fsys = std::filesystem;

struct CheckpointFixture : ::testing::Test {
  void SetUp() override {
    root_ = fsys::temp_directory_path() /
            ("h4d_ckpt_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fsys::remove_all(root_);
    fsys::create_directories(root_);
  }
  void TearDown() override { fsys::remove_all(root_); }

  fsys::path root_;
};

// --- manifest -------------------------------------------------------------

TEST_F(CheckpointFixture, ManifestRecordLoadRoundtrip) {
  const fsys::path p = root_ / "manifest.txt";
  {
    ChunkManifest m(p);
    m.record(0);
    m.record(7);
    m.record(42);
  }
  EXPECT_EQ(ChunkManifest::load(p), (std::vector<std::int64_t>{0, 7, 42}));
}

TEST_F(CheckpointFixture, ManifestLoadSkipsTornTailAndCorruptLines) {
  const fsys::path p = root_ / "manifest.txt";
  {
    ChunkManifest m(p);
    m.record(3);
    m.record(8);
  }
  {
    // A crash mid-append leaves a torn last line; bit rot flips a CRC tag.
    std::ofstream f(p, std::ios::app);
    f << "99 deadbeef\n";  // CRC does not match "99"
    f << "not a number at all\n";
    f << "12";  // torn: no CRC, no newline
  }
  EXPECT_EQ(ChunkManifest::load(p), (std::vector<std::int64_t>{3, 8}));
}

TEST_F(CheckpointFixture, ManifestHealsTornTailOnReopen) {
  const fsys::path p = root_ / "manifest.txt";
  { ChunkManifest(p).record(3); }
  {
    std::ofstream f(p, std::ios::app);
    f << "12";  // torn: the crash cut the line before its newline
  }
  // A resumed run reopens for append; its first record must not merge into
  // the torn text (that would silently lose the record).
  { ChunkManifest(p).record(4); }
  EXPECT_EQ(ChunkManifest::load(p), (std::vector<std::int64_t>{3, 4}));
}

TEST_F(CheckpointFixture, ManifestFreshDiscardsStaleContents) {
  const fsys::path p = root_ / "manifest.txt";
  { ChunkManifest(p).record(5); }
  {
    ChunkManifest m(p, /*fresh=*/true);
    m.record(9);
  }
  EXPECT_EQ(ChunkManifest::load(p), (std::vector<std::int64_t>{9}));
}

TEST_F(CheckpointFixture, MissingManifestLoadsEmpty) {
  EXPECT_TRUE(ChunkManifest::load(root_ / "nope.txt").empty());
}

// --- completion tracker ---------------------------------------------------

TEST_F(CheckpointFixture, TrackerRecordsChunkOnItsLastSample) {
  const Vec4 dims{10, 8, 4, 4}, chunk{6, 6, 4, 4}, roi{3, 3, 2, 2};
  const auto chunks = partition_overlapping(dims, chunk, roi);
  ASSERT_GT(chunks.size(), 1u);
  auto manifest = std::make_shared<ChunkManifest>(root_ / "m.txt");
  const std::int64_t features = 2;
  ChunkCompletionTracker tracker(chunks, dims, chunk, roi, features, manifest);

  for (const Chunk& c : chunks) {
    // All but the last sample of this chunk: not recorded yet.
    std::vector<Vec4> origins;
    Vec4 o;
    for (o[3] = 0; o[3] < c.owned_origins.size[3]; ++o[3])
      for (o[2] = 0; o[2] < c.owned_origins.size[2]; ++o[2])
        for (o[1] = 0; o[1] < c.owned_origins.size[1]; ++o[1])
          for (o[0] = 0; o[0] < c.owned_origins.size[0]; ++o[0])
            origins.push_back(c.owned_origins.origin + o);
    for (std::int64_t rep = 0; rep < features; ++rep) {
      for (const Vec4& p : origins) {
        if (rep == features - 1 && p == origins.back()) break;
        tracker.note_origin(p);
      }
    }
    const auto before = ChunkManifest::load(root_ / "m.txt");
    EXPECT_TRUE(std::find(before.begin(), before.end(), c.id) == before.end())
        << "chunk " << c.id << " recorded before its last sample";
    tracker.note_origin(origins.back());
    const auto after = ChunkManifest::load(root_ / "m.txt");
    EXPECT_TRUE(std::find(after.begin(), after.end(), c.id) != after.end());
    // Replays past completion are idempotent: no duplicate records.
    tracker.note_origin(origins.front());
    EXPECT_EQ(ChunkManifest::load(root_ / "m.txt").size(), after.size());
  }
  EXPECT_EQ(tracker.chunks_completed(), static_cast<std::int64_t>(chunks.size()));
}

TEST_F(CheckpointFixture, TrackerSkipsPreCompletedChunks) {
  const Vec4 dims{10, 8, 4, 4}, chunk{6, 6, 4, 4}, roi{3, 3, 2, 2};
  const auto chunks = partition_overlapping(dims, chunk, roi);
  auto manifest = std::make_shared<ChunkManifest>(root_ / "m.txt");
  const std::unordered_set<std::int64_t> done{chunks.front().id};
  ChunkCompletionTracker tracker(chunks, dims, chunk, roi, 1, manifest, done);

  // Replaying the already-completed chunk's samples must not re-record it.
  const Chunk& c = chunks.front();
  Vec4 o;
  for (o[3] = 0; o[3] < c.owned_origins.size[3]; ++o[3])
    for (o[2] = 0; o[2] < c.owned_origins.size[2]; ++o[2])
      for (o[1] = 0; o[1] < c.owned_origins.size[1]; ++o[1])
        for (o[0] = 0; o[0] < c.owned_origins.size[0]; ++o[0])
          tracker.note_origin(c.owned_origins.origin + o);
  EXPECT_TRUE(ChunkManifest::load(root_ / "m.txt").empty());
  EXPECT_EQ(tracker.chunks_completed(), 1);  // counted done from the start
}

TEST_F(CheckpointFixture, TrackerCreditsRegionsAsItsOrigins) {
  // note_region(r) is note_origin over every origin of r: a chunk goes into
  // the manifest when its last feature's region covers its last origin, and
  // once only, in either form.
  const Vec4 dims{10, 8, 4, 4}, chunk{6, 6, 4, 4}, roi{3, 3, 2, 2};
  const auto chunks = partition_overlapping(dims, chunk, roi);
  ASSERT_GT(chunks.size(), 1u);
  const Region4 origins = roi_origin_region(dims, roi);
  const std::int64_t features = 2;
  auto by_region = std::make_shared<ChunkManifest>(root_ / "region.txt");
  ChunkCompletionTracker tracker(chunks, dims, chunk, roi, features, by_region);

  // Feature 0 over the whole map, then feature 1 in two halves split along
  // x through the middle of the chunk grid.
  tracker.note_region(origins);
  EXPECT_TRUE(ChunkManifest::load(root_ / "region.txt").empty());
  Region4 left = origins;
  left.size[0] = origins.size[0] / 2;
  Region4 right = origins;
  right.origin[0] = left.size[0];
  right.size[0] = origins.size[0] - left.size[0];
  tracker.note_region(left);
  std::vector<std::int64_t> done_left;
  for (const Chunk& c : chunks) {
    if (left.contains(c.owned_origins)) done_left.push_back(c.id);
  }
  auto recorded = ChunkManifest::load(root_ / "region.txt");
  std::sort(recorded.begin(), recorded.end());
  EXPECT_EQ(recorded, done_left);
  tracker.note_region(right);
  tracker.note_region(origins);  // replay past completion: no new records
  tracker.note_region(Region4{{-5, 0, 0, 0}, {2, 1, 1, 1}});  // outside the grid
  EXPECT_EQ(tracker.chunks_completed(), static_cast<std::int64_t>(chunks.size()));

  recorded = ChunkManifest::load(root_ / "region.txt");
  std::sort(recorded.begin(), recorded.end());
  std::vector<std::int64_t> all_ids;
  for (const Chunk& c : chunks) all_ids.push_back(c.id);
  std::sort(all_ids.begin(), all_ids.end());
  EXPECT_EQ(recorded, all_ids);  // every chunk, exactly once
}

TEST_F(CheckpointFixture, TrackerCreditsRunsAsTheirOrigins) {
  // note_run(box, first, n) is note_origin over raster(box)[first, first +
  // n): runs of a whole-map box that start and end mid-row record the same
  // chunks, at the same moment, as the per-origin path does.
  const Vec4 dims{10, 8, 4, 4}, chunk{6, 6, 4, 4}, roi{3, 3, 2, 2};
  const auto chunks = partition_overlapping(dims, chunk, roi);
  ASSERT_GT(chunks.size(), 1u);
  const Region4 origins = roi_origin_region(dims, roi);
  auto by_run = std::make_shared<ChunkManifest>(root_ / "run.txt");
  auto by_origin = std::make_shared<ChunkManifest>(root_ / "origin.txt");
  ChunkCompletionTracker runs(chunks, dims, chunk, roi, 1, by_run);
  ChunkCompletionTracker points(chunks, dims, chunk, roi, 1, by_origin);

  const std::int64_t n = origins.volume();
  for (std::int64_t first = 0; first < n;) {
    const std::int64_t len = std::min<std::int64_t>(7 + first % 5, n - first);
    runs.note_run(origins, first, len);
    for (std::int64_t i = first; i < first + len; ++i) {
      points.note_origin(origins.origin + delinearize(i, origins.size));
    }
    EXPECT_EQ(ChunkManifest::load(root_ / "run.txt"), ChunkManifest::load(root_ / "origin.txt"))
        << "after run [" << first << ", +" << len << ")";
    first += len;
  }
  EXPECT_EQ(runs.chunks_completed(), static_cast<std::int64_t>(chunks.size()));
  runs.note_run(origins, 0, n);  // replay past completion: no new records
  EXPECT_EQ(ChunkManifest::load(root_ / "run.txt").size(), chunks.size());
}

TEST_F(CheckpointFixture, CollectModeCheckpointRecordsEveryChunkOnce) {
  // A Collect-mode run (what `h4d analyze --checkpoint` runs) credits each
  // collected map as a region: the manifest names every chunk exactly once,
  // the same ids the per-sample USO path records.
  io::PhantomConfig pcfg;
  pcfg.dims = {20, 18, 6, 5};
  pcfg.seed = 5;
  const fsys::path ds = root_ / "ds";
  io::DiskDataset::create(ds, io::generate_phantom(pcfg).volume, 2);

  core::PipelineConfig cfg;
  cfg.dataset_root = ds;
  cfg.engine.roi_dims = {5, 5, 3, 3};
  cfg.engine.num_levels = 16;
  cfg.engine.features = haralick::FeatureSet::paper_eval();
  cfg.texture_chunk = {10, 10, 5, 4};
  cfg.rfr_copies = 2;
  cfg.variant = core::Variant::HMP;
  cfg.hmp_copies = 2;

  cfg.output = core::OutputMode::Collect;
  cfg.checkpoint_path = root_ / "collect.txt";
  auto collected = std::make_shared<filters::CollectedResults>();
  auto params = core::make_params(cfg);
  const std::size_t total_chunks = params->chunks.size();
  ASSERT_GT(total_chunks, 2u);
  fs::run_threaded(core::build_pipeline(cfg, params, collected));
  EXPECT_EQ(collected->maps.size(), 4u);
  EXPECT_EQ(params->completion->chunks_completed(),
            static_cast<std::int64_t>(total_chunks));

  cfg.output = core::OutputMode::Unstitched;
  cfg.output_dir = root_ / "uso";
  cfg.checkpoint_path = root_ / "uso.txt";
  fs::run_threaded(core::build_pipeline(cfg, core::make_params(cfg), nullptr));

  auto collect_ids = ChunkManifest::load(root_ / "collect.txt");
  auto uso_ids = ChunkManifest::load(root_ / "uso.txt");
  std::sort(collect_ids.begin(), collect_ids.end());
  std::sort(uso_ids.begin(), uso_ids.end());
  std::vector<std::int64_t> all_ids;
  for (const Chunk& c : params->chunks) all_ids.push_back(c.id);
  std::sort(all_ids.begin(), all_ids.end());
  EXPECT_EQ(collect_ids, all_ids);
  EXPECT_EQ(collect_ids, uso_ids);
}

// --- end-to-end resume ----------------------------------------------------

/// Reads every USO sample file in `dir` and places the samples into one map
/// per feature slug, keyed by ROI origin — order-invariant, so duplicated
/// samples (resume replays) overwrite with identical values.
std::map<std::string, std::vector<float>> assemble(const fsys::path& dir,
                                                   const Region4& origins) {
  std::map<std::string, std::vector<float>> maps;
  for (const auto& e : fsys::directory_iterator(dir)) {
    if (e.path().extension() != ".bin") continue;
    std::string slug = e.path().stem().string();
    slug = slug.substr(0, slug.rfind("_c"));  // strip the USO copy suffix
    auto& map = maps
                    .try_emplace(slug,
                                 static_cast<std::size_t>(origins.volume()), 0.0f)
                    .first->second;
    std::ifstream in(e.path(), std::ios::binary);
    filters::FeatureSample s;
    while (in.read(reinterpret_cast<char*>(&s), sizeof s)) {
      map[static_cast<std::size_t>(
          linear_index(s.origin() - origins.origin, origins.size))] = s.value;
    }
  }
  return maps;
}

TEST_F(CheckpointFixture, ResumedRunIsByteIdenticalAndPlansStrictlyFewerChunks) {
  // Build a small disk dataset.
  io::PhantomConfig pcfg;
  pcfg.dims = {20, 18, 6, 5};
  pcfg.num_tumors = 1;
  pcfg.seed = 11;
  const auto phantom = io::generate_phantom(pcfg).volume;
  const fsys::path ds = root_ / "ds";
  io::DiskDataset::create(ds, phantom, 2);

  core::PipelineConfig cfg;
  cfg.dataset_root = ds;
  cfg.engine.roi_dims = {5, 5, 3, 3};
  cfg.engine.num_levels = 16;
  cfg.engine.features = haralick::FeatureSet::paper_eval();
  cfg.texture_chunk = {12, 12, 5, 4};
  cfg.rfr_copies = 2;
  cfg.variant = core::Variant::HMP;
  cfg.hmp_copies = 2;
  cfg.output = core::OutputMode::Unstitched;

  const Region4 origins = roi_origin_region(pcfg.dims, cfg.engine.roi_dims);

  // Uninterrupted reference run with checkpointing on.
  cfg.output_dir = root_ / "outA";
  cfg.checkpoint_path = root_ / "ckA.txt";
  auto paramsA = core::make_params(cfg);
  const std::size_t total_chunks = paramsA->chunks.size();
  ASSERT_GT(total_chunks, 2u);
  fs::run_threaded(core::build_pipeline(cfg, paramsA, nullptr));

  const auto all_ids = ChunkManifest::load(cfg.checkpoint_path);
  ASSERT_EQ(all_ids.size(), total_chunks);  // every chunk went durable
  const auto ref = assemble(cfg.output_dir, origins);
  ASSERT_EQ(ref.size(), 4u);  // one map per paper-eval feature

  // Emulate a crash after K chunks completed: the manifest holds its
  // ownership header, K valid records, and a torn tail; the output dir holds
  // exactly the samples of those K chunks (what their durable writes left on
  // disk).
  const std::size_t K = total_chunks / 2;
  std::unordered_set<std::int64_t> completed(all_ids.begin(), all_ids.begin() + K);
  const fsys::path ckB = root_ / "ckB.txt";
  {
    std::ifstream in(cfg.checkpoint_path);
    std::ofstream out(ckB);
    std::string line;
    std::size_t copied = 0;
    while (copied < K && std::getline(in, line)) {
      out << line << "\n";
      if (line.rfind("owner ", 0) != 0) ++copied;  // header doesn't count
    }
    out << "17";  // torn tail from the crash mid-append
  }
  const fsys::path outB = root_ / "outB";
  fsys::create_directories(outB);
  for (const auto& e : fsys::directory_iterator(cfg.output_dir)) {
    std::ifstream in(e.path(), std::ios::binary);
    std::ofstream out(outB / e.path().filename(), std::ios::binary);
    filters::FeatureSample s;
    while (in.read(reinterpret_cast<char*>(&s), sizeof s)) {
      for (const Chunk& c : paramsA->chunks) {
        if (c.owned_origins.contains(s.origin())) {
          if (completed.count(c.id)) {
            out.write(reinterpret_cast<const char*>(&s), sizeof s);
          }
          break;
        }
      }
    }
  }

  // Resume: completed chunks are pruned, the rest re-run.
  core::PipelineConfig cfg2 = cfg;
  cfg2.output_dir = outB;
  cfg2.checkpoint_path = ckB;
  cfg2.resume = true;
  auto paramsB = core::make_params(cfg2);
  EXPECT_EQ(paramsB->chunks_resumed, static_cast<std::int64_t>(K));
  EXPECT_EQ(paramsB->chunks.size(), total_chunks - K);  // strictly fewer
  fs::run_threaded(core::build_pipeline(cfg2, paramsB, nullptr));

  // After the resumed run: the manifest is complete again, and the assembled
  // feature maps are byte-identical to the uninterrupted run's.
  EXPECT_EQ(ChunkManifest::load(ckB).size(), total_chunks);
  const auto resumed = assemble(outB, origins);
  ASSERT_EQ(resumed.size(), ref.size());
  for (const auto& [slug, map] : ref) {
    ASSERT_TRUE(resumed.count(slug)) << slug;
    EXPECT_EQ(resumed.at(slug), map) << slug;  // exact float equality
  }
}

TEST_F(CheckpointFixture, ResumeWithEmptyManifestPlansEverything) {
  io::PhantomConfig pcfg;
  pcfg.dims = {16, 16, 5, 4};
  pcfg.seed = 3;
  const auto phantom = io::generate_phantom(pcfg).volume;
  const fsys::path ds = root_ / "ds";
  io::DiskDataset::create(ds, phantom, 1);

  core::PipelineConfig cfg;
  cfg.dataset_root = ds;
  cfg.engine.roi_dims = {5, 5, 3, 3};
  cfg.engine.num_levels = 8;
  cfg.engine.features = haralick::FeatureSet::paper_eval();
  cfg.texture_chunk = {10, 10, 4, 4};
  cfg.checkpoint_path = root_ / "ck.txt";
  cfg.resume = true;  // nothing recorded yet: must be a full plan
  auto params = core::make_params(cfg);
  EXPECT_EQ(params->chunks_resumed, 0);
  EXPECT_FALSE(params->chunks.empty());
}

}  // namespace
}  // namespace h4d::io
