// Unit tests of the pipeline filters in isolation, with a mock context.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>

#include "filters/input_filters.hpp"
#include "filters/output_filters.hpp"
#include "filters/texture_filters.hpp"
#include "haralick/directions.hpp"
#include "io/image_write.hpp"
#include "io/phantom.hpp"
#include "mock_context.hpp"
#include "nd/raster.hpp"
#include "oracle/reference.hpp"

namespace h4d::filters {
namespace {

namespace fsys = std::filesystem;
using fs::BufferKind;
using fs::testing::MockContext;
using haralick::Feature;

class FilterUnitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fsys::temp_directory_path() /
            ("h4d_funit_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fsys::remove_all(root_);

    io::PhantomConfig pcfg;
    pcfg.dims = {16, 14, 6, 4};
    pcfg.seed = 21;
    volume_ = io::generate_phantom(pcfg).volume;
    io::DiskDataset::create(root_, volume_, 2);

    PipelineParams p;
    p.dataset_root = root_;
    p.meta = io::DatasetMeta::load(root_);
    p.engine.roi_dims = {5, 5, 3, 3};
    p.engine.num_levels = 16;
    p.texture_chunk = {10, 10, 5, 4};
    p.iic_copies = 1;
    params_ = PipelineParams::make(std::move(p));
  }
  void TearDown() override { fsys::remove_all(root_); }

  /// Run RFR copies and feed everything into one IIC; returns the IIC's
  /// emitted texture chunks.
  std::vector<fs::BufferPtr> run_input_stage() {
    MockContext iic_ctx;
    InputImageConstructor iic(params_);
    for (int node = 0; node < params_->meta.storage_nodes; ++node) {
      MockContext rfr_ctx(node, params_->meta.storage_nodes);
      RawFileReader rfr(params_);
      rfr.run_source(rfr_ctx);
      for (const auto& e : rfr_ctx.emitted) {
        iic.process(kPortPieces, e.buffer, iic_ctx);
      }
    }
    iic.flush(iic_ctx);
    return iic_ctx.of_kind(BufferKind::TextureChunk);
  }

  fsys::path root_;
  Volume4<std::uint16_t> volume_{Vec4{1, 1, 1, 1}};
  ParamsPtr params_;
};

/// A FeatureValues block of `values` at raster(box)[first, first + n), as
/// HMP and HPC emit them.
fs::BufferPtr block_of(Feature f, const Region4& box, std::int64_t first,
                       const std::vector<float>& values) {
  auto buf = make_feature_block(f, box, first, static_cast<std::int64_t>(values.size()), 0);
  std::copy(values.begin(), values.end(), feature_block_values(*buf).begin());
  return buf;
}

/// Calls fn(feature, origin, value) for every value of every FeatureValues
/// buffer `ctx` received.
template <typename Fn>
void for_each_value(const MockContext& ctx, const ParamsPtr& p, Fn&& fn) {
  const Region4 origins = roi_origin_region(p->meta.dims, p->engine.roi_dims);
  for (const auto& e : ctx.emitted) {
    if (e.buffer->header.kind != BufferKind::FeatureValues) continue;
    const FeatureBlockView b = read_feature_block(*e.buffer, origins, p->engine.features);
    for (std::size_t i = 0; i < b.values.size(); ++i) {
      fn(b.feature, b.box.origin + delinearize(b.first + static_cast<std::int64_t>(i), b.box.size),
         b.values[i]);
    }
  }
}

TEST_F(FilterUnitTest, RfrEmitsEverySlicePieceWithDiskAccounting) {
  MockContext ctx(0, 2);
  RawFileReader rfr(params_);
  rfr.run_source(ctx);
  const auto pieces = ctx.of_kind(BufferKind::RawChunkPiece);
  // Node 0 owns half the 24 slices; whole-slice pieces, single IIC copy.
  EXPECT_EQ(pieces.size(), 12u);
  for (const auto& b : pieces) {
    EXPECT_EQ(b->header.region.size[0], 16);
    EXPECT_EQ(b->header.region.size[1], 14);
    EXPECT_EQ(b->payload.size(), 16u * 14u);
  }
  EXPECT_GT(ctx.work().disk_bytes_read, 0);
  EXPECT_GT(ctx.work().disk_seeks, 0);
  EXPECT_EQ(ctx.work().elements_quantized, 12 * 16 * 14);
}

TEST_F(FilterUnitTest, RfrQuantizesAgainstGlobalRange) {
  MockContext ctx(0, 2);
  RawFileReader rfr(params_);
  rfr.run_source(ctx);
  const Quantizer q = params_->quantizer();
  const auto pieces = ctx.of_kind(BufferKind::RawChunkPiece);
  ASSERT_FALSE(pieces.empty());
  const auto& b = pieces.front();
  const Region4& r = b->header.region;
  for (std::int64_t y = 0; y < r.size[1]; ++y) {
    for (std::int64_t x = 0; x < r.size[0]; ++x) {
      const Level expect =
          q(volume_.at(r.origin[0] + x, r.origin[1] + y, r.origin[2], r.origin[3]));
      EXPECT_EQ(static_cast<Level>(b->payload[static_cast<std::size_t>(y * r.size[0] + x)]),
                expect);
    }
  }
}

TEST_F(FilterUnitTest, IicReassemblesEveryChunkExactly) {
  const auto chunks = run_input_stage();
  EXPECT_EQ(chunks.size(), params_->chunks.size());

  const Quantizer q = params_->quantizer();
  std::set<std::int64_t> seen;
  for (const auto& b : chunks) {
    seen.insert(b->header.chunk_id);
    const Region4& r = b->header.region;
    EXPECT_EQ(static_cast<std::int64_t>(b->payload.size()), r.volume());
    const Vol4View<const Level> view(reinterpret_cast<const Level*>(b->payload.data()),
                                     r.size);
    for (const Vec4& p : raster(Region4::whole(r.size))) {
      EXPECT_EQ(view.at(p), q(volume_.at(r.origin + p))) << p.str();
    }
  }
  EXPECT_EQ(seen.size(), params_->chunks.size());
}

TEST_F(FilterUnitTest, IicFlushThrowsOnMissingPieces) {
  MockContext iic_ctx;
  InputImageConstructor iic(params_);
  // Feed only node 0's pieces: chunks needing node-1 slices stay pending.
  MockContext rfr_ctx(0, 2);
  RawFileReader rfr(params_);
  rfr.run_source(rfr_ctx);
  for (const auto& e : rfr_ctx.emitted) iic.process(kPortPieces, e.buffer, iic_ctx);
  EXPECT_THROW(iic.flush(iic_ctx), std::runtime_error);
}

TEST_F(FilterUnitTest, IicRejectsWrongBufferKind) {
  MockContext ctx;
  InputImageConstructor iic(params_);
  fs::BufferHeader h;
  h.kind = BufferKind::Control;
  EXPECT_THROW(iic.process(kPortPieces, fs::make_buffer(h), ctx), std::runtime_error);
}

TEST_F(FilterUnitTest, HmpEmitsOneSamplePerOriginPerFeature) {
  const auto chunks = run_input_stage();
  MockContext ctx;
  HaralickMatrixProducer hmp(params_);
  for (const auto& c : chunks) hmp.process(kPortChunks, c, ctx);
  hmp.flush(ctx);

  std::map<int, std::int64_t> per_feature;
  for_each_value(ctx, params_, [&](Feature f, const Vec4&, float) {
    ++per_feature[static_cast<int>(f)];
  });
  const std::int64_t origins = num_roi_origins(params_->meta.dims, params_->engine.roi_dims);
  EXPECT_EQ(per_feature.size(), 4u);  // paper_eval features
  for (const auto& [f, n] : per_feature) EXPECT_EQ(n, origins) << f;
  EXPECT_GT(ctx.work().work.glcm_pair_updates, 0);
  EXPECT_EQ(ctx.work().work.matrices_built, origins);
}

TEST_F(FilterUnitTest, HccEmitsPacketsPerChunkQuarter) {
  const auto chunks = run_input_stage();
  MockContext ctx;
  HaralickCoMatrixCalculator hcc(params_);
  hcc.process(kPortChunks, chunks.front(), ctx);
  const auto packets = ctx.of_kind(BufferKind::MatrixPacket);
  // packets_per_chunk defaults to 4.
  EXPECT_GE(packets.size(), 4u);
  std::uint32_t matrices = 0;
  for (const auto& p : packets) {
    MatrixPacketReader reader(*p, params_->engine.num_levels);
    matrices += reader.count();
  }
  EXPECT_EQ(matrices, chunks.front()->header.region2.volume());
}

TEST_F(FilterUnitTest, HccThenHpcMatchesHmp) {
  const auto chunks = run_input_stage();

  MockContext hmp_ctx;
  HaralickMatrixProducer hmp(params_);
  for (const auto& c : chunks) hmp.process(kPortChunks, c, hmp_ctx);
  hmp.flush(hmp_ctx);

  MockContext hpc_ctx;
  HaralickCoMatrixCalculator hcc(params_);
  HaralickParameterCalculator hpc(params_);
  MockContext hcc_ctx;
  for (const auto& c : chunks) hcc.process(kPortChunks, c, hcc_ctx);
  hcc.flush(hcc_ctx);
  for (const auto& p : hcc_ctx.of_kind(BufferKind::MatrixPacket)) {
    hpc.process(kPortMatrices, p, hpc_ctx);
  }
  hpc.flush(hpc_ctx);

  // Collect (feature, origin) -> value from both paths and compare.
  const auto collect = [this](const MockContext& ctx) {
    std::map<std::pair<int, std::array<std::int64_t, 4>>, float> out;
    for_each_value(ctx, params_, [&](Feature f, const Vec4& o, float value) {
      out[{static_cast<int>(f), {o[0], o[1], o[2], o[3]}}] = value;
    });
    return out;
  };
  const auto a = collect(hmp_ctx);
  const auto b = collect(hpc_ctx);
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [key, value] : a) {
    ASSERT_TRUE(b.count(key));
    EXPECT_NEAR(b.at(key), value, 1e-5f * std::max(1.0f, std::abs(value)));
  }
}

TEST_F(FilterUnitTest, HpcShipsOneBlockPerPacketAndFeature) {
  // Each packet becomes one block per selected feature, naming the chunk's
  // owned box and the packet's raster index in it; a packet that names no
  // box is refused.
  const auto chunks = run_input_stage();
  MockContext hcc_ctx;
  HaralickCoMatrixCalculator hcc(params_);
  hcc.process(kPortChunks, chunks.front(), hcc_ctx);
  const Region4 owned = chunks.front()->header.region2;
  const auto packets = hcc_ctx.of_kind(BufferKind::MatrixPacket);
  ASSERT_GE(packets.size(), 2u);

  MockContext hpc_ctx;
  HaralickParameterCalculator hpc(params_);
  std::int64_t next = 0;
  for (const auto& p : packets) {
    EXPECT_EQ(p->header.region, owned);
    hpc_ctx.emitted.clear();
    hpc.process(kPortMatrices, p, hpc_ctx);
    const auto blocks = hpc_ctx.of_kind(BufferKind::FeatureValues);
    ASSERT_EQ(blocks.size(), 4u);  // paper_eval features
    const std::int64_t count = MatrixPacketReader(*p, params_->engine.num_levels).count();
    for (const auto& b : blocks) {
      const FeatureBlockView v =
          read_feature_block(*b, roi_origin_region(params_->meta.dims, params_->engine.roi_dims),
                             params_->engine.features);
      EXPECT_EQ(v.box, owned);
      EXPECT_EQ(v.first, next);
      EXPECT_EQ(static_cast<std::int64_t>(v.values.size()), count);
    }
    next += count;
  }
  EXPECT_EQ(next, owned.volume());

  auto loose = fs::make_buffer(packets.front()->header, packets.front()->payload);
  loose->header.region = Region4{};
  EXPECT_THROW(hpc.process(kPortMatrices, loose, hpc_ctx), haralick::MalformedMatrixError);
}

TEST_F(FilterUnitTest, UsoWritesSampleFiles) {
  const auto buf = block_of(Feature::Correlation, Region4{{0, 0, 0, 0}, {3, 1, 1, 1}}, 0,
                            {1.f, 2.f, 3.f});

  const fsys::path out = root_ / "uso";
  MockContext ctx;
  UnstitchedOutput uso(params_, out);
  uso.process(kPortFeatures, buf, ctx);
  uso.process(kPortFeatures, buf, ctx);  // appends

  const fsys::path file = out / (std::string(haralick::feature_slug(Feature::Correlation)) +
                                 "_c0.bin");
  ASSERT_TRUE(fsys::exists(file));
  EXPECT_EQ(fsys::file_size(file), 6 * sizeof(FeatureSample));
  EXPECT_EQ(ctx.work().disk_bytes_written,
            static_cast<std::int64_t>(6 * sizeof(FeatureSample)));
  // Each value is expanded to its (origin, value) record.
  std::ifstream in(file, std::ios::binary);
  FeatureSample s;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(in.read(reinterpret_cast<char*>(&s), sizeof s));
    EXPECT_EQ(s.origin(), Vec4(i % 3, 0, 0, 0));
    EXPECT_EQ(s.value, static_cast<float>(i % 3 + 1));
  }
}

TEST_F(FilterUnitTest, UsoAccountsOnlyWithEmptyDir) {
  const auto buf = block_of(Feature::AngularSecondMoment, Region4{{0, 0, 0, 0}, {5, 1, 1, 1}},
                            0, std::vector<float>(5));
  MockContext ctx;
  UnstitchedOutput uso(params_, {});
  uso.process(kPortFeatures, buf, ctx);
  EXPECT_GT(ctx.work().disk_bytes_written, 0);
}

TEST_F(FilterUnitTest, HicAssemblesAndEmitsCompleteMaps) {
  MockContext ctx;
  HaralickImageConstructor hic(params_);
  const Region4 origins = roi_origin_region(params_->meta.dims, params_->engine.roi_dims);

  std::vector<float> ramp(static_cast<std::size_t>(origins.volume()));
  for (std::size_t i = 0; i < ramp.size(); ++i) ramp[i] = static_cast<float>(i);
  hic.process(kPortFeatures, block_of(Feature::AngularSecondMoment, origins, 0, ramp), ctx);
  hic.flush(ctx);

  const auto maps = ctx.of_kind(BufferKind::FeatureMap);
  ASSERT_EQ(maps.size(), 1u);
  EXPECT_EQ(maps[0]->header.region, origins);
  EXPECT_EQ(maps[0]->feature_map.dims(), origins.size);
  const std::vector<float>& values = maps[0]->feature_map.storage();
  ASSERT_EQ(static_cast<std::int64_t>(values.size()), origins.volume());
  EXPECT_FLOAT_EQ(values[0], 0.0f);
  EXPECT_FLOAT_EQ(values[values.size() - 1], static_cast<float>(origins.volume() - 1));
}

TEST_F(FilterUnitTest, HicRejectsOutOfRangeOrigin) {
  MockContext ctx;
  HaralickImageConstructor hic(params_);
  const auto buf =
      block_of(Feature::AngularSecondMoment, Region4{{999, 0, 0, 0}, {1, 1, 1, 1}}, 0, {1.f});
  EXPECT_THROW(hic.process(kPortFeatures, buf, ctx), std::runtime_error);
}

// ---- malformed feature blocks: HIC and USO reject each defect with one
// typed error, before they stitch, write or credit anything ----

class MalformedBlockTest : public FilterUnitTest {
 protected:
  void expect_rejected(const fs::BufferPtr& buf) {
    MockContext ctx;
    HaralickImageConstructor hic(params_);
    EXPECT_THROW(hic.process(kPortFeatures, buf, ctx), MalformedFeatureBlockError);
    hic.flush(ctx);
    EXPECT_TRUE(ctx.of_kind(BufferKind::FeatureMap).empty());

    const fsys::path out = root_ / "uso";
    UnstitchedOutput uso(params_, out);
    EXPECT_THROW(uso.process(kPortFeatures, buf, ctx), MalformedFeatureBlockError);
    EXPECT_FALSE(fsys::exists(out));
    EXPECT_EQ(ctx.work().disk_bytes_written, 0);
  }

  Region4 origins() const {
    return roi_origin_region(params_->meta.dims, params_->engine.roi_dims);
  }
};

TEST_F(MalformedBlockTest, BoxOutsideTheOriginRegion) {
  // One past the last origin along y, a negative origin, an empty box, and
  // a box whose end overflows int64.
  Region4 past = origins();
  past.size[1] += 1;
  expect_rejected(block_of(Feature::Correlation, past, 0, {1.f}));
  expect_rejected(block_of(Feature::Correlation, Region4{{-1, 0, 0, 0}, {2, 1, 1, 1}}, 0, {1.f}));
  expect_rejected(block_of(Feature::Correlation, Region4{{0, 0, 0, 0}, {0, 1, 1, 1}}, 0, {}));
  const std::int64_t huge = std::numeric_limits<std::int64_t>::max();
  expect_rejected(
      block_of(Feature::Correlation, Region4{{huge, 0, 0, 0}, {2, 1, 1, 1}}, 0, {1.f}));
}

TEST_F(MalformedBlockTest, RunPastTheEndOfTheBox) {
  const Region4 box{{0, 0, 0, 0}, {3, 2, 1, 1}};
  expect_rejected(block_of(Feature::Correlation, box, 0, std::vector<float>(7)));
  expect_rejected(block_of(Feature::Correlation, box, 4, std::vector<float>(3)));
  expect_rejected(block_of(Feature::Correlation, box, -1, std::vector<float>(2)));
}

TEST_F(MalformedBlockTest, PayloadLengthIsNotEightPlusFourN) {
  const Region4 box{{0, 0, 0, 0}, {3, 2, 1, 1}};
  auto odd = block_of(Feature::Correlation, box, 0, {1.f, 2.f});
  odd->payload.pop_back();  // 8 + 4 * 2 - 1 bytes
  expect_rejected(odd);
  auto short_first = block_of(Feature::Correlation, box, 0, {});
  short_first->payload.resize(4);  // not even `first`
  expect_rejected(short_first);
}

TEST_F(MalformedBlockTest, FeatureOutsideTheRunsSet) {
  const Region4 box{{0, 0, 0, 0}, {2, 1, 1, 1}};
  expect_rejected(block_of(Feature::Contrast, box, 0, {1.f, 2.f}));  // not in paper_eval
  auto past = block_of(Feature::Correlation, box, 0, {1.f, 2.f});
  past->header.feature = haralick::kNumFeatures;
  expect_rejected(past);
  past->header.feature = -1;
  expect_rejected(past);
}

TEST_F(FilterUnitTest, HicStitchesPartialRunsAcrossRowsAndPlanes) {
  // HPC ships a packet's run of a chunk's owned box: it may start and end
  // mid-row. Runs cutting the box anywhere, in any order, stitch the same
  // map as one whole block.
  const Region4 origins = roi_origin_region(params_->meta.dims, params_->engine.roi_dims);
  const Region4 box{{1, 2, 1, 0}, {5, 3, 2, 2}};  // inside the 12x10x4x2 origins
  const std::int64_t n = box.volume();
  std::vector<float> values(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = 1.0f + static_cast<float>(i);

  MockContext whole_ctx;
  HaralickImageConstructor whole(params_);
  whole.process(kPortFeatures, block_of(Feature::Correlation, box, 0, values), whole_ctx);
  whole.flush(whole_ctx);

  MockContext runs_ctx;
  HaralickImageConstructor runs(params_);
  const std::vector<std::int64_t> cuts{0, 1, 4, 5, 16, 17, 31, 45, 59, n};
  for (std::size_t c = cuts.size() - 1; c-- > 0;) {  // last run first
    const std::vector<float> part(values.begin() + cuts[c], values.begin() + cuts[c + 1]);
    runs.process(kPortFeatures, block_of(Feature::Correlation, box, cuts[c], part), runs_ctx);
  }
  runs.flush(runs_ctx);

  const auto a = whole_ctx.of_kind(BufferKind::FeatureMap);
  const auto b = runs_ctx.of_kind(BufferKind::FeatureMap);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0]->feature_map.storage(), b[0]->feature_map.storage());
  std::int64_t i = 0;
  for (const Vec4& p : raster(box)) {
    EXPECT_EQ(b[0]->feature_map.at(p - origins.origin), 1.0f + static_cast<float>(i)) << p.str();
    ++i;
  }
  std::int64_t nonzero = 0;
  for (const float v : b[0]->feature_map.storage()) nonzero += v != 0.0f;
  EXPECT_EQ(nonzero, n);  // nothing outside the box
}

TEST_F(FilterUnitTest, JiwWritesNormalizedSeries) {
  // The paper's JIW stage runs as write_feature_map_images on what the
  // Collector holds: the map's own min/max spans black to white, one slice
  // per (z, t).
  const Region4 origins{{0, 0, 0, 0}, {4, 4, 2, 2}};
  fs::BufferHeader h;
  h.kind = BufferKind::FeatureMap;
  h.feature = static_cast<int>(Feature::Contrast);
  h.region = origins;
  auto buf = fs::make_buffer(h);
  buf->feature_map = Volume4<float>(origins.size);
  std::vector<float>& values = buf->feature_map.storage();
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = static_cast<float>(i);

  auto collected = std::make_shared<CollectedResults>();
  MockContext ctx;
  ResultCollector collector(params_, collected);
  collector.process(kPortMaps, buf, ctx);
  ASSERT_EQ(collected->maps.count(Feature::Contrast), 1u);
  const auto [lo, hi] = collected->ranges.at(Feature::Contrast);
  EXPECT_FLOAT_EQ(lo, 0.0f);
  EXPECT_FLOAT_EQ(hi, 63.0f);

  const fsys::path out = root_ / "jiw";
  EXPECT_EQ(io::write_feature_map_images(out, "contrast", collected->maps.at(Feature::Contrast),
                                         lo, hi),
            4);  // z * t slices
  std::size_t pgms = 0;
  for (const auto& e : fsys::directory_iterator(out)) {
    if (e.path().extension() == ".pgm") ++pgms;
  }
  EXPECT_EQ(pgms, 4u);
  std::int64_t w = 0, ht = 0;
  EXPECT_EQ(io::read_pgm(out / "contrast_t0_z0.pgm", w, ht).front(), 0);
  EXPECT_EQ(io::read_pgm(out / "contrast_t1_z1.pgm", w, ht).back(), 255);
}

TEST_F(FilterUnitTest, CollectorKeepsTheStorageHicStitchedInto) {
  // HIC stitches into the Volume4 its FeatureMap buffer carries; the
  // Collector moves that object into CollectedResults, so the collected
  // map's storage is the very array HIC wrote (no allocation, no copy).
  MockContext hic_ctx;
  HaralickImageConstructor hic(params_);
  const Region4 origins = roi_origin_region(params_->meta.dims, params_->engine.roi_dims);
  std::vector<float> values(static_cast<std::size_t>(origins.volume()));
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = 0.5f * static_cast<float>(i);
  hic.process(kPortFeatures, block_of(Feature::Correlation, origins, 0, values), hic_ctx);
  hic.flush(hic_ctx);
  const auto maps = hic_ctx.of_kind(BufferKind::FeatureMap);
  ASSERT_EQ(maps.size(), 1u);
  const float* stitched = maps[0]->feature_map.data();
  const std::size_t wire = maps[0]->wire_bytes();
  EXPECT_EQ(wire, sizeof(fs::BufferHeader) +
                      static_cast<std::size_t>(origins.volume()) * sizeof(float));

  auto collected = std::make_shared<CollectedResults>();
  MockContext ctx;
  ResultCollector collector(params_, collected);
  collector.process(kPortMaps, maps[0], ctx);
  ASSERT_EQ(collected->maps.count(Feature::Correlation), 1u);
  const Volume4<float>& map = collected->maps.at(Feature::Correlation);
  EXPECT_EQ(map.data(), stitched);  // same storage, moved
  EXPECT_EQ(map.dims(), origins.size);
  EXPECT_EQ(map.storage().back(), 0.5f * static_cast<float>(origins.volume() - 1));
  EXPECT_TRUE(maps[0]->feature_map.storage().empty());  // taken, not shared
  EXPECT_EQ(collected->ranges.at(Feature::Correlation),
            (std::pair<float, float>(0.0f, 0.5f * static_cast<float>(origins.volume() - 1))));
}

/// The serial loop the Collector used to run, as the reference for
/// value_range.
std::pair<float, float> serial_range(const std::vector<float>& values) {
  float lo = std::numeric_limits<float>::infinity();
  float hi = -lo;
  for (float v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return {lo, hi};
}

std::uint32_t bits_of(float v) {
  std::uint32_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

void expect_same_range(const std::vector<float>& values, const std::string& what) {
  const auto [lo, hi] = value_range(values);
  const auto [rlo, rhi] = serial_range(values);
  EXPECT_EQ(bits_of(lo), bits_of(rlo)) << what << ": min " << lo << " vs " << rlo;
  EXPECT_EQ(bits_of(hi), bits_of(rhi)) << what << ": max " << hi << " vs " << rhi;
}

TEST(CollectorRange, MatchesTheSerialLoopBitForBit) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  expect_same_range({}, "empty");
  expect_same_range({nan}, "lone NaN");
  expect_same_range({nan, nan, nan}, "all NaN");
  for (std::size_t n : {1u, 7u, 16u, 17u, 33u, 1000u}) {
    expect_same_range(std::vector<float>(n, 3.25f), "constant x" + std::to_string(n));
    expect_same_range(std::vector<float>(n, -0.0f), "all -0 x" + std::to_string(n));
  }
  // Signed zeros: the serial loop keeps whichever zero it meets first, and
  // the first zero may sit in any lane.
  for (std::size_t at = 0; at < 40; ++at) {
    for (const float first : {-0.0f, 0.0f}) {
      std::vector<float> v(40, 1.0f);
      v[at] = first;
      for (std::size_t j = at + 1; j < v.size(); j += 3) v[j] = -first;
      expect_same_range(v, "zeros from " + std::to_string(at) + " min side");
      for (float& x : v) x = x == 1.0f ? -1.0f : x;
      expect_same_range(v, "zeros from " + std::to_string(at) + " max side");
    }
  }
  // NaNs anywhere, including in front of the extremes.
  std::mt19937 rng(7);
  std::uniform_real_distribution<float> val(-5.0f, 5.0f);
  for (int rep = 0; rep < 50; ++rep) {
    std::vector<float> v(static_cast<std::size_t>(rng() % 200 + 1));
    for (float& x : v) x = val(rng);
    for (std::size_t k = 0; k < v.size(); k += 1 + rng() % 9) v[k] = nan;
    if (rep % 5 == 0) v[rng() % v.size()] = rep % 2 ? inf : -inf;
    if (rep % 7 == 0) v[rng() % v.size()] = 0.0f;
    expect_same_range(v, "random " + std::to_string(rep));
  }
}

TEST_F(FilterUnitTest, CollectorRangesMatchTheSerialLoop) {
  // The Collector's ranges for a map holding a NaN, both zeros and a
  // constant: the serial loop's results, bit for bit.
  const Region4 origins{{0, 0, 0, 0}, {5, 3, 2, 2}};
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<std::vector<float>> cases = {
      {nan, 2.0f, -0.0f, 0.0f, 4.0f},  // NaN first, -0 before +0: min is -0
      {nan, 0.0f, -0.0f, -2.0f},       // +0 before -0: max is +0
      {7.5f},                          // constant
  };
  const std::vector<std::pair<float, float>> expected = {
      {-0.0f, 4.0f}, {-2.0f, 0.0f}, {7.5f, 7.5f}};
  for (std::size_t c = 0; c < cases.size(); ++c) {
    fs::BufferHeader h;
    h.kind = BufferKind::FeatureMap;
    h.feature = static_cast<int>(Feature::Contrast);
    h.region = origins;
    auto buf = fs::make_buffer(h);
    buf->feature_map = Volume4<float>(origins.size, cases[c].back());
    std::vector<float>& values = buf->feature_map.storage();
    std::copy(cases[c].begin(), cases[c].end(), values.begin() + 11);
    const std::vector<float> snapshot = values;

    auto collected = std::make_shared<CollectedResults>();
    MockContext ctx;
    ResultCollector(params_, collected).process(kPortMaps, buf, ctx);
    const auto [lo, hi] = collected->ranges.at(Feature::Contrast);
    const auto [rlo, rhi] = serial_range(snapshot);
    EXPECT_EQ(bits_of(lo), bits_of(rlo)) << "case " << c;
    EXPECT_EQ(bits_of(hi), bits_of(rhi)) << "case " << c;
    EXPECT_EQ(bits_of(lo), bits_of(expected[c].first)) << "case " << c;
    EXPECT_EQ(bits_of(hi), bits_of(expected[c].second)) << "case " << c;
  }
}

// ---- HCC on column histograms: every packet against the oracle ----

using haralick::Representation;

/// Runs one HCC copy over a random chunk at `chunk_origin` and checks every
/// packet it emits, origin by origin in raster order, against the oracle's
/// per-ROI construction: the decoded matrix, the wire bytes (a Full table
/// is the dense counts), the packet split and all six WorkCounters.
void check_hcc_packets(const Volume4<Level>& levels, const Vec4& chunk_origin,
                       const Region4& owned_local, const haralick::EngineConfig& engine,
                       int packets_per_chunk, const std::string& label) {
  SCOPED_TRACE(label + " repr=" +
               (engine.representation == Representation::Full ? "full" : "sparse") +
               " packets=" + std::to_string(packets_per_chunk) +
               " owned=" + owned_local.str());
  auto params = std::make_shared<PipelineParams>();
  params->engine = engine;
  params->packets_per_chunk = packets_per_chunk;
  HaralickCoMatrixCalculator hcc(params);

  const Region4 region{chunk_origin, levels.dims()};
  const Region4 owned{chunk_origin + owned_local.origin, owned_local.size};
  fs::BufferHeader h;
  h.kind = BufferKind::TextureChunk;
  h.chunk_id = 5;
  h.region = region;
  h.region2 = owned;
  std::vector<std::byte> payload(levels.storage().size());
  std::memcpy(payload.data(), levels.storage().data(), payload.size());
  MockContext ctx;
  hcc.process(kPortChunks, fs::make_buffer(h, std::move(payload)), ctx);
  hcc.flush(ctx);
  const auto packets = ctx.of_kind(BufferKind::MatrixPacket);

  // The packet rule: a packet every total / packets_per_chunk ROIs (at
  // least 1), the remainder in a last one.
  const std::int64_t total = owned.volume();
  const std::int64_t per = std::max<std::int64_t>(1, total / packets_per_chunk);
  ASSERT_EQ(static_cast<std::int64_t>(packets.size()), (total + per - 1) / per);

  const int ng = engine.num_levels;
  const auto dirs = engine.effective_directions();
  const bool full = engine.representation == Representation::Full;
  haralick::WorkCounters want;
  std::int64_t k = 0;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ(packets[i]->header.chunk_id, 5);
    EXPECT_EQ(packets[i]->header.seq, static_cast<std::int64_t>(i));
    MatrixPacketReader reader(*packets[i], ng);
    ASSERT_EQ(static_cast<std::int64_t>(reader.count()),
              i + 1 < packets.size() ? per : total - per * static_cast<std::int64_t>(i));
    const std::byte* record = packets[i]->payload.data() + sizeof(std::uint32_t);
    while (reader.next()) {
      const Vec4 origin = owned.origin + delinearize(k++, owned.size);
      ASSERT_EQ(reader.origin(), origin);
      haralick::Glcm g(ng);
      want.glcm_pair_updates += oracle::accumulate_reference(
          g, levels.view(), Region4{origin - chunk_origin, engine.roi_dims}, dirs);
      want.matrices_built += 1;
      const haralick::SparseGlcm sparse = haralick::SparseGlcm::from_dense(g);
      ASSERT_EQ(reader.matrix().entries(), sparse.entries()) << "origin " << origin.str();
      ASSERT_EQ(reader.matrix().total(), sparse.total());

      // The wire bytes after the origin: the dense counts, or the header
      // SparseGlcm::serialize writes (the entries were compared above; their
      // padding bytes carry no value).
      record += 4 * sizeof(std::int64_t);
      if (full) {
        record += sizeof(std::uint32_t) + sizeof(std::uint64_t);
        const std::size_t bytes = static_cast<std::size_t>(ng) * ng * sizeof(std::uint32_t);
        ASSERT_EQ(std::memcmp(record, g.counts(), bytes), 0) << "origin " << origin.str();
        record += bytes;
      } else {
        std::vector<std::byte> wire;
        sparse.serialize(wire);
        ASSERT_EQ(std::memcmp(record, wire.data(), haralick::SparseGlcm::kWireHeader), 0)
            << "origin " << origin.str();
        record += wire.size();
        want.sparse_compress_cells += static_cast<std::int64_t>(ng) * ng;
        want.sparse_entries_emitted += static_cast<std::int64_t>(sparse.nnz());
      }
    }
    EXPECT_EQ(record, packets[i]->payload.data() + packets[i]->payload.size());
  }
  EXPECT_EQ(k, total);

  const haralick::WorkCounters& got = ctx.work().work;
  EXPECT_EQ(got.glcm_pair_updates, want.glcm_pair_updates);
  EXPECT_EQ(got.matrices_built, want.matrices_built);
  EXPECT_EQ(got.sparse_compress_cells, want.sparse_compress_cells);
  EXPECT_EQ(got.sparse_entries_emitted, want.sparse_entries_emitted);
  EXPECT_EQ(got.feature_cells_scanned, 0);
  EXPECT_EQ(got.feature_cell_ops, 0);
}

Volume4<Level> random_levels(const Vec4& dims, int ng, unsigned seed) {
  Volume4<Level> v(dims);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> u(0, ng - 1);
  for (Level& l : v.storage()) l = static_cast<Level>(u(rng));
  return v;
}

TEST(HccPackets, ColumnPathMatchesOracleForEveryOwnedWidth) {
  const Vec4 chunk{9, 5, 4, 3};
  haralick::EngineConfig engine;
  engine.roi_dims = {3, 2, 2, 2};
  unsigned seed = 400;
  for (const int ng : {2, 7, 32, 64}) {
    engine.num_levels = ng;
    const Volume4<Level> levels = random_levels(chunk, ng, seed++);
    for (const Representation repr : {Representation::Full, Representation::Sparse}) {
      engine.representation = repr;
      for (const int packets : {1, 4, 7}) {
        // Owned widths 1 .. the chunk's origin width (7), at varying x.
        for (std::int64_t w = 1; w <= chunk[0] - engine.roi_dims[0] + 1; ++w) {
          const Region4 owned{{(w * 3) % (8 - w), 1, 0, 0}, {w, 3, 2, 2}};
          check_hcc_packets(levels, {4, 2, 1, 0}, owned, engine, packets,
                            "ng=" + std::to_string(ng));
        }
      }
    }
  }
  // Axis and random unit direction sets.
  engine.num_levels = 32;
  const Volume4<Level> levels = random_levels(chunk, 32, seed++);
  std::vector<Vec4> random_dirs;
  std::mt19937_64 rng(seed);
  for (const Vec4& d : haralick::unique_directions(haralick::ActiveDims::all4())) {
    if (rng() % 3 == 0) random_dirs.push_back(d[0] == 0 ? d : -d);
  }
  for (const auto& dirs : {haralick::axis_directions(haralick::ActiveDims::all4()), random_dirs}) {
    engine.directions = dirs;
    for (const Representation repr : {Representation::Full, Representation::Sparse}) {
      engine.representation = repr;
      check_hcc_packets(levels, {0, 0, 0, 0}, Region4{{0, 0, 0, 0}, {7, 4, 3, 2}}, engine, 4,
                        std::to_string(dirs.size()) + " dirs");
    }
  }
}

TEST(HccPackets, FallbackCasesMatchOracle) {
  haralick::EngineConfig engine;
  engine.roi_dims = {4, 3, 2, 2};
  const Region4 owned{{0, 1, 0, 0}, {4, 2, 2, 1}};
  for (const Representation repr : {Representation::Full, Representation::Sparse}) {
    engine.representation = repr;
    for (const int packets : {1, 4, 7}) {
      // Ng above 64.
      engine.num_levels = 65;
      engine.directions.clear();
      check_hcc_packets(random_levels({7, 6, 3, 2}, 65, 481), {0, 0, 0, 0}, owned, engine,
                        packets, "ng=65");
      // A distance-2 step.
      engine.num_levels = 32;
      engine.directions = {Vec4{1, 0, 0, 0}, Vec4{2, 0, 0, 0}, Vec4{0, 1, 1, 0}};
      check_hcc_packets(random_levels({7, 6, 3, 2}, 32, 482), {0, 0, 0, 0}, owned, engine,
                        packets, "distance 2");
    }
    // More than 65,535 pairs per ROI.
    engine.num_levels = 32;
    engine.directions.clear();
    engine.roi_dims = {12, 12, 6, 6};
    check_hcc_packets(random_levels({13, 12, 6, 6}, 32, 483), {0, 0, 0, 0},
                      Region4{{0, 0, 0, 0}, {2, 1, 1, 1}}, engine, 4, "pairs > 65535");
    engine.roi_dims = {4, 3, 2, 2};
  }
}

}  // namespace
}  // namespace h4d::filters
