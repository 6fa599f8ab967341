// Unit tests of the pipeline filters in isolation, with a mock context.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "filters/input_filters.hpp"
#include "filters/output_filters.hpp"
#include "filters/texture_filters.hpp"
#include "io/phantom.hpp"
#include "mock_context.hpp"
#include "nd/raster.hpp"

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

  const auto buffers = ctx.of_kind(BufferKind::FeatureValues);
  std::map<int, std::int64_t> per_feature;
  for (const auto& b : buffers) {
    per_feature[b->header.feature] +=
        static_cast<std::int64_t>(b->as<FeatureSample>().size());
  }
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
  const auto collect = [](const MockContext& ctx) {
    std::map<std::pair<int, std::array<std::int64_t, 4>>, float> out;
    for (const auto& e : ctx.emitted) {
      if (e.buffer->header.kind != BufferKind::FeatureValues) continue;
      for (const FeatureSample& s : e.buffer->as<FeatureSample>()) {
        out[{e.buffer->header.feature, {s.x, s.y, s.z, s.t}}] = s.value;
      }
    }
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

TEST_F(FilterUnitTest, UsoWritesSampleFiles) {
  fs::BufferHeader h;
  h.kind = BufferKind::FeatureValues;
  h.feature = static_cast<int>(Feature::Contrast);
  auto buf = fs::make_buffer(h);
  auto span = buf->alloc_as<FeatureSample>(3);
  span[0] = FeatureSample::make({0, 0, 0, 0}, 1.f);
  span[1] = FeatureSample::make({1, 0, 0, 0}, 2.f);
  span[2] = FeatureSample::make({2, 0, 0, 0}, 3.f);

  const fsys::path out = root_ / "uso";
  MockContext ctx;
  UnstitchedOutput uso(params_, out);
  uso.process(kPortFeatures, buf, ctx);
  uso.process(kPortFeatures, buf, ctx);  // appends

  const fsys::path file = out / "contrast_c0.bin";
  ASSERT_TRUE(fsys::exists(file));
  EXPECT_EQ(fsys::file_size(file), 6 * sizeof(FeatureSample));
  EXPECT_EQ(ctx.work().disk_bytes_written,
            static_cast<std::int64_t>(6 * sizeof(FeatureSample)));
}

TEST_F(FilterUnitTest, UsoAccountsOnlyWithEmptyDir) {
  fs::BufferHeader h;
  h.kind = BufferKind::FeatureValues;
  h.feature = 0;
  auto buf = fs::make_buffer(h);
  buf->alloc_as<FeatureSample>(5);
  MockContext ctx;
  UnstitchedOutput uso(params_, {});
  uso.process(kPortFeatures, buf, ctx);
  EXPECT_GT(ctx.work().disk_bytes_written, 0);
}

TEST_F(FilterUnitTest, HicAssemblesAndEmitsCompleteMaps) {
  MockContext ctx;
  HaralickImageConstructor hic(params_);
  const Region4 origins = roi_origin_region(params_->meta.dims, params_->engine.roi_dims);

  fs::BufferHeader h;
  h.kind = BufferKind::FeatureValues;
  h.feature = static_cast<int>(Feature::AngularSecondMoment);
  auto buf = fs::make_buffer(h);
  auto span = buf->alloc_as<FeatureSample>(static_cast<std::size_t>(origins.volume()));
  std::int64_t i = 0;
  for (const Vec4& p : raster(origins)) {
    span[static_cast<std::size_t>(i)] = FeatureSample::make(p, static_cast<float>(i));
    ++i;
  }
  hic.process(kPortFeatures, buf, ctx);
  hic.flush(ctx);

  const auto maps = ctx.of_kind(BufferKind::FeatureMap);
  ASSERT_EQ(maps.size(), 1u);
  EXPECT_EQ(maps[0]->header.region, origins);
  const auto values = maps[0]->as<float>();
  ASSERT_EQ(static_cast<std::int64_t>(values.size()), origins.volume());
  EXPECT_FLOAT_EQ(values[0], 0.0f);
  EXPECT_FLOAT_EQ(values[values.size() - 1], static_cast<float>(origins.volume() - 1));
}

TEST_F(FilterUnitTest, HicRejectsOutOfRangeOrigin) {
  MockContext ctx;
  HaralickImageConstructor hic(params_);
  fs::BufferHeader h;
  h.kind = BufferKind::FeatureValues;
  h.feature = 0;
  auto buf = fs::make_buffer(h);
  buf->alloc_as<FeatureSample>(1)[0] = FeatureSample::make({999, 0, 0, 0}, 1.f);
  EXPECT_THROW(hic.process(kPortFeatures, buf, ctx), std::runtime_error);
}

TEST_F(FilterUnitTest, JiwWritesNormalizedSeries) {
  const Region4 origins{{0, 0, 0, 0}, {4, 4, 2, 2}};
  fs::BufferHeader h;
  h.kind = BufferKind::FeatureMap;
  h.feature = static_cast<int>(Feature::Contrast);
  h.region = origins;
  auto buf = fs::make_buffer(h);
  auto span = buf->alloc_as<float>(static_cast<std::size_t>(origins.volume()));
  for (std::size_t i = 0; i < span.size(); ++i) span[i] = static_cast<float>(i);

  const fsys::path out = root_ / "jiw";
  MockContext ctx;
  ImageSeriesWriter jiw(params_, out);
  jiw.process(kPortMaps, buf, ctx);

  std::size_t pgms = 0;
  for (const auto& e : fsys::directory_iterator(out)) {
    if (e.path().extension() == ".pgm") ++pgms;
  }
  EXPECT_EQ(pgms, 4u);  // z * t slices
  EXPECT_GT(ctx.work().disk_bytes_written, 0);
}

}  // namespace
}  // namespace h4d::filters
