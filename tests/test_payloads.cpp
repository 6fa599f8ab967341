#include "filters/payloads.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <random>

#include "glcm_test_util.hpp"
#include "haralick/directions.hpp"

namespace h4d::filters {
namespace {

using haralick::Glcm;
using haralick::Representation;

Glcm sample_glcm(int ng, unsigned seed) {
  Volume4<Level> v({7, 7, 3, 3});
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> u(0, ng - 1);
  for (Level& l : v.storage()) l = static_cast<Level>(u(rng));
  Glcm g(ng);
  g.accumulate(v.view(), Region4::whole(v.dims()),
               haralick::unique_directions(haralick::ActiveDims::all4()));
  return g;
}

/// Packs `g` the way HCC does: as its entry list and total.
void add_glcm(MatrixPacketWriter& writer, const Vec4& origin, const Glcm& g) {
  const haralick::SparseGlcm sparse = haralick::SparseGlcm::from_dense(g);
  writer.add(origin, sparse.total(), sparse.entries());
}

TEST(FeatureSample, PacksOriginAndValue) {
  const FeatureSample s = FeatureSample::make({1, 2, 3, 4}, 7.5f);
  EXPECT_EQ(s.origin(), Vec4(1, 2, 3, 4));
  EXPECT_FLOAT_EQ(s.value, 7.5f);
}

class MatrixPacketRoundTrip : public ::testing::TestWithParam<Representation> {};

TEST_P(MatrixPacketRoundTrip, PreservesMatricesAndOrigins) {
  const Representation repr = GetParam();
  MatrixPacketWriter writer(repr, 16);
  std::vector<Glcm> matrices;
  std::vector<Vec4> origins;
  for (unsigned seed = 1; seed <= 5; ++seed) {
    matrices.push_back(sample_glcm(16, seed));
    origins.push_back({seed, seed + 1, seed + 2, seed + 3});
    add_glcm(writer, origins.back(), matrices.back());
  }
  EXPECT_EQ(writer.count(), 5u);
  const fs::BufferPtr buffer = writer.take(/*chunk_id=*/9, /*seq=*/2);
  EXPECT_TRUE(writer.empty());
  EXPECT_EQ(buffer->header.kind, fs::BufferKind::MatrixPacket);
  EXPECT_EQ(buffer->header.chunk_id, 9);

  MatrixPacketReader reader(*buffer, 16);
  EXPECT_EQ(reader.representation(), repr);
  EXPECT_EQ(reader.count(), 5u);
  std::size_t i = 0;
  while (reader.next()) {
    ASSERT_LT(i, matrices.size());
    EXPECT_EQ(reader.origin(), origins[i]);
    const Glcm restored = to_dense(reader.matrix());
    EXPECT_EQ(restored.total(), matrices[i].total());
    for (int a = 0; a < 16; ++a)
      for (int b = 0; b < 16; ++b) EXPECT_EQ(restored.count(a, b), matrices[i].count(a, b));
    ++i;
  }
  EXPECT_EQ(i, 5u);
}

INSTANTIATE_TEST_SUITE_P(Reprs, MatrixPacketRoundTrip,
                         ::testing::Values(Representation::Full, Representation::Sparse));

TEST(MatrixPacket, SparsePayloadMuchSmallerOnSparseData) {
  // Smooth data: sparse wire format should be a small fraction of full.
  Volume4<Level> v({7, 7, 3, 3});
  for (std::int64_t t = 0; t < 3; ++t)
    for (std::int64_t z = 0; z < 3; ++z)
      for (std::int64_t y = 0; y < 7; ++y)
        for (std::int64_t x = 0; x < 7; ++x)
          v.at(x, y, z, t) = static_cast<Level>((x + y) / 2);
  Glcm g(32);
  g.accumulate(v.view(), Region4::whole(v.dims()),
               haralick::unique_directions(haralick::ActiveDims::all4()));

  MatrixPacketWriter full(Representation::Full, 32);
  MatrixPacketWriter sparse(Representation::Sparse, 32);
  for (int i = 0; i < 10; ++i) {
    add_glcm(full, {0, 0, 0, 0}, g);
    add_glcm(sparse, {0, 0, 0, 0}, g);
  }
  const auto fb = full.take(0, 0);
  const auto sb = sparse.take(0, 0);
  EXPECT_LT(sb->payload.size() * 5, fb->payload.size());
}

TEST(MatrixPacket, WriterRejectsNgMismatch) {
  // An entry whose level is at or past the writer's Ng (from a 32-level
  // matrix) is refused in either wire format, and nothing is written.
  const std::vector<haralick::SparseEntry> past_ng{{0, 1, 1}, {3, 16, 1}};
  for (const Representation repr : {Representation::Full, Representation::Sparse}) {
    MatrixPacketWriter writer(repr, 16);
    EXPECT_THROW(writer.add({0, 0, 0, 0}, 4, past_ng), std::invalid_argument);
    EXPECT_TRUE(writer.empty());
  }
}

TEST(MatrixPacket, FullTableIsTheDenseGlcm) {
  // The Full writer scatters the entry list into exactly the dense counts:
  // off-diagonal cells mirrored, diagonal cells as carried.
  const Glcm g = sample_glcm(16, 7);
  MatrixPacketWriter writer(Representation::Full, 16);
  add_glcm(writer, {1, 2, 3, 4}, g);
  const auto buf = writer.take(0, 0);
  const std::size_t table = sizeof(std::uint32_t) + 4 * sizeof(std::int64_t) +
                            sizeof(std::uint32_t) + sizeof(std::uint64_t);
  const std::size_t bytes = 16 * 16 * sizeof(std::uint32_t);
  ASSERT_EQ(buf->payload.size(), table + bytes);
  EXPECT_EQ(std::memcmp(buf->payload.data() + table, g.counts(), bytes), 0);
}

TEST(MatrixPacket, ReaderRejectsWrongKind) {
  fs::BufferHeader h;
  h.kind = fs::BufferKind::Control;
  const auto buf = fs::make_buffer(h);
  EXPECT_THROW((MatrixPacketReader{*buf, 16}), std::invalid_argument);
}

TEST(MatrixPacket, ReaderRejectsTruncatedPayload) {
  MatrixPacketWriter writer(Representation::Full, 16);
  add_glcm(writer, {0, 0, 0, 0}, sample_glcm(16, 3));
  auto buf = writer.take(0, 0);
  buf->payload.resize(buf->payload.size() / 2);
  MatrixPacketReader reader(*buf, 16);
  EXPECT_THROW(reader.next(), std::runtime_error);
}

TEST(MatrixPacket, EmptyPacketIterates) {
  MatrixPacketWriter writer(Representation::Sparse, 16);
  const auto buf = writer.take(0, 0);
  MatrixPacketReader reader(*buf, 16);
  EXPECT_EQ(reader.count(), 0u);
  EXPECT_FALSE(reader.next());
}

// ---- malformed packets: every wire field the feature sweep indexes by is
// validated, and each violation throws one typed error ----

template <typename T>
void put(std::vector<std::byte>& out, T value) {
  const std::size_t base = out.size();
  out.resize(base + sizeof(T));
  std::memcpy(out.data() + base, &value, sizeof(T));
}

/// A one-matrix MatrixPacket whose matrix bytes are `body`.
fs::BufferPtr packet(Representation repr, const std::vector<std::byte>& body) {
  fs::BufferHeader h;
  h.kind = fs::BufferKind::MatrixPacket;
  h.aux = repr == Representation::Sparse ? 1 : 0;
  std::vector<std::byte> payload;
  put(payload, std::uint32_t{1});
  for (int k = 0; k < 4; ++k) put(payload, std::int64_t{0});  // origin
  payload.insert(payload.end(), body.begin(), body.end());
  return fs::make_buffer(h, std::move(payload));
}

std::vector<std::byte> sparse_body(std::uint32_t ng, std::uint64_t total,
                                   const std::vector<haralick::SparseEntry>& entries) {
  std::vector<std::byte> out;
  put(out, ng);
  put(out, static_cast<std::uint32_t>(entries.size()));
  put(out, total);
  for (const auto& e : entries) put(out, e);
  return out;
}

std::vector<std::byte> dense_body(std::uint32_t ng, std::uint64_t total,
                                  const std::vector<std::uint32_t>& counts) {
  std::vector<std::byte> out;
  put(out, ng);
  put(out, total);
  for (const std::uint32_t c : counts) put(out, c);
  return out;
}

// Ng=4: (0,0) holds 2, (0,1)/(1,0) hold 3, (2,3)/(3,2) hold 1 -> total 10.
const std::vector<haralick::SparseEntry> kEntries{{0, 0, 2}, {0, 1, 3}, {2, 3, 1}};
const std::vector<std::uint32_t> kDense{2, 3, 0, 0,  //
                                        3, 0, 0, 0,  //
                                        0, 0, 0, 1,  //
                                        0, 0, 1, 0};

void expect_malformed(const fs::BufferPtr& buf, int receiver_levels = 4) {
  MatrixPacketReader reader(*buf, receiver_levels);
  EXPECT_THROW(reader.next(), haralick::MalformedMatrixError);
}

// ---- the reader reuses one entry vector across the matrices of a packet ----

// Ng=4 matrices of 3, 1 and 5 entries: nnz falls, then rises.
const std::vector<std::vector<haralick::SparseEntry>> kSeries{
    kEntries, {{1, 1, 4}}, {{0, 0, 2}, {0, 1, 3}, {0, 3, 1}, {2, 3, 1}, {3, 3, 2}}};
const std::vector<std::int64_t> kSeriesTotals{10, 4, 14};

fs::BufferPtr series_packet(Representation repr) {
  MatrixPacketWriter writer(repr, 4);
  for (std::size_t m = 0; m < kSeries.size(); ++m) {
    writer.add({static_cast<std::int64_t>(m), 0, 0, 0}, kSeriesTotals[m], kSeries[m]);
  }
  return writer.take(0, 0);
}

TEST(MatrixPacket, ReaderDecodesEachMatrixWhenNnzFallsThenRises) {
  for (const Representation repr : {Representation::Full, Representation::Sparse}) {
    const auto buf = series_packet(repr);
    MatrixPacketReader reader(*buf, 4);
    for (std::size_t m = 0; m < kSeries.size(); ++m) {
      ASSERT_TRUE(reader.next());
      EXPECT_EQ(reader.origin(), Vec4(static_cast<std::int64_t>(m), 0, 0, 0));
      EXPECT_EQ(reader.matrix().entries(), kSeries[m]) << "matrix " << m;
      EXPECT_EQ(reader.matrix().total(), kSeriesTotals[m]);
    }
    EXPECT_FALSE(reader.next());
  }
}

// ---- a packet that names a box is a raster run of it ----

/// A packet of the Ng=4 series at raster(box)[first, first + 3), with one
/// origin replaced by `stray` when `bad` is in range.
fs::BufferPtr run_packet(Representation repr, const Region4& box, std::int64_t first,
                         std::size_t bad = kSeries.size(), const Vec4& stray = {}) {
  MatrixPacketWriter writer(repr, 4);
  for (std::size_t m = 0; m < kSeries.size(); ++m) {
    const Vec4 at = m == bad ? stray
                             : box.origin + delinearize(first + static_cast<std::int64_t>(m),
                                                        box.size);
    writer.add(at, kSeriesTotals[m], kSeries[m]);
  }
  return writer.take(0, 0, box);
}

TEST(MatrixPacket, ReaderFollowsTheRunOfTheBox) {
  const Region4 box{{4, 2, 1, 0}, {2, 2, 1, 2}};
  for (const Representation repr : {Representation::Full, Representation::Sparse}) {
    // Starts mid-row and wraps into the next y row and the next t plane.
    const auto buf = run_packet(repr, box, 3);
    EXPECT_EQ(buf->header.region, box);
    MatrixPacketReader reader(*buf, 4);
    EXPECT_EQ(reader.box(), box);
    EXPECT_EQ(reader.first(), 3);
    std::int64_t k = 0;
    while (reader.next()) {
      EXPECT_EQ(reader.origin(), box.origin + delinearize(3 + k, box.size));
      ++k;
    }
    EXPECT_EQ(k, 3);
  }
}

TEST(MalformedPacket, OriginOffTheRunOfTheBox) {
  const Region4 box{{4, 2, 1, 0}, {2, 2, 1, 2}};
  for (const Representation repr : {Representation::Full, Representation::Sparse}) {
    // The second matrix skips a point of the run: the first still decodes.
    auto buf = run_packet(repr, box, 0, 1, box.origin + delinearize(2, box.size));
    MatrixPacketReader reader(*buf, 4);
    ASSERT_TRUE(reader.next());
    EXPECT_THROW(reader.next(), haralick::MalformedMatrixError);
    // A first origin outside the box, and a run that passes the box's end.
    EXPECT_THROW((MatrixPacketReader{*run_packet(repr, box, 0, 0, {0, 0, 0, 0}), 4}),
                 haralick::MalformedMatrixError);
    EXPECT_THROW((MatrixPacketReader{*run_packet(repr, box, 6), 4}),
                 haralick::MalformedMatrixError);
    // A box whose end does not fit in int64.
    buf = run_packet(repr, box, 0);
    buf->header.region.origin[3] = std::numeric_limits<std::int64_t>::max();
    EXPECT_THROW((MatrixPacketReader{*buf, 4}), haralick::MalformedMatrixError);
  }
}

TEST(MalformedPacket, SecondMatrixTruncatedOrAsymmetric) {
  constexpr std::size_t kCount = sizeof(std::uint32_t);
  constexpr std::size_t kOrigin = 4 * sizeof(std::int64_t);
  constexpr std::size_t kDenseHeader = sizeof(std::uint32_t) + sizeof(std::uint64_t);
  constexpr std::size_t kDenseRecord = kOrigin + kDenseHeader + 16 * sizeof(std::uint32_t);
  for (const Representation repr : {Representation::Full, Representation::Sparse}) {
    // Cut inside the second matrix's header: the first still decodes.
    auto buf = series_packet(repr);
    const std::size_t first =
        repr == Representation::Full
            ? kDenseRecord
            : kOrigin + haralick::SparseGlcm::kWireHeader +
                  kSeries[0].size() * sizeof(haralick::SparseEntry);
    buf->payload.resize(kCount + first + kOrigin + 8);
    MatrixPacketReader reader(*buf, 4);
    ASSERT_TRUE(reader.next());
    EXPECT_EQ(reader.matrix().entries(), kSeries[0]);
    EXPECT_THROW(reader.next(), haralick::MalformedMatrixError);
  }
  // An asymmetric second table: (1, 0) gets a count that (0, 1) lacks.
  auto buf = series_packet(Representation::Full);
  const std::size_t second_table = kCount + kDenseRecord + kOrigin + kDenseHeader;
  const std::uint32_t one = 1;
  std::memcpy(buf->payload.data() + second_table + 4 * sizeof(std::uint32_t), &one, sizeof one);
  MatrixPacketReader reader(*buf, 4);
  ASSERT_TRUE(reader.next());
  EXPECT_THROW(reader.next(), haralick::MalformedMatrixError);
}

TEST(MalformedPacket, WellFormedHandBuiltPacketsParse) {
  for (const auto& buf : {packet(Representation::Sparse, sparse_body(4, 10, kEntries)),
                          packet(Representation::Full, dense_body(4, 10, kDense))}) {
    MatrixPacketReader reader(*buf, 4);
    ASSERT_TRUE(reader.next());
    EXPECT_EQ(reader.matrix().entries(), kEntries);
    EXPECT_EQ(reader.matrix().total(), 10);
    EXPECT_FALSE(reader.next());
  }
}

TEST(MalformedPacket, SparseNgOutsideRange) {
  expect_malformed(packet(Representation::Sparse, sparse_body(1, 0, {})), 1);
  expect_malformed(packet(Representation::Sparse, sparse_body(257, 0, {})), 257);
}

TEST(MalformedPacket, SparseNgDiffersFromReceiver) {
  expect_malformed(packet(Representation::Sparse, sparse_body(4, 10, kEntries)), 8);
}

TEST(MalformedPacket, SparseEntryBelowDiagonal) {
  expect_malformed(packet(Representation::Sparse, sparse_body(4, 2, {{1, 0, 1}})));
}

TEST(MalformedPacket, SparseEntryPastLastLevel) {
  expect_malformed(packet(Representation::Sparse, sparse_body(4, 2, {{0, 4, 1}})));
}

TEST(MalformedPacket, SparseZeroCount) {
  expect_malformed(packet(Representation::Sparse, sparse_body(4, 10, {{0, 0, 2}, {0, 1, 3},
                                                                      {1, 1, 0}, {2, 3, 1}})));
}

TEST(MalformedPacket, SparseEntriesOutOfRowMajorOrder) {
  expect_malformed(
      packet(Representation::Sparse, sparse_body(4, 10, {{0, 1, 3}, {0, 0, 2}, {2, 3, 1}})));
  expect_malformed(  // a repeated cell
      packet(Representation::Sparse, sparse_body(4, 8, {{0, 1, 2}, {0, 1, 2}})));
}

TEST(MalformedPacket, SparseCountsDisagreeWithTotal) {
  expect_malformed(packet(Representation::Sparse, sparse_body(4, 9, kEntries)));
  expect_malformed(packet(Representation::Sparse, sparse_body(4, 0, kEntries)));
}

TEST(MalformedPacket, SparseEntryCountExceedsUpperTriangle) {
  // nnz claims 2^32 - 1 entries: rejected before any allocation or read.
  std::vector<std::byte> body;
  put(body, std::uint32_t{4});
  put(body, std::uint32_t{0xFFFFFFFFu});
  put(body, std::uint64_t{0});
  expect_malformed(packet(Representation::Sparse, body));
}

TEST(MalformedPacket, DenseNgOverflowsSizeMath) {
  // Ng = 2^31: Ng^2 * 4 wraps a 64-bit size to 0.
  std::vector<std::byte> body;
  put(body, std::uint32_t{1u << 31});
  put(body, std::uint64_t{0});
  expect_malformed(packet(Representation::Full, body));
  expect_malformed(packet(Representation::Full, dense_body(1, 0, {0})), 1);
}

TEST(MalformedPacket, DenseNgDiffersFromReceiver) {
  expect_malformed(packet(Representation::Full, dense_body(4, 10, kDense)), 16);
}

TEST(MalformedPacket, DenseTableNotSymmetric) {
  std::vector<std::uint32_t> counts = kDense;
  counts[4] = 2;  // (1,0) no longer mirrors (0,1)
  expect_malformed(packet(Representation::Full, dense_body(4, 9, counts)));
}

TEST(MalformedPacket, DenseCountsDisagreeWithTotal) {
  expect_malformed(packet(Representation::Full, dense_body(4, 11, kDense)));
}

TEST(MalformedPacket, OddDiagonalCount) {
  // A diagonal cell counts each of its pairs twice, so its count is even.
  // The counts still sum to the total: only the parity is wrong.
  expect_malformed(packet(Representation::Sparse, sparse_body(4, 9, {{0, 0, 1}, {0, 1, 3},
                                                                     {2, 3, 1}})));
  std::vector<std::uint32_t> counts = kDense;
  counts[0] = 1;  // (0,0)
  expect_malformed(packet(Representation::Full, dense_body(4, 9, counts)));
}

}  // namespace
}  // namespace h4d::filters
