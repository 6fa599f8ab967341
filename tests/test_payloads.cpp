#include "filters/payloads.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <random>

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
    writer.add(origins.back(), matrices.back());
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
    const Glcm restored = reader.matrix().to_dense();
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
    full.add({0, 0, 0, 0}, g);
    sparse.add({0, 0, 0, 0}, g);
  }
  const auto fb = full.take(0, 0);
  const auto sb = sparse.take(0, 0);
  EXPECT_LT(sb->payload.size() * 5, fb->payload.size());
}

TEST(MatrixPacket, WriterRejectsNgMismatch) {
  MatrixPacketWriter writer(Representation::Full, 16);
  EXPECT_THROW(writer.add({0, 0, 0, 0}, Glcm(32)), std::invalid_argument);
}

TEST(MatrixPacket, ReaderRejectsWrongKind) {
  fs::BufferHeader h;
  h.kind = fs::BufferKind::Control;
  const auto buf = fs::make_buffer(h);
  EXPECT_THROW((MatrixPacketReader{*buf, 16}), std::invalid_argument);
}

TEST(MatrixPacket, ReaderRejectsTruncatedPayload) {
  MatrixPacketWriter writer(Representation::Full, 16);
  writer.add({0, 0, 0, 0}, sample_glcm(16, 3));
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

}  // namespace
}  // namespace h4d::filters
