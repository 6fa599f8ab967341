#include "filters/payloads.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

namespace h4d::filters {

namespace {

void append_bytes(std::vector<std::byte>& out, const void* src, std::size_t n) {
  const std::size_t base = out.size();
  out.resize(base + n);
  std::memcpy(out.data() + base, src, n);
}

void append_origin(std::vector<std::byte>& out, const Vec4& origin) {
  std::int64_t o[4] = {origin[0], origin[1], origin[2], origin[3]};
  append_bytes(out, o, sizeof(o));
}

Vec4 read_origin(const std::byte*& cursor, std::size_t& remaining) {
  if (remaining < 4 * sizeof(std::int64_t)) {
    throw haralick::MalformedMatrixError("MatrixPacket: truncated origin");
  }
  std::int64_t o[4];
  std::memcpy(o, cursor, sizeof(o));
  cursor += sizeof(o);
  remaining -= sizeof(o);
  return {o[0], o[1], o[2], o[3]};
}

}  // namespace

void MatrixPacketWriter::add(const Vec4& origin, const haralick::Glcm& glcm,
                             haralick::WorkCounters* wc) {
  if (glcm.num_levels() != ng_) {
    throw std::invalid_argument("MatrixPacketWriter: Ng mismatch");
  }
  append_origin(bytes_, origin);
  if (repr_ == haralick::Representation::Sparse) {
    const haralick::SparseGlcm sparse = haralick::SparseGlcm::from_dense(glcm);
    if (wc != nullptr) {
      // Compression cost: scan the dense matrix, emit the non-zeros.
      wc->sparse_compress_cells += static_cast<std::int64_t>(ng_) * ng_;
      wc->sparse_entries_emitted += static_cast<std::int64_t>(sparse.nnz());
    }
    sparse.serialize(bytes_);
  } else {
    const auto ng32 = static_cast<std::uint32_t>(ng_);
    const auto tot64 = static_cast<std::uint64_t>(glcm.total());
    append_bytes(bytes_, &ng32, sizeof(ng32));
    append_bytes(bytes_, &tot64, sizeof(tot64));
    append_bytes(bytes_, glcm.counts(),
                 static_cast<std::size_t>(ng_) * static_cast<std::size_t>(ng_) *
                     sizeof(std::uint32_t));
  }
  ++count_;
}

fs::BufferPtr MatrixPacketWriter::take(std::int64_t chunk_id, std::int64_t seq) {
  fs::BufferHeader h;
  h.kind = fs::BufferKind::MatrixPacket;
  h.chunk_id = chunk_id;
  h.seq = seq;
  h.aux = repr_ == haralick::Representation::Sparse ? 1 : 0;

  std::vector<std::byte> payload;
  payload.reserve(sizeof(std::uint32_t) + bytes_.size());
  append_bytes(payload, &count_, sizeof(count_));
  payload.insert(payload.end(), bytes_.begin(), bytes_.end());

  count_ = 0;
  bytes_.clear();
  return fs::make_buffer(h, std::move(payload));
}

MatrixPacketReader::MatrixPacketReader(const fs::DataBuffer& buffer, int num_levels)
    : repr_(buffer.header.aux == 1 ? haralick::Representation::Sparse
                                   : haralick::Representation::Full),
      ng_(num_levels) {
  if (buffer.header.kind != fs::BufferKind::MatrixPacket) {
    throw std::invalid_argument("MatrixPacketReader: not a MatrixPacket buffer");
  }
  cursor_ = buffer.payload.data();
  remaining_ = buffer.payload.size();
  if (remaining_ < sizeof(std::uint32_t)) {
    throw haralick::MalformedMatrixError("MatrixPacket: missing count");
  }
  std::memcpy(&count_, cursor_, sizeof(count_));
  cursor_ += sizeof(count_);
  remaining_ -= sizeof(count_);
}

bool MatrixPacketReader::next() {
  if (index_ >= count_) return false;
  ++index_;
  origin_ = read_origin(cursor_, remaining_);
  if (repr_ == haralick::Representation::Sparse) {
    std::size_t used = 0;
    matrix_ = haralick::SparseGlcm::deserialize(cursor_, remaining_, used);
    cursor_ += used;
    remaining_ -= used;
  } else {
    read_dense();
  }
  if (matrix_.num_levels() != ng_) {
    throw haralick::MalformedMatrixError("MatrixPacket: matrix Ng " +
                                         std::to_string(matrix_.num_levels()) +
                                         " differs from the receiver's " + std::to_string(ng_));
  }
  return true;
}

void MatrixPacketReader::read_dense() {
  std::uint32_t ng32 = 0;
  std::uint64_t tot64 = 0;
  if (remaining_ < sizeof(ng32) + sizeof(tot64)) {
    throw haralick::MalformedMatrixError("MatrixPacket: truncated dense header");
  }
  std::memcpy(&ng32, cursor_, sizeof(ng32));
  cursor_ += sizeof(ng32);
  remaining_ -= sizeof(ng32);
  std::memcpy(&tot64, cursor_, sizeof(tot64));
  cursor_ += sizeof(tot64);
  remaining_ -= sizeof(tot64);
  // Bounding Ng first keeps the size math below far from overflow.
  haralick::SparseGlcm::check_num_levels(ng32);
  const std::size_t ng = ng32;
  const std::size_t bytes = ng * ng * sizeof(std::uint32_t);
  if (remaining_ < bytes) {
    throw haralick::MalformedMatrixError("MatrixPacket: truncated dense counts");
  }
  table_.resize(ng * ng);
  std::memcpy(table_.data(), cursor_, bytes);
  cursor_ += bytes;
  remaining_ -= bytes;

  // The upper triangle in row-major order, exactly SparseGlcm::from_dense.
  std::vector<haralick::SparseEntry> entries;
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < ng; ++i) {
    for (std::size_t j = i; j < ng; ++j) {
      const std::uint32_t c = table_[i * ng + j];
      if (c != table_[j * ng + i]) {
        throw haralick::MalformedMatrixError("MatrixPacket: dense table is not symmetric");
      }
      if (c == 0) continue;
      entries.push_back({static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(j), c});
      sum += i == j ? std::uint64_t{c} : 2 * std::uint64_t{c};
    }
  }
  if (sum != tot64) {
    throw haralick::MalformedMatrixError("MatrixPacket: dense counts sum to " +
                                         std::to_string(sum) + ", total says " +
                                         std::to_string(tot64));
  }
  matrix_ = haralick::SparseGlcm(static_cast<int>(ng), static_cast<std::int64_t>(tot64),
                                 std::move(entries));
}

}  // namespace h4d::filters
