#include "filters/payloads.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

namespace h4d::filters {

namespace {

template <typename T>
std::byte* put(std::byte* p, const T& value) {
  std::memcpy(p, &value, sizeof(T));
  return p + sizeof(T);
}

constexpr std::size_t kOriginBytes = 4 * sizeof(std::int64_t);

std::byte* put_origin(std::byte* p, const Vec4& origin) {
  const std::int64_t o[4] = {origin[0], origin[1], origin[2], origin[3]};
  return put(p, o);
}

Vec4 read_origin(const std::byte*& cursor, std::size_t& remaining) {
  if (remaining < kOriginBytes) {
    throw haralick::MalformedMatrixError("MatrixPacket: truncated origin");
  }
  std::int64_t o[4];
  std::memcpy(o, cursor, sizeof(o));
  cursor += sizeof(o);
  remaining -= sizeof(o);
  return {o[0], o[1], o[2], o[3]};
}

}  // namespace

std::byte* MatrixPacketWriter::grow(std::size_t n) {
  if (bytes_.empty()) {
    // A new packet: room for the size of the last one, then its count slot.
    bytes_.reserve(std::max(last_size_, sizeof(count_)));
    bytes_.resize(sizeof(count_));
  }
  const std::size_t base = bytes_.size();
  bytes_.resize(base + n);
  return bytes_.data() + base;
}

void MatrixPacketWriter::add(const Vec4& origin, std::int64_t total,
                             std::span<const haralick::SparseEntry> entries,
                             haralick::WorkCounters* wc) {
  for (const haralick::SparseEntry& e : entries) {
    if (e.i > e.j || e.j >= ng_) {
      throw std::invalid_argument("MatrixPacketWriter: entry (" + std::to_string(e.i) + ", " +
                                  std::to_string(e.j) + ") is not an upper cell of Ng " +
                                  std::to_string(ng_));
    }
  }
  if (repr_ == haralick::Representation::Sparse) {
    put_origin(grow(kOriginBytes), origin);
    haralick::SparseGlcm::serialize(ng_, total, entries, bytes_);
    if (wc != nullptr) {
      // Modeled compression cost: scan the dense matrix, emit the non-zeros.
      wc->sparse_compress_cells += static_cast<std::int64_t>(ng_) * ng_;
      wc->sparse_entries_emitted += static_cast<std::int64_t>(entries.size());
    }
  } else {
    // Ng, total, then the symmetric table, zeroed by grow(). An entry lands
    // on (i, j) and (j, i); a diagonal entry already carries the dense
    // value, so it is stored as is.
    const auto ng = static_cast<std::size_t>(ng_);
    const auto ng32 = static_cast<std::uint32_t>(ng_);
    const auto tot64 = static_cast<std::uint64_t>(total);
    std::byte* p = grow(kOriginBytes + sizeof(ng32) + sizeof(tot64) +
                        ng * ng * sizeof(std::uint32_t));
    p = put_origin(p, origin);
    p = put(p, ng32);
    std::byte* const table = put(p, tot64);
    for (const haralick::SparseEntry& e : entries) {
      put(table + (e.i * ng + e.j) * sizeof(std::uint32_t), e.count);
      put(table + (e.j * ng + e.i) * sizeof(std::uint32_t), e.count);
    }
  }
  ++count_;
}

fs::BufferPtr MatrixPacketWriter::take(std::int64_t chunk_id, std::int64_t seq) {
  fs::BufferHeader h;
  h.kind = fs::BufferKind::MatrixPacket;
  h.chunk_id = chunk_id;
  h.seq = seq;
  h.aux = repr_ == haralick::Representation::Sparse ? 1 : 0;

  if (bytes_.empty()) bytes_.resize(sizeof(count_));
  put(bytes_.data(), count_);
  last_size_ = bytes_.size();
  count_ = 0;
  return fs::make_buffer(h, std::exchange(bytes_, {}));
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
  // The previous matrix's entry storage becomes this one's.
  std::vector<haralick::SparseEntry> entries = std::move(matrix_).release_entries();
  if (repr_ == haralick::Representation::Sparse) {
    std::size_t used = 0;
    matrix_ = haralick::SparseGlcm::deserialize(cursor_, remaining_, used, std::move(entries));
    cursor_ += used;
    remaining_ -= used;
  } else {
    read_dense(std::move(entries));
  }
  if (matrix_.num_levels() != ng_) {
    throw haralick::MalformedMatrixError("MatrixPacket: matrix Ng " +
                                         std::to_string(matrix_.num_levels()) +
                                         " differs from the receiver's " + std::to_string(ng_));
  }
  return true;
}

void MatrixPacketReader::read_dense(std::vector<haralick::SparseEntry> entries) {
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
  const std::byte* const table = cursor_;
  const auto cell = [table](std::size_t idx) {
    std::uint32_t c;
    std::memcpy(&c, table + idx * sizeof c, sizeof c);
    return c;
  };
  cursor_ += bytes;
  remaining_ -= bytes;

  // The upper triangle in row-major order, exactly SparseGlcm::from_dense,
  // gathered straight from the payload.
  entries.clear();
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < ng; ++i) {
    for (std::size_t j = i; j < ng; ++j) {
      const std::uint32_t c = cell(i * ng + j);
      if (c != cell(j * ng + i)) {
        throw haralick::MalformedMatrixError("MatrixPacket: dense table is not symmetric");
      }
      if (c == 0) continue;
      if (i == j && c % 2 != 0) {
        throw haralick::MalformedMatrixError("MatrixPacket: dense diagonal cell " +
                                             std::to_string(i) + " holds an odd count");
      }
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
