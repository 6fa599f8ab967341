#include "filters/payloads.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
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

/// Volume of a non-empty box whose end and volume fit in int64, else -1:
/// a box read off the wire is indexed only after this check.
std::int64_t checked_volume(const Region4& box) {
  std::int64_t volume = 1;
  for (int d = 0; d < kDims; ++d) {
    if (box.size[d] <= 0 ||
        box.origin[d] > std::numeric_limits<std::int64_t>::max() - box.size[d] ||
        __builtin_mul_overflow(volume, box.size[d], &volume)) {
      return -1;
    }
  }
  return volume;
}

constexpr std::size_t kFirstBytes = fs::kFeatureBlockFirstBytes;

}  // namespace

fs::BufferPtr make_feature_block(haralick::Feature f, const Region4& box, std::int64_t first,
                                 std::int64_t n, std::int64_t seq) {
  fs::BufferHeader h;
  h.kind = fs::BufferKind::FeatureValues;
  h.feature = static_cast<std::int32_t>(f);
  h.seq = seq;
  h.region = box;
  fs::BufferPtr buffer = fs::make_buffer(h);
  buffer->payload.resize(kFirstBytes + static_cast<std::size_t>(n) * sizeof(float));
  put(buffer->payload.data(), first);
  return buffer;
}

std::span<float> feature_block_values(fs::DataBuffer& buffer) {
  return {reinterpret_cast<float*>(buffer.payload.data() + kFirstBytes),
          static_cast<std::size_t>(fs::feature_block_size(buffer))};
}

FeatureBlockView read_feature_block(const fs::DataBuffer& buffer, const Region4& origins,
                                    haralick::FeatureSet features) {
  if (buffer.header.kind != fs::BufferKind::FeatureValues) {
    throw MalformedFeatureBlockError("feature block: not a FeatureValues buffer");
  }
  const std::size_t bytes = buffer.payload.size();
  if (bytes < kFirstBytes || (bytes - kFirstBytes) % sizeof(float) != 0) {
    throw MalformedFeatureBlockError("feature block: a payload of " + std::to_string(bytes) +
                                     " bytes is not 8 + 4n");
  }
  const std::int32_t f = buffer.header.feature;
  if (f < 0 || f >= haralick::kNumFeatures ||
      !features.has(static_cast<haralick::Feature>(f))) {
    throw MalformedFeatureBlockError("feature block: feature " + std::to_string(f) +
                                     " is not in the run's feature set");
  }
  FeatureBlockView view;
  view.feature = static_cast<haralick::Feature>(f);
  view.box = buffer.header.region;
  if (checked_volume(view.box) < 0 || !origins.contains(view.box)) {
    throw MalformedFeatureBlockError("feature block: box " + view.box.str() +
                                     " is not inside the ROI origins " + origins.str());
  }
  std::memcpy(&view.first, buffer.payload.data(), sizeof(view.first));
  const auto n = static_cast<std::int64_t>((bytes - kFirstBytes) / sizeof(float));
  if (view.first < 0 || view.first > view.box.volume() - n) {
    throw MalformedFeatureBlockError("feature block: values [" + std::to_string(view.first) +
                                     ", +" + std::to_string(n) + ") pass the end of box " +
                                     view.box.str());
  }
  view.values = {reinterpret_cast<const float*>(buffer.payload.data() + kFirstBytes),
                 static_cast<std::size_t>(n)};
  return view;
}

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

fs::BufferPtr MatrixPacketWriter::take(std::int64_t chunk_id, std::int64_t seq,
                                       const Region4& box) {
  fs::BufferHeader h;
  h.kind = fs::BufferKind::MatrixPacket;
  h.chunk_id = chunk_id;
  h.seq = seq;
  h.region = box;
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

  box_ = buffer.header.region;
  if (box_.empty() || count_ == 0) return;
  // The run starts at the first matrix's origin.
  const std::int64_t volume = checked_volume(box_);
  if (volume < 0) {
    throw haralick::MalformedMatrixError("MatrixPacket: box " + box_.str() +
                                         " overflows int64");
  }
  std::size_t remaining = remaining_;
  const std::byte* cursor = cursor_;
  const Vec4 start = read_origin(cursor, remaining);
  if (!box_.contains(start)) {
    throw haralick::MalformedMatrixError("MatrixPacket: origin " + start.str() +
                                         " outside box " + box_.str());
  }
  first_ = linear_index(start - box_.origin, box_.size);
  if (count_ > volume - first_) {
    throw haralick::MalformedMatrixError("MatrixPacket: " + std::to_string(count_) +
                                         " matrices from raster index " +
                                         std::to_string(first_) + " pass the end of box " +
                                         box_.str());
  }
}

bool MatrixPacketReader::next() {
  if (index_ >= count_) return false;
  origin_ = read_origin(cursor_, remaining_);
  if (!box_.empty()) {
    const Vec4 want = box_.origin + delinearize(first_ + index_, box_.size);
    if (origin_ != want) {
      throw haralick::MalformedMatrixError("MatrixPacket: matrix " + std::to_string(index_) +
                                           " at " + origin_.str() + ", the run expects " +
                                           want.str());
    }
  }
  ++index_;
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
