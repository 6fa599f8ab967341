// Payload layouts of the buffers exchanged by the pipeline filters.
//
// RawChunkPiece  : u8 quantized levels of header.region (a sub-rect of one slice)
// TextureChunk   : u8 quantized levels of header.region; header.region2 is the
//                  chunk's owned ROI-origin region; header.chunk_id set
// MatrixPacket   : u32 count, then `count` serialized co-occurrence matrices
//                  (full or sparse per header.aux = Representation)
// FeatureValues  : a feature block: int64 `first`, then `n` floats, the
//                  values of feature header.feature at the ROI origins
//                  raster(header.region)[first, first + n) (8 + 4n bytes)
// FeatureMap     : no byte payload; the buffer's feature_map holds the float
//                  values of the full origin region (header.region)
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "fs/buffer.hpp"
#include "haralick/glcm.hpp"
#include "haralick/glcm_sparse.hpp"
#include "haralick/roi_engine.hpp"

namespace h4d::filters {

/// Port ids used by the pipeline graph (one logical stream per port).
inline constexpr int kPortPieces = 0;    ///< RFR -> IIC
inline constexpr int kPortChunks = 0;    ///< IIC -> HMP/HCC
inline constexpr int kPortMatrices = 0;  ///< HCC -> HPC
inline constexpr int kPortFeatures = 0;  ///< HMP/HPC -> USO/HIC
inline constexpr int kPortMaps = 0;      ///< HIC -> Collector

/// One feature value with its ROI origin (the paper's "parameter values
/// along with corresponding positional information", Sec. 4.3.3): the
/// record of USO's `.bin` files. On the stream the position is implied by
/// the block's box and raster index instead (FeatureValues above).
struct FeatureSample {
  std::int32_t x = 0, y = 0, z = 0, t = 0;
  float value = 0.0f;

  Vec4 origin() const { return {x, y, z, t}; }
  static FeatureSample make(const Vec4& p, double v) {
    return {static_cast<std::int32_t>(p[0]), static_cast<std::int32_t>(p[1]),
            static_cast<std::int32_t>(p[2]), static_cast<std::int32_t>(p[3]),
            static_cast<float>(v)};
  }
};
static_assert(sizeof(FeatureSample) == 20);

/// A FeatureValues payload that breaks the block layout or lies outside the
/// receiving run: the box is not inside the run's ROI-origin region, the
/// run passes the box's end, the length is not 8 + 4n bytes, or the feature
/// is not one the run computes.
class MalformedFeatureBlockError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A FeatureValues buffer for the `n` values of feature `f` at
/// raster(box)[first, first + n), zeroed: the producer writes each value
/// into feature_block_values() and emits the buffer as is.
fs::BufferPtr make_feature_block(haralick::Feature f, const Region4& box, std::int64_t first,
                                 std::int64_t n, std::int64_t seq);

/// The values of a buffer make_feature_block built.
std::span<float> feature_block_values(fs::DataBuffer& buffer);

/// A validated FeatureValues payload: `values[i]` is `feature` at ROI origin
/// raster(box)[first + i].
struct FeatureBlockView {
  haralick::Feature feature{};
  Region4 box;
  std::int64_t first = 0;
  std::span<const float> values;
};

/// Reads a FeatureValues buffer of a run whose ROI origins are `origins`
/// and whose feature set is `features`. Throws MalformedFeatureBlockError
/// on any of the defects it names, or when the buffer is of another kind.
FeatureBlockView read_feature_block(const fs::DataBuffer& buffer, const Region4& origins,
                                    haralick::FeatureSet features);

/// Serializes a batch of co-occurrence matrices (with their ROI origins)
/// into a MatrixPacket payload. Full representation ships all Ng^2 counts;
/// sparse ships only the non-zero upper-triangular entries — the traffic
/// reduction behind Fig. 7(b). The packet is built in place: the payload
/// starts with its count slot, and take() hands the vector itself to the
/// buffer. HCC adds a chunk's matrices in raster order of its owned
/// origins, so a packet is a run of them, and take() names that box.
class MatrixPacketWriter {
 public:
  MatrixPacketWriter(haralick::Representation repr, int num_levels)
      : repr_(repr), ng_(num_levels) {}

  /// Append one matrix given as its entry list: the non-zero upper cells in
  /// SparseGlcm::from_dense order, the diagonal carrying the dense cell
  /// value, and the total (what KernelScratch::entries_of_rois hands out).
  /// Sparse writes the entries as SparseGlcm::serialize would; Full writes
  /// the symmetric Ng^2 table. Throws std::invalid_argument when an entry
  /// is not an upper cell below Ng. In sparse representation `wc`, when
  /// non-null, is credited with the modeled compression (Ng^2 cells
  /// scanned, entries emitted).
  void add(const Vec4& origin, std::int64_t total,
           std::span<const haralick::SparseEntry> entries,
           haralick::WorkCounters* wc = nullptr);

  std::uint32_t count() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Move the accumulated payload into a buffer and reset the writer. The
  /// next packet reserves the size of this one. `box` goes into
  /// header.region: the region whose raster order the added origins run
  /// through (HPC requires one), or empty for a packet of loose origins.
  fs::BufferPtr take(std::int64_t chunk_id, std::int64_t seq, const Region4& box = {});

 private:
  std::byte* grow(std::size_t n);  // n more payload bytes, zeroed

  haralick::Representation repr_;
  int ng_;
  std::uint32_t count_ = 0;
  std::vector<std::byte> bytes_;  // count slot, then the matrices
  std::size_t last_size_ = 0;     // payload size of the last packet taken
};

/// Iterates the matrices of a MatrixPacket payload. Either wire format is
/// read into the same SparseGlcm (a dense table in SparseGlcm::from_dense
/// order), so the feature sweep has one input. Everything read is
/// validated, straight from the payload; a malformed packet, or one whose
/// Ng differs from the receiver's `num_levels`, throws
/// haralick::MalformedMatrixError. Successive matrices reuse one entry
/// vector. When the header names a box, the origins must be a raster run of
/// it: the i-th matrix sits at box.origin + delinearize(first() + i), and
/// first() + count() must not pass the box's end.
class MatrixPacketReader {
 public:
  MatrixPacketReader(const fs::DataBuffer& buffer, int num_levels);

  haralick::Representation representation() const { return repr_; }
  std::uint32_t count() const { return count_; }
  bool next();  ///< advance; false when exhausted

  /// The box the origins run through (header.region); empty if none.
  const Region4& box() const { return box_; }
  /// Raster index in box() of the first matrix's origin; 0 without a box or
  /// a matrix.
  std::int64_t first() const { return first_; }

  const Vec4& origin() const { return origin_; }
  /// The current matrix; valid after next().
  const haralick::SparseGlcm& matrix() const { return matrix_; }

 private:
  void read_dense(std::vector<haralick::SparseEntry> entries);

  haralick::Representation repr_;
  int ng_;
  std::uint32_t count_ = 0;
  std::uint32_t index_ = 0;
  Region4 box_;
  std::int64_t first_ = 0;
  const std::byte* cursor_ = nullptr;
  std::size_t remaining_ = 0;
  Vec4 origin_;
  haralick::SparseGlcm matrix_;
};

}  // namespace h4d::filters
