// Payload layouts of the buffers exchanged by the pipeline filters.
//
// RawChunkPiece  : u8 quantized levels of header.region (a sub-rect of one slice)
// TextureChunk   : u8 quantized levels of header.region; header.region2 is the
//                  chunk's owned ROI-origin region; header.chunk_id set
// MatrixPacket   : u32 count, then `count` serialized co-occurrence matrices
//                  (full or sparse per header.aux = Representation)
// FeatureValues  : array of FeatureSample; header.feature set
// FeatureMap     : float values of the full origin region (header.region)
#pragma once

#include <cstdint>
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
inline constexpr int kPortMaps = 0;      ///< HIC -> JIW

/// One feature value with its ROI origin (the paper's "parameter values
/// along with corresponding positional information", Sec. 4.3.3).
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

/// Serializes a batch of co-occurrence matrices (with their ROI origins)
/// into a MatrixPacket payload. Full representation ships all Ng^2 counts;
/// sparse ships only the non-zero upper-triangular entries — the traffic
/// reduction behind Fig. 7(b).
class MatrixPacketWriter {
 public:
  MatrixPacketWriter(haralick::Representation repr, int num_levels)
      : repr_(repr), ng_(num_levels) {}

  /// Append one matrix. In sparse representation `wc`, when non-null, is
  /// credited with the compression (Ng^2 cells scanned, entries emitted).
  void add(const Vec4& origin, const haralick::Glcm& glcm,
           haralick::WorkCounters* wc = nullptr);

  std::uint32_t count() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Move the accumulated payload into a buffer and reset the writer.
  fs::BufferPtr take(std::int64_t chunk_id, std::int64_t seq);

 private:
  haralick::Representation repr_;
  int ng_;
  std::uint32_t count_ = 0;
  std::vector<std::byte> bytes_;
};

/// Iterates the matrices of a MatrixPacket payload. Either wire format is
/// read into the same SparseGlcm (a dense table in SparseGlcm::from_dense
/// order), so the feature sweep has one input. Everything read is
/// validated; a malformed packet, or one whose Ng differs from the
/// receiver's `num_levels`, throws haralick::MalformedMatrixError.
class MatrixPacketReader {
 public:
  MatrixPacketReader(const fs::DataBuffer& buffer, int num_levels);

  haralick::Representation representation() const { return repr_; }
  std::uint32_t count() const { return count_; }
  bool next();  ///< advance; false when exhausted

  const Vec4& origin() const { return origin_; }
  /// The current matrix; valid after next().
  const haralick::SparseGlcm& matrix() const { return matrix_; }

 private:
  void read_dense();

  haralick::Representation repr_;
  int ng_;
  std::uint32_t count_ = 0;
  std::uint32_t index_ = 0;
  const std::byte* cursor_ = nullptr;
  std::size_t remaining_ = 0;
  Vec4 origin_;
  haralick::SparseGlcm matrix_;
  std::vector<std::uint32_t> table_;  // dense counts of the current matrix
};

}  // namespace h4d::filters
