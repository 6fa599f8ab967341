// Data buffers exchanged between filters on streams.
//
// DataCutter-style semantics (paper Sec. 4.1): streams deliver data from
// producer to consumer filters in user-defined chunks. Between co-located
// filters a buffer is handed over by pointer copy; between remote filters its
// payload is what travels on the wire (the executor charges serialization
// and transport for header + payload bytes).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "nd/region.hpp"
#include "nd/volume4.hpp"

namespace h4d::fs {

/// What a buffer's payload contains. The pipeline filters agree on payload
/// layout per kind; the runtime itself never interprets payloads.
enum class BufferKind : std::uint8_t {
  RawChunkPiece,  ///< RFR->IIC: quantized levels of one whole slice
  TextureChunk,   ///< IIC->HMP/HCC: assembled 4D chunk of quantized levels
  MatrixPacket,   ///< HCC->HPC: batch of co-occurrence matrices
  FeatureValues,  ///< texture->output: feature values for a run of ROI origins,
                  ///< an int64 `first`, then n floats (filters/payloads.hpp)
  FeatureMap,     ///< HIC->Collector: a complete assembled 4D feature map
  Control,        ///< small in-band metadata messages
};

/// Fixed-size descriptive header carried with every buffer.
struct BufferHeader {
  BufferKind kind = BufferKind::Control;
  std::int32_t feature = -1;   ///< Feature index for parameter streams
  std::int64_t chunk_id = -1;  ///< IIC-to-TEXTURE chunk this data belongs to
  std::int64_t seq = 0;        ///< producer-assigned sequence number
  std::int32_t aux = 0;        ///< kind-specific flag (e.g. representation)
  std::int32_t from_copy = 0;  ///< producer copy index (set by the executor)
  Region4 region;              ///< data/origin region described by the payload
  Region4 region2;             ///< secondary region (e.g. owned ROI origins)
};

/// A reference-counted buffer: header + opaque payload bytes.
class DataBuffer {
 public:
  DataBuffer() = default;
  explicit DataBuffer(BufferHeader h) : header(h) {}
  DataBuffer(BufferHeader h, std::vector<std::byte> bytes)
      : header(h), payload(std::move(bytes)) {}

  BufferHeader header;
  std::vector<std::byte> payload;
  /// A FeatureMap's values, held as the map the caller receives so the sink
  /// takes it over by move instead of copying a byte payload. Empty for
  /// every other kind.
  Volume4<float> feature_map;

  /// Data bytes the buffer carries: the payload plus a FeatureMap's values.
  std::size_t payload_bytes() const {
    return payload.size() + feature_map.storage().size() * sizeof(float);
  }
  /// Bytes that travel on a remote stream: header + payload_bytes().
  std::size_t wire_bytes() const { return sizeof(BufferHeader) + payload_bytes(); }

  /// Typed write access to the payload, resizing it to n elements of T.
  template <typename T>
  std::span<T> alloc_as(std::size_t n) {
    payload.resize(n * sizeof(T));
    return {reinterpret_cast<T*>(payload.data()), n};
  }

  /// Typed read access; payload size must be a multiple of sizeof(T).
  template <typename T>
  std::span<const T> as() const {
    return {reinterpret_cast<const T*>(payload.data()), payload.size() / sizeof(T)};
  }
  template <typename T>
  std::span<T> as() {
    return {reinterpret_cast<T*>(payload.data()), payload.size() / sizeof(T)};
  }
};

using BufferPtr = std::shared_ptr<DataBuffer>;

inline BufferPtr make_buffer(BufferHeader h) { return std::make_shared<DataBuffer>(h); }
inline BufferPtr make_buffer(BufferHeader h, std::vector<std::byte> bytes) {
  return std::make_shared<DataBuffer>(h, std::move(bytes));
}

/// Bytes before a FeatureValues block's values: its int64 `first`.
inline constexpr std::size_t kFeatureBlockFirstBytes = sizeof(std::int64_t);

/// Number of values a FeatureValues block carries (0 when it is too short
/// to hold `first`).
inline std::int64_t feature_block_size(const DataBuffer& b) {
  if (b.payload.size() < kFeatureBlockFirstBytes) return 0;
  return static_cast<std::int64_t>((b.payload.size() - kFeatureBlockFirstBytes) / sizeof(float));
}

/// The values [k, k + m) of FeatureValues block `b` as a block of their
/// own: the same header, `first` advanced by k.
inline BufferPtr feature_block_slice(const DataBuffer& b, std::int64_t k, std::int64_t m) {
  constexpr std::size_t kHead = kFeatureBlockFirstBytes;
  const std::size_t len = static_cast<std::size_t>(m) * sizeof(float);
  std::int64_t first = 0;
  std::memcpy(&first, b.payload.data(), kHead);
  first += k;
  std::vector<std::byte> bytes(kHead + len);
  std::memcpy(bytes.data(), &first, kHead);
  std::memcpy(bytes.data() + kHead,
              b.payload.data() + kHead + static_cast<std::size_t>(k) * sizeof(float), len);
  return make_buffer(b.header, std::move(bytes));
}

}  // namespace h4d::fs
