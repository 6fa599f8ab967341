// Input filter set (paper Sec. 4.3.1): RAWFileReader and InputImageConstructor.
#pragma once

#include <map>
#include <optional>

#include "fs/filter.hpp"
#include "filters/params.hpp"
#include "filters/payloads.hpp"

namespace h4d::filters {

/// RAWFileReader (RFR).
///
/// One copy per storage node; copy k reads the slices local to node k,
/// requantizes them to Ng gray levels and emits each whole slice as one
/// RFR->IIC piece, once per IIC copy that owns an overlapping texture chunk
/// (header.aux carries the target IIC copy for explicit routing).
///
/// Reads go through io::ResilientReader: retry/backoff, per-slice checksum
/// verification and skip-and-fill degradation per PipelineParams::resilience,
/// with resilience counters credited to the copy's WorkMeter.
class RawFileReader final : public fs::Filter {
 public:
  explicit RawFileReader(ParamsPtr params) : p_(std::move(params)) {}

  std::string_view name() const override { return "RFR"; }
  void run_source(fs::FilterContext& ctx) override;

 private:
  ParamsPtr p_;
};

/// InputImageConstructor (IIC, the input stitch filter).
///
/// Reassembles full IIC->TEXTURE chunks from the slice pieces delivered by
/// the RFR filters and forwards complete chunks to the texture filters.
/// Multiple copies are *explicit*: copy k owns the chunks with
/// id % copies == k (paper Sec. 5.2).
class InputImageConstructor final : public fs::Filter {
 public:
  explicit InputImageConstructor(ParamsPtr params) : p_(std::move(params)) {}

  std::string_view name() const override { return "IIC"; }
  void process(int port, const fs::BufferPtr& buffer, fs::FilterContext& ctx) override;
  void flush(fs::FilterContext& ctx) override;

 private:
  struct Pending {
    Volume4<Level> data;
    std::int64_t filled = 0;  ///< voxels received so far
    explicit Pending(const Vec4& dims) : data(dims) {}
  };

  ParamsPtr p_;
  std::map<std::int64_t, Pending> pending_;
  std::int64_t emitted_ = 0;
};

}  // namespace h4d::filters
