// Texture analysis filter set (paper Sec. 4.3.2).
//
// Two instantiations of the same work:
//   * HMP fuses co-occurrence construction and feature computation in one
//     filter (no intermediate communication);
//   * HCC + HPC split them into two pipelined filters; matrices travel on a
//     stream in full or sparse representation.
// Both compute features through the one sweep of haralick/kernel.hpp, so
// they produce byte-identical maps for either representation.
#pragma once

#include <vector>

#include "filters/params.hpp"
#include "filters/payloads.hpp"
#include "fs/filter.hpp"
#include "haralick/kernel.hpp"

namespace h4d::filters {

/// HaralickMatrixProducer (HMP): full texture analysis in one filter. Emits
/// one feature block per (chunk, selected feature): the chunk's owned
/// origins in raster order, written by the kernel's sink straight into the
/// buffer that ships them.
class HaralickMatrixProducer final : public fs::Filter {
 public:
  explicit HaralickMatrixProducer(ParamsPtr params)
      : p_(params), dirs_(params->engine.effective_directions()) {}

  std::string_view name() const override { return "HMP"; }
  void process(int port, const fs::BufferPtr& buffer, fs::FilterContext& ctx) override;

 private:
  ParamsPtr p_;
  std::vector<Vec4> dirs_;
  // Kernel working state; each filter copy owns its own instance, so reuse
  // across chunks is race-free.
  haralick::KernelScratch scratch_{2};
  std::int64_t seq_ = 0;
};

/// HaralickCoMatrixCalculator (HCC): co-occurrence matrices only. Emits a
/// packet of matrices each time 1/packets_per_chunk of a chunk's ROIs has
/// been processed (paper Sec. 5.1); each packet names the chunk's owned
/// box, whose raster order its origins run through.
class HaralickCoMatrixCalculator final : public fs::Filter {
 public:
  explicit HaralickCoMatrixCalculator(ParamsPtr params)
      : p_(params), writer_(params->engine.representation, params->engine.num_levels) {}

  std::string_view name() const override { return "HCC"; }
  void process(int port, const fs::BufferPtr& buffer, fs::FilterContext& ctx) override;

 private:
  ParamsPtr p_;
  MatrixPacketWriter writer_;
  haralick::KernelScratch scratch_{2};  // per-copy, reused across chunks
  std::int64_t seq_ = 0;
};

/// HaralickParameterCalculator (HPC): Haralick features from matrix packets.
/// Emits one feature block per (packet, selected feature): the packet's run
/// of its box's origins.
class HaralickParameterCalculator final : public fs::Filter {
 public:
  explicit HaralickParameterCalculator(ParamsPtr params) : p_(std::move(params)) {}

  std::string_view name() const override { return "HPC"; }
  void process(int port, const fs::BufferPtr& buffer, fs::FilterContext& ctx) override;

 private:
  ParamsPtr p_;
  haralick::KernelScratch scratch_{2};  // per-copy feature-sweep buffers
  std::int64_t seq_ = 0;
};

}  // namespace h4d::filters
