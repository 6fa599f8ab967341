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

#include <array>
#include <vector>

#include "filters/params.hpp"
#include "filters/payloads.hpp"
#include "fs/filter.hpp"
#include "haralick/kernel.hpp"

namespace h4d::filters {

/// Batches FeatureSamples per feature and emits FeatureValues buffers when
/// a batch is full. Shared by HMP and HPC.
class FeatureEmitter {
 public:
  FeatureEmitter(ParamsPtr params, int port) : p_(std::move(params)), port_(port) {}

  void add(haralick::Feature f, const Vec4& origin, float value, fs::FilterContext& ctx);
  void flush(fs::FilterContext& ctx);

 private:
  void emit(haralick::Feature f, fs::FilterContext& ctx);

  ParamsPtr p_;
  int port_;
  std::array<std::vector<FeatureSample>, haralick::kNumFeatures> batches_;
  std::int64_t seq_ = 0;
};

/// HaralickMatrixProducer (HMP): full texture analysis in one filter.
class HaralickMatrixProducer final : public fs::Filter {
 public:
  explicit HaralickMatrixProducer(ParamsPtr params)
      : p_(params), out_(params, kPortFeatures) {}

  std::string_view name() const override { return "HMP"; }
  void process(int port, const fs::BufferPtr& buffer, fs::FilterContext& ctx) override;
  void flush(fs::FilterContext& ctx) override { out_.flush(ctx); }

 private:
  ParamsPtr p_;
  FeatureEmitter out_;
  // Kernel working state; each filter copy owns its own instance, so reuse
  // across chunks is race-free.
  haralick::KernelScratch scratch_{2};
};

/// HaralickCoMatrixCalculator (HCC): co-occurrence matrices only. Emits a
/// packet of matrices each time 1/packets_per_chunk of a chunk's ROIs has
/// been processed (paper Sec. 5.1).
class HaralickCoMatrixCalculator final : public fs::Filter {
 public:
  explicit HaralickCoMatrixCalculator(ParamsPtr params)
      : p_(params), writer_(params->engine.representation, params->engine.num_levels) {}

  std::string_view name() const override { return "HCC"; }
  void process(int port, const fs::BufferPtr& buffer, fs::FilterContext& ctx) override;
  void flush(fs::FilterContext& ctx) override;

 private:
  ParamsPtr p_;
  MatrixPacketWriter writer_;
  haralick::KernelScratch scratch_{2};  // per-copy, reused across ROIs
  std::int64_t seq_ = 0;
};

/// HaralickParameterCalculator (HPC): Haralick features from matrix packets.
class HaralickParameterCalculator final : public fs::Filter {
 public:
  explicit HaralickParameterCalculator(ParamsPtr params)
      : p_(params), out_(params, kPortFeatures) {}

  std::string_view name() const override { return "HPC"; }
  void process(int port, const fs::BufferPtr& buffer, fs::FilterContext& ctx) override;
  void flush(fs::FilterContext& ctx) override { out_.flush(ctx); }

 private:
  ParamsPtr p_;
  FeatureEmitter out_;
  haralick::KernelScratch scratch_{2};  // per-copy feature-sweep buffers
};

}  // namespace h4d::filters
