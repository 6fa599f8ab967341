// Output filter set (paper Sec. 4.3.3): UnstitchedOutput, the
// HaralickImageConstructor output stitch, and the JPGImageWriter equivalent
// (PGM series — JPEG was only a viewing format). A ResultCollector sink is
// provided for programmatic use of the pipeline (tests, library API).
#pragma once

#include <filesystem>
#include <map>
#include <memory>
#include <mutex>

#include "filters/params.hpp"
#include "filters/payloads.hpp"
#include "fs/filter.hpp"

namespace h4d::filters {

/// UnstitchedOutput (USO): streams feature samples straight to disk, one
/// file per (feature, copy) stream: <dir>/<slug>_c<copy>.bin of packed
/// FeatureSample records. With an empty dir the filter only accounts the
/// writes (benchmark mode: the paper measures pipeline time, not disk
/// capacity).
class UnstitchedOutput final : public fs::Filter {
 public:
  UnstitchedOutput(ParamsPtr params, std::filesystem::path dir)
      : p_(std::move(params)), dir_(std::move(dir)) {}

  std::string_view name() const override { return "USO"; }
  void process(int port, const fs::BufferPtr& buffer, fs::FilterContext& ctx) override;

 private:
  ParamsPtr p_;
  std::filesystem::path dir_;
};

/// HaralickImageConstructor (HIC, the output stitch): places incoming
/// feature samples into per-feature 4D maps, each held in the FeatureMap
/// buffer it emits when all inputs have drained. Tracks min/max for the
/// writer.
class HaralickImageConstructor final : public fs::Filter {
 public:
  explicit HaralickImageConstructor(ParamsPtr params) : p_(std::move(params)) {}

  std::string_view name() const override { return "HIC"; }
  void process(int port, const fs::BufferPtr& buffer, fs::FilterContext& ctx) override;
  void flush(fs::FilterContext& ctx) override;

 private:
  ParamsPtr p_;
  std::map<int, fs::BufferPtr> maps_;  ///< FeatureMap buffers, by feature
  std::map<int, std::pair<float, float>> ranges_;
};

/// JPGImageWriter equivalent (JIW): normalizes a complete feature map by its
/// min/max and writes it as a PGM slice series (paper: JPEG series).
class ImageSeriesWriter final : public fs::Filter {
 public:
  ImageSeriesWriter(ParamsPtr params, std::filesystem::path dir)
      : p_(std::move(params)), dir_(std::move(dir)) {}

  std::string_view name() const override { return "JIW"; }
  void process(int port, const fs::BufferPtr& buffer, fs::FilterContext& ctx) override;

 private:
  ParamsPtr p_;
  std::filesystem::path dir_;
};

/// Thread-safe destination for assembled feature maps (library API sink).
struct CollectedResults {
  std::mutex mu;
  std::map<haralick::Feature, Volume4<float>> maps;
  std::map<haralick::Feature, std::pair<float, float>> ranges;
};

/// Sink filter storing FeatureMap buffers into a CollectedResults.
class ResultCollector final : public fs::Filter {
 public:
  ResultCollector(ParamsPtr params, std::shared_ptr<CollectedResults> out)
      : p_(std::move(params)), out_(std::move(out)) {}

  std::string_view name() const override { return "Collector"; }
  void process(int port, const fs::BufferPtr& buffer, fs::FilterContext& ctx) override;

 private:
  ParamsPtr p_;
  std::shared_ptr<CollectedResults> out_;
};

}  // namespace h4d::filters
