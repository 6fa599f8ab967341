// Output filter set (paper Sec. 4.3.3): UnstitchedOutput, the
// HaralickImageConstructor output stitch, and the ResultCollector sink that
// hands assembled maps to the caller. The paper's JPGImageWriter (JIW) is
// io::write_feature_map_images, run on the collected maps (a PGM series —
// JPEG was only a viewing format).
#pragma once

#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "filters/params.hpp"
#include "filters/payloads.hpp"
#include "fs/filter.hpp"

namespace h4d::filters {

/// UnstitchedOutput (USO): streams feature values straight to disk, one
/// file per (feature, copy) stream: <dir>/<slug>_c<copy>.bin of packed
/// FeatureSample records, each block expanded to one record per ROI. With an
/// empty dir the filter only accounts the writes (benchmark mode: the paper
/// measures pipeline time, not disk capacity).
class UnstitchedOutput final : public fs::Filter {
 public:
  UnstitchedOutput(ParamsPtr params, std::filesystem::path dir);

  std::string_view name() const override { return "USO"; }
  void process(int port, const fs::BufferPtr& buffer, fs::FilterContext& ctx) override;

 private:
  ParamsPtr p_;
  std::filesystem::path dir_;
  Region4 origins_;                     ///< the run's ROI origins
  std::vector<FeatureSample> records_;  ///< one block's records, reused
};

/// HaralickImageConstructor (HIC, the output stitch): copies each incoming
/// feature block into its feature's 4D map, one x-run at a time; each map
/// is held in the FeatureMap buffer it emits when all inputs have drained.
class HaralickImageConstructor final : public fs::Filter {
 public:
  explicit HaralickImageConstructor(ParamsPtr params);

  std::string_view name() const override { return "HIC"; }
  void process(int port, const fs::BufferPtr& buffer, fs::FilterContext& ctx) override;
  void flush(fs::FilterContext& ctx) override;

 private:
  ParamsPtr p_;
  Region4 origins_;                    ///< the run's ROI origins: each map's region
  std::map<int, fs::BufferPtr> maps_;  ///< FeatureMap buffers, by feature
};

/// Min and max of `values`, bit-identical to the serial `std::min(lo, v)` /
/// `std::max(hi, v)` loop from (+inf, -inf): NaNs are skipped, a zero bound
/// keeps the sign of the first zero, and an empty span gives (+inf, -inf).
std::pair<float, float> value_range(std::span<const float> values);

/// Thread-safe destination for assembled feature maps (library API sink).
struct CollectedResults {
  std::mutex mu;
  std::map<haralick::Feature, Volume4<float>> maps;
  std::map<haralick::Feature, std::pair<float, float>> ranges;
};

/// Sink filter storing FeatureMap buffers into a CollectedResults: it moves
/// each buffer's map into `maps` (no allocation, no copy) and records its
/// value_range.
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
