#include "filters/output_filters.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>

#include "haralick/simd.hpp"
#include "io/durable_file.hpp"
#include "nd/chunking.hpp"
#include "nd/raster.hpp"

namespace h4d::filters {

using haralick::Feature;

namespace {

/// Run one output write, mapping a typed storage failure (ENOSPC, short
/// write) into the run's fault accounting before it propagates — the
/// supervisor and metrics then show *why* the run died, not just that it did.
template <typename Fn>
void counted_write(const ParamsPtr& p, Fn&& fn) {
  try {
    fn();
  } catch (const io::WriteError&) {
    if (p->fault_sink) {
      io::FaultReport r;
      r.write_errors = 1;
      p->fault_sink->merge(r);
    }
    throw;
  }
}

}  // namespace

UnstitchedOutput::UnstitchedOutput(ParamsPtr params, std::filesystem::path dir)
    : p_(std::move(params)),
      dir_(std::move(dir)),
      origins_(roi_origin_region(p_->meta.dims, p_->engine.roi_dims)) {}

void UnstitchedOutput::process(int port, const fs::BufferPtr& buffer, fs::FilterContext& ctx) {
  if (port != kPortFeatures) throw std::runtime_error("USO: unexpected input port");
  const FeatureBlockView block = read_feature_block(*buffer, origins_, p_->engine.features);
  const auto n = static_cast<std::int64_t>(block.values.size());
  ctx.meter().disk_bytes_written += n * static_cast<std::int64_t>(sizeof(FeatureSample));
  if (!dir_.empty()) {
    std::filesystem::create_directories(dir_);
    const std::filesystem::path path =
        dir_ / (std::string(haralick::feature_slug(block.feature)) + "_c" +
                std::to_string(ctx.copy_index()) + ".bin");
    records_.clear();
    for (std::int64_t i = 0; i < n; ++i) {
      records_.push_back(FeatureSample::make(
          block.box.origin + delinearize(block.first + i, block.box.size),
          block.values[static_cast<std::size_t>(i)]));
    }
    // Durable append (O_APPEND + fsync): the records are on disk before the
    // completion tracker can mark their chunk done, so a crash never leaves
    // a recorded-but-lost chunk for a resume to trust.
    counted_write(p_, [&] {
      io::append_durable(path, records_.data(), records_.size() * sizeof(FeatureSample));
    });
  }
  // Checkpoint accounting happens *after* the records are on disk: a crash
  // between write and note leaves the chunk unrecorded, so a resume replays
  // it — duplicates are idempotent under map assembly, losses are not.
  if (p_->completion) p_->completion->note_run(block.box, block.first, n);
}

HaralickImageConstructor::HaralickImageConstructor(ParamsPtr params)
    : p_(std::move(params)), origins_(roi_origin_region(p_->meta.dims, p_->engine.roi_dims)) {}

void HaralickImageConstructor::process(int port, const fs::BufferPtr& buffer,
                                       fs::FilterContext& ctx) {
  if (port != kPortFeatures) throw std::runtime_error("HIC: unexpected input port");
  const FeatureBlockView block = read_feature_block(*buffer, origins_, p_->engine.features);
  const int f = static_cast<int>(block.feature);

  auto it = maps_.find(f);
  if (it == maps_.end()) {
    fs::BufferHeader h;
    h.kind = fs::BufferKind::FeatureMap;
    h.feature = f;
    h.region = origins_;
    fs::BufferPtr map = fs::make_buffer(h);
    map->feature_map = Volume4<float>(origins_.size);  // zeroed: 0.0f
    it = maps_.emplace(f, std::move(map)).first;
  }
  float* const map = it->second->feature_map.data();

  // The block's run is a few sub-boxes; each row of one is an x-run of
  // consecutive values, contiguous in the map too.
  const auto n = static_cast<std::int64_t>(block.values.size());
  for_each_run_box(block.box, block.first, n, [&](const Region4& sub, std::int64_t offset) {
    const float* src = block.values.data() + offset;
    const auto row_bytes = static_cast<std::size_t>(sub.size[0]) * sizeof(float);
    const Vec4 base = sub.origin - origins_.origin;
    for (std::int64_t t = 0; t < sub.size[3]; ++t) {
      for (std::int64_t z = 0; z < sub.size[2]; ++z) {
        for (std::int64_t y = 0; y < sub.size[1]; ++y) {
          const Vec4 row{base[0], base[1] + y, base[2] + z, base[3] + t};
          std::memcpy(map + linear_index(row, origins_.size), src, row_bytes);
          src += sub.size[0];
        }
      }
    }
  });
  // In the cost model's reference units: one 20-byte sample per value.
  ctx.meter().bytes_memcpy += n * static_cast<std::int64_t>(sizeof(FeatureSample));
}

void HaralickImageConstructor::flush(fs::FilterContext& ctx) {
  for (auto& [f, map] : maps_) {
    // Each map is stitched in place in the Volume4 its FeatureMap buffer
    // carries, and the Collector moves that Volume4 into the result: no
    // copy on the way. The meter still credits the copy into an output
    // buffer, in the cost model's reference units (DESIGN.md §6).
    ctx.meter().bytes_memcpy += static_cast<std::int64_t>(map->payload_bytes());
    ctx.emit(kPortMaps, std::move(map));
  }
  maps_.clear();
}

std::pair<float, float> value_range(std::span<const float> values) {
  // kLanes independent running min/max pairs, each the serial loop's
  // `std::min(lo, v)` / `std::max(hi, v)` over every kLanes-th value, so the
  // lane loop vectorizes. A NaN never wins a comparison, so it is skipped as
  // the serial loop skips it; any non-zero extreme has one bit pattern, so
  // the lane order does not matter for it.
  constexpr std::size_t kLanes = 16;
  float lo[kLanes];
  float hi[kLanes];
  std::fill(lo, lo + kLanes, std::numeric_limits<float>::infinity());
  std::fill(hi, hi + kLanes, -std::numeric_limits<float>::infinity());
  const float* v = values.data();
  const std::size_t n = values.size();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    H4D_PRAGMA_SIMD
    for (std::size_t k = 0; k < kLanes; ++k) {
      lo[k] = v[i + k] < lo[k] ? v[i + k] : lo[k];
      hi[k] = hi[k] < v[i + k] ? v[i + k] : hi[k];
    }
  }
  for (; i < n; ++i) {
    lo[0] = std::min(lo[0], v[i]);
    hi[0] = std::max(hi[0], v[i]);
  }
  float rlo = lo[0];
  float rhi = hi[0];
  for (std::size_t k = 1; k < kLanes; ++k) {
    rlo = std::min(rlo, lo[k]);
    rhi = std::max(rhi, hi[k]);
  }
  // A zero extreme is the serial loop's first zero: +0.0 and -0.0 compare
  // equal, so whichever sign comes first in storage order is kept.
  if (rlo == 0.0f || rhi == 0.0f) {
    const float first_zero = *std::find(values.begin(), values.end(), 0.0f);
    if (rlo == 0.0f) rlo = first_zero;
    if (rhi == 0.0f) rhi = first_zero;
  }
  return {rlo, rhi};
}

void ResultCollector::process(int port, const fs::BufferPtr& buffer, fs::FilterContext&) {
  if (port != kPortMaps || buffer->header.kind != fs::BufferKind::FeatureMap) {
    throw std::runtime_error("Collector: unexpected input buffer");
  }
  const auto f = static_cast<Feature>(buffer->header.feature);
  const std::pair<float, float> range = value_range(buffer->feature_map.storage());
  // The collected map is the run's product (the CLI writes images from it
  // right after the run): credit its whole region, so --checkpoint records
  // progress in Collect mode too. Noted before the map is moved out, so a
  // call retried after a failed manifest append still finds the map.
  if (p_->completion) p_->completion->note_region(buffer->header.region);
  std::lock_guard lk(out_->mu);
  out_->ranges.insert_or_assign(f, range);
  out_->maps.insert_or_assign(f, std::move(buffer->feature_map));
}

}  // namespace h4d::filters
