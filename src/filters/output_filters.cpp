#include "filters/output_filters.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>

#include "haralick/simd.hpp"
#include "io/durable_file.hpp"
#include "nd/chunking.hpp"

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

void UnstitchedOutput::process(int port, const fs::BufferPtr& buffer, fs::FilterContext& ctx) {
  if (port != kPortFeatures || buffer->header.kind != fs::BufferKind::FeatureValues) {
    throw std::runtime_error("USO: unexpected input buffer");
  }
  const auto samples = buffer->as<FeatureSample>();
  ctx.meter().disk_bytes_written += static_cast<std::int64_t>(buffer->payload.size());
  if (!dir_.empty()) {
    std::filesystem::create_directories(dir_);
    const Feature f = static_cast<Feature>(buffer->header.feature);
    const std::filesystem::path path =
        dir_ / (std::string(haralick::feature_slug(f)) + "_c" +
                std::to_string(ctx.copy_index()) + ".bin");
    // Durable append (O_APPEND + fsync): the samples are on disk before the
    // completion tracker can mark their chunk done, so a crash never leaves
    // a recorded-but-lost chunk for a resume to trust.
    counted_write(p_, [&] {
      io::append_durable(path, samples.data(), samples.size_bytes());
    });
  }
  // Checkpoint accounting happens *after* the samples are on disk: a crash
  // between write and note leaves the chunk unrecorded, so a resume replays
  // it — duplicates are idempotent under map assembly, losses are not.
  if (p_->completion) {
    for (const FeatureSample& s : samples) p_->completion->note_origin(s.origin());
  }
}

void HaralickImageConstructor::process(int port, const fs::BufferPtr& buffer,
                                       fs::FilterContext& ctx) {
  if (port != kPortFeatures || buffer->header.kind != fs::BufferKind::FeatureValues) {
    throw std::runtime_error("HIC: unexpected input buffer");
  }
  const int f = buffer->header.feature;
  const Region4 origins = roi_origin_region(p_->meta.dims, p_->engine.roi_dims);

  auto it = maps_.find(f);
  if (it == maps_.end()) {
    fs::BufferHeader h;
    h.kind = fs::BufferKind::FeatureMap;
    h.feature = f;
    h.region = origins;
    fs::BufferPtr map = fs::make_buffer(h);
    map->feature_map = Volume4<float>(origins.size);  // zeroed: 0.0f
    it = maps_.emplace(f, std::move(map)).first;
  }
  float* const map = it->second->feature_map.data();

  for (const FeatureSample& s : buffer->as<FeatureSample>()) {
    const Vec4 o = s.origin();
    if (!origins.contains(o)) {
      throw std::runtime_error("HIC: sample origin " + o.str() + " outside " + origins.str());
    }
    map[linear_index(o - origins.origin, origins.size)] = static_cast<float>(s.value);
  }
  ctx.meter().bytes_memcpy += static_cast<std::int64_t>(buffer->payload.size());
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
