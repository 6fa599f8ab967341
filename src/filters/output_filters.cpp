#include "filters/output_filters.hpp"

#include <limits>
#include <span>
#include <stdexcept>

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
    map->alloc_as<float>(static_cast<std::size_t>(origins.volume()));  // zeroed: 0.0f
    it = maps_.emplace(f, std::move(map)).first;
  }
  const std::span<float> map = it->second->as<float>();

  for (const FeatureSample& s : buffer->as<FeatureSample>()) {
    const Vec4 o = s.origin();
    if (!origins.contains(o)) {
      throw std::runtime_error("HIC: sample origin " + o.str() + " outside " + origins.str());
    }
    map[static_cast<std::size_t>(linear_index(o - origins.origin, origins.size))] =
        static_cast<float>(s.value);
  }
  ctx.meter().bytes_memcpy += static_cast<std::int64_t>(buffer->payload.size());
}

void HaralickImageConstructor::flush(fs::FilterContext& ctx) {
  for (auto& [f, map] : maps_) {
    // Each map is stitched in place in its FeatureMap buffer and handed on
    // without a copy. The meter still credits the copy into an output
    // buffer, in the cost model's reference units (DESIGN.md §6).
    ctx.meter().bytes_memcpy += static_cast<std::int64_t>(map->payload.size());
    ctx.emit(kPortMaps, std::move(map));
  }
  maps_.clear();
}

void ResultCollector::process(int port, const fs::BufferPtr& buffer, fs::FilterContext&) {
  if (port != kPortMaps || buffer->header.kind != fs::BufferKind::FeatureMap) {
    throw std::runtime_error("Collector: unexpected input buffer");
  }
  const auto f = static_cast<Feature>(buffer->header.feature);
  const auto values = buffer->as<float>();
  Volume4<float> map(buffer->header.region.size);
  std::copy(values.begin(), values.end(), map.storage().begin());

  float lo = std::numeric_limits<float>::infinity();
  float hi = -lo;
  for (float v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  {
    std::lock_guard lk(out_->mu);
    out_->maps.insert_or_assign(f, std::move(map));
    out_->ranges.insert_or_assign(f, std::pair<float, float>(lo, hi));
  }
  // The collected map is the run's product (the CLI writes images from it
  // right after the run): credit every origin, so --checkpoint records
  // progress in Collect mode too.
  if (p_->completion) {
    const Region4& origins = buffer->header.region;
    Vec4 o;
    for (o[3] = 0; o[3] < origins.size[3]; ++o[3])
      for (o[2] = 0; o[2] < origins.size[2]; ++o[2])
        for (o[1] = 0; o[1] < origins.size[1]; ++o[1])
          for (o[0] = 0; o[0] < origins.size[0]; ++o[0])
            p_->completion->note_origin(origins.origin + o);
  }
}

}  // namespace h4d::filters
