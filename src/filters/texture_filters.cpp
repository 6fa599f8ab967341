#include "filters/texture_filters.hpp"

#include <stdexcept>

#include "nd/raster.hpp"

namespace h4d::filters {

using haralick::Feature;
using haralick::FeatureVector;

namespace {

Vol4View<const Level> chunk_view(const fs::DataBuffer& buffer) {
  if (buffer.header.kind != fs::BufferKind::TextureChunk) {
    throw std::runtime_error("texture filter: expected a TextureChunk buffer");
  }
  return Vol4View<const Level>(reinterpret_cast<const Level*>(buffer.payload.data()),
                               buffer.header.region.size);
}

}  // namespace

void FeatureEmitter::add(Feature f, const Vec4& origin, float value, fs::FilterContext& ctx) {
  auto& batch = batches_[static_cast<std::size_t>(f)];
  batch.push_back(FeatureSample::make(origin, value));
  if (batch.size() >= static_cast<std::size_t>(p_->feature_buffer_samples)) {
    emit(f, ctx);
  }
}

void FeatureEmitter::flush(fs::FilterContext& ctx) {
  for (int f = 0; f < haralick::kNumFeatures; ++f) {
    if (!batches_[static_cast<std::size_t>(f)].empty()) {
      emit(static_cast<Feature>(f), ctx);
    }
  }
}

void FeatureEmitter::emit(Feature f, fs::FilterContext& ctx) {
  auto& batch = batches_[static_cast<std::size_t>(f)];
  fs::BufferHeader h;
  h.kind = fs::BufferKind::FeatureValues;
  h.feature = static_cast<std::int32_t>(f);
  h.seq = seq_++;
  auto buffer = fs::make_buffer(h);
  auto span = buffer->alloc_as<FeatureSample>(batch.size());
  std::copy(batch.begin(), batch.end(), span.begin());
  ctx.meter().bytes_memcpy += static_cast<std::int64_t>(batch.size() * sizeof(FeatureSample));
  batch.clear();
  ctx.emit(port_, std::move(buffer));
}

void HaralickMatrixProducer::process(int port, const fs::BufferPtr& buffer,
                                     fs::FilterContext& ctx) {
  if (port != kPortChunks) throw std::runtime_error("HMP: unexpected port");
  const auto view = chunk_view(*buffer);
  const Region4& region = buffer->header.region;
  const Region4& owned = buffer->header.region2;

  const auto blocks =
      haralick::analyze_chunk(view, region, owned, p_->engine, &ctx.meter().work, &scratch_);
  for (const auto& block : blocks) {
    std::int64_t k = 0;
    for (const Vec4& origin : raster(block.origins)) {
      out_.add(block.feature, origin, block.values[static_cast<std::size_t>(k)], ctx);
      ++k;
    }
  }
}

void HaralickCoMatrixCalculator::process(int port, const fs::BufferPtr& buffer,
                                         fs::FilterContext& ctx) {
  if (port != kPortChunks) throw std::runtime_error("HCC: unexpected port");
  const auto view = chunk_view(*buffer);
  const Region4& region = buffer->header.region;
  const Region4& owned = buffer->header.region2;

  const std::int64_t total = owned.empty() ? 0 : owned.volume();
  const std::int64_t per_packet =
      std::max<std::int64_t>(1, total / std::max(1, p_->packets_per_chunk));

  // One construction call for the chunk; the k-th matrix belongs to the
  // k-th owned origin in raster order and goes straight into the packet.
  haralick::WorkCounters& wc = ctx.meter().work;
  scratch_.configure(p_->engine.num_levels);
  std::int64_t since_flush = 0;
  scratch_.entries_of_rois(
      view, Region4{owned.origin - region.origin, owned.size}, p_->engine.roi_dims,
      p_->engine.effective_directions(), &wc,
      [&](std::int64_t k, std::span<const haralick::SparseEntry> entries,
          std::int64_t matrix_total) {
        writer_.add(owned.origin + delinearize(k, owned.size), matrix_total, entries, &wc);
        if (++since_flush >= per_packet) {
          ctx.emit(kPortMatrices, writer_.take(buffer->header.chunk_id, seq_++));
          since_flush = 0;
        }
      });
  if (!writer_.empty()) {
    ctx.emit(kPortMatrices, writer_.take(buffer->header.chunk_id, seq_++));
  }
}

void HaralickCoMatrixCalculator::flush(fs::FilterContext& ctx) {
  if (!writer_.empty()) {
    ctx.emit(kPortMatrices, writer_.take(-1, seq_++));
  }
}

void HaralickParameterCalculator::process(int port, const fs::BufferPtr& buffer,
                                          fs::FilterContext& ctx) {
  if (port != kPortMatrices) throw std::runtime_error("HPC: unexpected port");
  MatrixPacketReader reader(*buffer, p_->engine.num_levels);
  while (reader.next()) {
    const FeatureVector fv =
        scratch_.features_of(reader.matrix(), p_->engine.features, &ctx.meter().work,
                             p_->engine.sweep_mode, reader.representation());
    for (int f = 0; f < haralick::kNumFeatures; ++f) {
      const Feature feat = static_cast<Feature>(f);
      if (p_->engine.features.has(feat)) {
        out_.add(feat, reader.origin(), static_cast<float>(fv[feat]), ctx);
      }
    }
  }
}

}  // namespace h4d::filters
