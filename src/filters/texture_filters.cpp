#include "filters/texture_filters.hpp"

#include <stdexcept>

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

/// One feature block per selected feature for raster(box)[first, first + n),
/// filled in place: set() writes ROI k's values into the buffers that ship
/// them.
class FeatureBlocks {
 public:
  FeatureBlocks(haralick::FeatureSet set, const Region4& box, std::int64_t first,
                std::int64_t n, std::int64_t& seq)
      : n_(n) {
    for (int f = 0; f < haralick::kNumFeatures; ++f) {
      const auto feature = static_cast<Feature>(f);
      if (!set.has(feature)) continue;
      features_.push_back(feature);
      buffers_.push_back(make_feature_block(feature, box, first, n, seq++));
      values_.push_back(feature_block_values(*buffers_.back()).data());
    }
  }

  void set(std::int64_t k, const FeatureVector& fv) {
    for (std::size_t s = 0; s < features_.size(); ++s) {
      values_[s][k] = static_cast<float>(fv[features_[s]]);
    }
  }

  void emit(fs::FilterContext& ctx) {
    for (fs::BufferPtr& b : buffers_) {
      // The copy into an output buffer, in the cost model's reference units
      // (one 20-byte sample per value, DESIGN.md §6).
      ctx.meter().bytes_memcpy += n_ * static_cast<std::int64_t>(sizeof(FeatureSample));
      ctx.emit(kPortFeatures, std::move(b));
    }
  }

 private:
  std::int64_t n_;
  std::vector<Feature> features_;
  std::vector<fs::BufferPtr> buffers_;
  std::vector<float*> values_;
};

}  // namespace

void HaralickMatrixProducer::process(int port, const fs::BufferPtr& buffer,
                                     fs::FilterContext& ctx) {
  if (port != kPortChunks) throw std::runtime_error("HMP: unexpected port");
  const auto view = chunk_view(*buffer);
  const Region4& region = buffer->header.region;
  const Region4& owned = buffer->header.region2;
  if (owned.empty()) return;

  FeatureBlocks out(p_->engine.features, owned, 0, owned.volume(), seq_);
  // The kernel checks that every owned ROI fits the chunk.
  scratch_.configure(p_->engine.num_levels);
  scratch_.features_of_rois(
      view, Region4{owned.origin - region.origin, owned.size}, p_->engine.roi_dims, dirs_,
      p_->engine.features, &ctx.meter().work, p_->engine.sweep_mode,
      p_->engine.representation,
      [&](std::int64_t k, const FeatureVector& fv) { out.set(k, fv); });
  out.emit(ctx);
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
          ctx.emit(kPortMatrices, writer_.take(buffer->header.chunk_id, seq_++, owned));
          since_flush = 0;
        }
      });
  if (!writer_.empty()) {
    ctx.emit(kPortMatrices, writer_.take(buffer->header.chunk_id, seq_++, owned));
  }
}

void HaralickParameterCalculator::process(int port, const fs::BufferPtr& buffer,
                                          fs::FilterContext& ctx) {
  if (port != kPortMatrices) throw std::runtime_error("HPC: unexpected port");
  MatrixPacketReader reader(*buffer, p_->engine.num_levels);
  if (reader.count() == 0) return;
  if (reader.box().empty()) {
    throw haralick::MalformedMatrixError("HPC: matrix packet names no owned box");
  }
  FeatureBlocks out(p_->engine.features, reader.box(), reader.first(), reader.count(), seq_);
  for (std::int64_t k = 0; reader.next(); ++k) {
    out.set(k, scratch_.features_of(reader.matrix(), p_->engine.features, &ctx.meter().work,
                                    p_->engine.sweep_mode, reader.representation()));
  }
  out.emit(ctx);
}

}  // namespace h4d::filters
