#include "core/planner.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <stdexcept>

#include "filters/payloads.hpp"
#include "nd/quantize.hpp"
#include "nd/raster.hpp"

namespace h4d::core {

using haralick::Glcm;

std::pair<int, int> apportion_split(double cost_ratio, int texture_nodes) {
  if (!(cost_ratio > 0.0)) throw std::invalid_argument("apportion_split: ratio must be > 0");
  if (texture_nodes < 1) throw std::invalid_argument("apportion_split: need >= 1 node");
  if (texture_nodes == 1) return {1, 0};  // co-located on the single node
  const double hcc_share = cost_ratio / (cost_ratio + 1.0);
  int hcc = static_cast<int>(std::lround(hcc_share * texture_nodes));
  hcc = std::clamp(hcc, 1, texture_nodes - 1);
  return {hcc, texture_nodes - hcc};
}

SplitPlan plan_split(const Volume4<Level>& probe, const haralick::EngineConfig& engine,
                     const sim::CostModel& cost, int texture_nodes, int max_probe_rois) {
  const Region4 origins = roi_origin_region(probe.dims(), engine.roi_dims);
  if (origins.empty()) {
    throw std::invalid_argument("plan_split: probe volume smaller than the ROI");
  }
  if (max_probe_rois < 1) throw std::invalid_argument("plan_split: need >= 1 probe ROI");

  const auto dirs = engine.effective_directions();
  const std::int64_t total = origins.volume();
  const std::int64_t stride = std::max<std::int64_t>(1, total / max_probe_rois);

  // Probe through the calls the filters make: HCC builds each matrix and
  // packs it in the configured wire format (crediting the compression), and
  // HPC reads the packet back and runs the feature sweep.
  fs::WorkMeter hcc_meter, hpc_meter;
  haralick::KernelScratch scratch(engine.num_levels);
  filters::MatrixPacketWriter writer(engine.representation, engine.num_levels);
  std::int64_t probed = 0;
  std::int64_t index = 0;
  for (const Vec4& origin : raster(origins)) {
    if (index++ % stride != 0) continue;
    ++probed;
    const Glcm g = haralick::glcm_for_roi(probe.view(), Region4{origin, engine.roi_dims}, dirs,
                                          engine.num_levels, &hcc_meter.work, &scratch);
    writer.add(origin, g, &hcc_meter.work);
    const fs::BufferPtr packet = writer.take(/*chunk_id=*/0, /*seq=*/probed);
    filters::MatrixPacketReader reader(*packet, engine.num_levels);
    while (reader.next()) {
      scratch.features_of(reader.matrix(), engine.features, &hpc_meter.work,
                          engine.sweep_mode, reader.representation());
    }
  }

  SplitPlan plan;
  plan.hcc_cost_per_roi = cost.compute_seconds(hcc_meter) / static_cast<double>(probed);
  plan.hpc_cost_per_roi = cost.compute_seconds(hpc_meter) / static_cast<double>(probed);
  if (plan.hpc_cost_per_roi <= 0.0) {
    throw std::logic_error("plan_split: degenerate HPC cost");
  }
  plan.cost_ratio = plan.hcc_cost_per_roi / plan.hpc_cost_per_roi;
  std::tie(plan.hcc_nodes, plan.hpc_nodes) = apportion_split(plan.cost_ratio, texture_nodes);
  return plan;
}

SplitPlan plan_split_dataset(const io::DiskDataset& dataset,
                             const haralick::EngineConfig& engine,
                             const sim::CostModel& cost, int texture_nodes,
                             const io::ResilienceConfig& resilience,
                             io::FaultInjector* injector, io::FaultReport* report,
                             int max_probe_rois) {
  const io::DatasetMeta& meta = dataset.meta();
  // Probe extent: two ROIs per axis gives plan_split a few origins to sample
  // without pulling the whole dataset off disk.
  Vec4 probe_dims;
  for (int d = 0; d < kDims; ++d) {
    probe_dims[d] = std::min(meta.dims[d], 2 * engine.roi_dims[d]);
  }
  if (!Region4::whole(meta.dims).contains(Region4{{0, 0, 0, 0}, engine.roi_dims})) {
    throw std::invalid_argument("plan_split_dataset: dataset smaller than the ROI");
  }
  const Volume4<std::uint16_t> raw = dataset.read_region(
      Region4{{0, 0, 0, 0}, probe_dims}, resilience, injector, report);
  const Quantizer quant(meta.value_min, meta.value_max, engine.num_levels);
  Volume4<Level> probe(raw.dims());
  quantize_into<std::uint16_t>(raw.view(), quant, probe.view());
  return plan_split(probe, engine, cost, texture_nodes, max_probe_rois);
}

std::vector<SliceCoord> plan_prefetch_sequence(const std::vector<Chunk>& chunks) {
  return raster_slice_order(chunks);
}

}  // namespace h4d::core
