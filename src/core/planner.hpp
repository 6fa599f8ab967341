// Split-node planning.
//
// The paper allocated HCC vs. HPC nodes by the measured processing-cost
// ratio of the two filters ("the HCC filter was about 4 to 5 times more
// expensive than the HPC filter... the number of nodes was partitioned so
// that a 4-to-1 ratio was maintained", Sec. 5.2). This module automates
// that: probe the workload, convert the measured operation counts into
// per-stage costs with a CostModel, and split a node budget accordingly.
#pragma once

#include "haralick/roi_engine.hpp"
#include "io/dataset.hpp"
#include "io/resilient_reader.hpp"
#include "sim/cost_model.hpp"

namespace h4d::core {

struct SplitPlan {
  double hcc_cost_per_roi = 0.0;  ///< modeled seconds on a speed-1 node
  double hpc_cost_per_roi = 0.0;
  double cost_ratio = 0.0;        ///< hcc / hpc
  int hcc_nodes = 0;
  int hpc_nodes = 0;
};

/// Measure the per-ROI cost split between co-occurrence construction (HCC)
/// and feature computation (HPC) by analyzing sample ROIs of `probe`
/// (a quantized volume at least as large as the ROI), then divide
/// `texture_nodes` proportionally (each side gets at least one node when
/// texture_nodes >= 2). `max_probe_rois` bounds the probe work.
SplitPlan plan_split(const Volume4<Level>& probe, const haralick::EngineConfig& engine,
                     const sim::CostModel& cost, int texture_nodes,
                     int max_probe_rois = 64);

/// Node split for a given cost ratio r = hcc/hpc: largest-remainder
/// apportionment with both sides >= 1 (for texture_nodes >= 2).
std::pair<int, int> apportion_split(double cost_ratio, int texture_nodes);

/// plan_split against a disk-resident dataset: reads a probe subvolume
/// (clamped to the dataset, at least one ROI) through the resilient read
/// path the run uses — retries, checksums and degradation follow
/// `resilience`, and `dead_nodes` are read from nothing — requantizes it
/// with the dataset's global intensity range, and delegates to plan_split.
SplitPlan plan_split_dataset(const io::DiskDataset& dataset,
                             const haralick::EngineConfig& engine,
                             const sim::CostModel& cost, int texture_nodes,
                             const io::ResilienceConfig& resilience = {},
                             const std::vector<int>& dead_nodes = {},
                             int max_probe_rois = 64);

}  // namespace h4d::core
