#include "core/planner.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "haralick/directions.hpp"
#include "io/phantom.hpp"
#include "nd/quantize.hpp"

namespace h4d::core {
namespace {

TEST(ApportionSplit, BasicCases) {
  EXPECT_EQ(apportion_split(4.0, 5), (std::pair{4, 1}));
  EXPECT_EQ(apportion_split(4.33, 16), (std::pair{13, 3}));  // paper's 13+3
  EXPECT_EQ(apportion_split(1.0, 8), (std::pair{4, 4}));
  EXPECT_EQ(apportion_split(4.0, 1), (std::pair{1, 0}));  // single node co-locates
}

TEST(ApportionSplit, PaperRatioKeepsTheFiguresSplit) {
  // The figure harnesses split n texture nodes with apportion_split(4.0, n);
  // it must give what their own (4n + 2) / 5 rule gave, 13 + 3 at n = 16.
  for (int n = 2; n <= 64; ++n) {
    const int hcc = std::min(std::max(1, (n * 4 + 2) / 5), n - 1);
    EXPECT_EQ(apportion_split(4.0, n), (std::pair{hcc, n - hcc})) << n;
  }
}

TEST(ApportionSplit, AlwaysAtLeastOneEach) {
  for (const double r : {0.01, 0.5, 1.0, 10.0, 1000.0}) {
    for (int n = 2; n <= 24; ++n) {
      const auto [hcc, hpc] = apportion_split(r, n);
      EXPECT_GE(hcc, 1) << r << " " << n;
      EXPECT_GE(hpc, 1) << r << " " << n;
      EXPECT_EQ(hcc + hpc, n);
    }
  }
}

TEST(ApportionSplit, MonotoneInRatio) {
  int prev = 1;
  for (const double r : {0.5, 1.0, 2.0, 4.0, 8.0, 16.0}) {
    const auto [hcc, hpc] = apportion_split(r, 16);
    EXPECT_GE(hcc, prev);
    prev = hcc;
  }
}

TEST(ApportionSplit, Rejections) {
  EXPECT_THROW(apportion_split(0.0, 4), std::invalid_argument);
  EXPECT_THROW(apportion_split(-1.0, 4), std::invalid_argument);
  EXPECT_THROW(apportion_split(4.0, 0), std::invalid_argument);
}

class PlannerFixture : public ::testing::Test {
 protected:
  Volume4<Level> probe() const {
    io::PhantomConfig cfg;
    cfg.dims = {24, 24, 8, 6};
    cfg.seed = 12;
    return quantize_volume(io::generate_phantom(cfg).volume, 32);
  }

  haralick::EngineConfig paper_engine() const {
    haralick::EngineConfig e;
    e.roi_dims = {5, 5, 3, 3};
    e.num_levels = 32;
    e.features = haralick::FeatureSet::paper_eval();
    e.directions = haralick::axis_directions(haralick::ActiveDims::all4());
    // The paper's HCC:HPC ratio (Sec. 5.2) is measured with full matrices.
    e.representation = haralick::Representation::Full;
    return e;
  }
};

TEST_F(PlannerFixture, PaperConfigurationGivesPaperRatio) {
  // The cost model is calibrated so HCC is ~4-5x HPC (paper Sec. 5.2);
  // the planner must recover that ratio and hence the 13+3 split.
  const SplitPlan plan = plan_split(probe(), paper_engine(), sim::CostModel{}, 16);
  EXPECT_GT(plan.cost_ratio, 3.0);
  EXPECT_LT(plan.cost_ratio, 6.5);
  EXPECT_GE(plan.hcc_nodes, 12);
  EXPECT_LE(plan.hcc_nodes, 14);
  EXPECT_EQ(plan.hcc_nodes + plan.hpc_nodes, 16);
}

TEST_F(PlannerFixture, MoreDirectionsRaiseHccShare) {
  haralick::EngineConfig few = paper_engine();
  haralick::EngineConfig many = paper_engine();
  many.directions = haralick::unique_directions(haralick::ActiveDims::all4());
  const SplitPlan a = plan_split(probe(), few, sim::CostModel{}, 16);
  const SplitPlan b = plan_split(probe(), many, sim::CostModel{}, 16);
  EXPECT_GT(b.cost_ratio, a.cost_ratio);
  EXPECT_GE(b.hcc_nodes, a.hcc_nodes);
}

TEST_F(PlannerFixture, SparseRepresentationLowersHpcCost) {
  haralick::EngineConfig full = paper_engine();
  haralick::EngineConfig sparse = paper_engine();
  sparse.representation = haralick::Representation::Sparse;
  const SplitPlan a = plan_split(probe(), full, sim::CostModel{}, 16);
  const SplitPlan b = plan_split(probe(), sparse, sim::CostModel{}, 16);
  EXPECT_LT(b.hpc_cost_per_roi, a.hpc_cost_per_roi);
  EXPECT_GT(b.cost_ratio, a.cost_ratio);
}

TEST_F(PlannerFixture, Rejections) {
  haralick::EngineConfig e = paper_engine();
  e.roi_dims = {100, 100, 100, 100};
  EXPECT_THROW(plan_split(probe(), e, sim::CostModel{}, 16), std::invalid_argument);
  EXPECT_THROW(plan_split(probe(), paper_engine(), sim::CostModel{}, 16, 0),
               std::invalid_argument);
}

TEST_F(PlannerFixture, DeterministicForSameInput) {
  const SplitPlan a = plan_split(probe(), paper_engine(), sim::CostModel{}, 12);
  const SplitPlan b = plan_split(probe(), paper_engine(), sim::CostModel{}, 12);
  EXPECT_DOUBLE_EQ(a.cost_ratio, b.cost_ratio);
  EXPECT_EQ(a.hcc_nodes, b.hcc_nodes);
}

}  // namespace
}  // namespace h4d::core
