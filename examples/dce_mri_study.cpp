// End-to-end DCE-MRI study (the paper's motivating application, Sec. 1).
//
// Generates a synthetic breast DCE-MRI phantom with contrast-enhancing
// lesions, stores it as a disk-resident dataset distributed across storage
// nodes, runs the parallel split HCC+HPC pipeline with the real threaded
// executor, writes the texture feature maps as PGM image series, and
// checks whether texture separates lesion from background tissue.
//
//   $ ./examples/dce_mri_study [output_dir]
#include <cstdio>
#include <filesystem>

#include "core/analysis.hpp"
#include "fs/executor_threads.hpp"
#include "io/image_write.hpp"
#include "io/phantom.hpp"

using namespace h4d;
namespace fsys = std::filesystem;

int main(int argc, char** argv) {
  const fsys::path out_dir = argc > 1 ? argv[1] : "dce_mri_out";
  const fsys::path dataset_dir = out_dir / "dataset";

  // --- acquire: synthesize the study and store it disk-resident ---
  io::PhantomConfig phantom_cfg;
  phantom_cfg.dims = {48, 48, 12, 8};
  phantom_cfg.num_tumors = 2;
  phantom_cfg.seed = 7;
  const io::Phantom phantom = io::generate_phantom(phantom_cfg);

  constexpr int kStorageNodes = 4;
  io::DiskDataset::create(dataset_dir, phantom.volume, kStorageNodes);
  std::printf("dataset %s distributed over %d storage nodes under %s\n",
              phantom.volume.dims().str().c_str(), kStorageNodes,
              dataset_dir.string().c_str());

  // --- analyze: split HCC+HPC pipeline, threaded executor ---
  core::PipelineConfig cfg;
  cfg.dataset_root = dataset_dir;
  cfg.engine.roi_dims = {5, 5, 3, 3};
  cfg.engine.num_levels = 32;
  cfg.engine.features = {haralick::Feature::AngularSecondMoment,
                         haralick::Feature::Contrast, haralick::Feature::Entropy,
                         haralick::Feature::InverseDifferenceMoment};
  cfg.texture_chunk = {24, 24, 8, 6};
  cfg.variant = core::Variant::Split;
  cfg.rfr_copies = kStorageNodes;
  cfg.hcc_copies = 3;
  cfg.hpc_copies = 2;

  const core::AnalysisResult result = core::analyze_threaded(cfg);
  std::printf("pipeline finished in %.2fs wall (%d filter copies)\n",
              result.stats.total_seconds, static_cast<int>(result.stats.copies.size()));

  // --- report: write image series and a lesion-vs-background contrast check ---
  for (const auto& [feature, map] : result.maps) {
    const auto [lo, hi] = result.ranges.at(feature);
    const int n = io::write_feature_map_images(
        out_dir / "maps", std::string(haralick::feature_slug(feature)), map, lo, hi);
    std::printf("wrote %3d PGM slices for %s\n", n,
                std::string(haralick::feature_name(feature)).c_str());
  }

  std::printf("\nlesion vs background mean feature values:\n");
  std::printf("%-28s %12s %12s\n", "feature", "lesion", "background");
  for (const auto& [feature, map] : result.maps) {
    double lesion_sum = 0.0, bg_sum = 0.0;
    std::int64_t lesion_n = 0, bg_n = 0;
    const Vec4 d = map.dims();
    for (std::int64_t t = 0; t < d[3]; ++t) {
      for (std::int64_t z = 0; z < d[2]; ++z) {
        for (std::int64_t y = 0; y < d[1]; ++y) {
          for (std::int64_t x = 0; x < d[0]; ++x) {
            // The map covers ROI origins; the ROI center is offset by half
            // the window.
            const Vec4 center{x + cfg.engine.roi_dims[0] / 2, y + cfg.engine.roi_dims[1] / 2,
                              z + cfg.engine.roi_dims[2] / 2, t};
            bool in_lesion = false;
            for (const io::Tumor& tu : phantom.tumors) {
              const double ex = static_cast<double>(center[0] - tu.center[0]) /
                                static_cast<double>(tu.radii[0]);
              const double ey = static_cast<double>(center[1] - tu.center[1]) /
                                static_cast<double>(tu.radii[1]);
              const double ez = static_cast<double>(center[2] - tu.center[2]) /
                                static_cast<double>(tu.radii[2]);
              if (ex * ex + ey * ey + ez * ez < 1.0) in_lesion = true;
            }
            const float v = map.at(x, y, z, t);
            if (in_lesion) {
              lesion_sum += v;
              ++lesion_n;
            } else {
              bg_sum += v;
              ++bg_n;
            }
          }
        }
      }
    }
    std::printf("%-28s %12.5f %12.5f\n",
                std::string(haralick::feature_name(feature)).c_str(),
                lesion_n ? lesion_sum / static_cast<double>(lesion_n) : 0.0,
                bg_n ? bg_sum / static_cast<double>(bg_n) : 0.0);
  }
  std::printf("\noutputs under %s\n", out_dir.string().c_str());
  return 0;
}
