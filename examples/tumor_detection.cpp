// The paper's clinical workflow end to end (Sec. 1): texture analysis of a
// DCE-MRI study feeds a neural network that flags suspicious tissue.
//
//   1. acquire two synthetic studies (training and evaluation patients);
//   2. run the parallel texture pipeline on each;
//   3. train an MLP on (texture features -> radiologist ground truth);
//   4. evaluate on the held-out study and write a probability map.
//
//   $ ./examples/tumor_detection [output_dir]
#include <cstdio>
#include <filesystem>
#include <numeric>

#include "core/analysis.hpp"
#include "io/image_write.hpp"
#include "io/phantom.hpp"
#include "ml/texture_dataset.hpp"
#include "nd/raster.hpp"

using namespace h4d;
namespace fsys = std::filesystem;
using haralick::Feature;

namespace {

core::AnalysisResult analyze_study(const io::Phantom& study, const fsys::path& workdir,
                                   const haralick::EngineConfig& engine) {
  io::DiskDataset::create(workdir, study.volume, 2);
  core::PipelineConfig cfg;
  cfg.dataset_root = workdir;
  cfg.engine = engine;
  cfg.texture_chunk = {24, 24, 8, 6};
  cfg.variant = core::Variant::Split;
  cfg.rfr_copies = 2;
  cfg.hcc_copies = 2;
  cfg.hpc_copies = 1;
  return core::analyze_threaded(cfg);
}

}  // namespace

int main(int argc, char** argv) {
  const fsys::path out_dir = argc > 1 ? argv[1] : "tumor_detection_out";

  io::PhantomConfig pcfg;
  pcfg.dims = {40, 40, 10, 8};
  pcfg.num_tumors = 2;
  pcfg.seed = 101;
  const io::Phantom train_study = io::generate_phantom(pcfg);
  pcfg.seed = 202;
  const io::Phantom test_study = io::generate_phantom(pcfg);

  haralick::EngineConfig engine;
  engine.roi_dims = {5, 5, 3, 3};
  engine.num_levels = 32;
  engine.features = {Feature::AngularSecondMoment, Feature::Contrast, Feature::Entropy,
                     Feature::InverseDifferenceMoment};

  std::printf("analyzing training study %s...\n", pcfg.dims.str().c_str());
  const auto train_result = analyze_study(train_study, out_dir / "train_ds", engine);
  std::printf("analyzing evaluation study...\n");
  const auto test_result = analyze_study(test_study, out_dir / "test_ds", engine);

  // Labeled samples: ground truth stands in for the radiologist annotations.
  const auto train_samples =
      ml::build_samples(train_result.maps, io::tumor_mask(pcfg.dims, train_study.tumors),
                        engine.roi_dims, /*negative_keep=*/0.5, /*seed=*/9);
  const auto test_samples =
      ml::build_samples(test_result.maps, io::tumor_mask(pcfg.dims, test_study.tumors),
                        engine.roi_dims);
  std::printf("training samples: %zu (%0.1f%% lesion)\n", train_samples.y.size(),
              100.0 * std::accumulate(train_samples.y.begin(), train_samples.y.end(), 0.0) /
                  static_cast<double>(train_samples.y.size()));

  const ml::Standardizer standardizer = ml::Standardizer::fit(train_samples.x);
  ml::Matrix xtrain = train_samples.x;
  ml::Matrix xtest = test_samples.x;
  standardizer.apply(xtrain);
  standardizer.apply(xtest);

  ml::Mlp net({xtrain.cols, 16, 1}, 4);
  ml::TrainOptions topt;
  topt.epochs = 80;
  topt.learning_rate = 0.1;
  const ml::TrainReport report = net.train(xtrain, train_samples.y, topt);
  std::printf("trained MLP %zu-16-1: loss %.4f -> %.4f\n", xtrain.cols,
              report.epoch_loss.front(), report.final_loss);
  net.save(out_dir / "texture_mlp.txt");

  std::vector<double> scores;
  scores.reserve(xtest.rows);
  for (std::size_t r = 0; r < xtest.rows; ++r) scores.push_back(net.predict(xtest.row(r)));
  std::printf("held-out study: AUC %.3f, accuracy %.3f over %zu ROIs\n",
              ml::roc_auc(scores, test_samples.y), ml::accuracy(scores, test_samples.y),
              scores.size());

  // Probability map as an image series (the computer-aided-diagnosis view).
  Volume4<float> prob(test_result.origins.size, 0.0f);
  for (std::size_t r = 0; r < test_samples.origins.size(); ++r) {
    prob.at(test_samples.origins[r]) = static_cast<float>(scores[r]);
  }
  const int n = io::write_feature_map_images(out_dir / "probability", "lesion_prob", prob,
                                             0.0f, 1.0f);
  std::printf("wrote %d probability slices under %s\n", n,
              (out_dir / "probability").string().c_str());
  return 0;
}
