#include "bench_common.hpp"

#include "fs/metrics.hpp"
#include "haralick/directions.hpp"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <utility>
#include <vector>

namespace h4d::bench {

namespace fsys = std::filesystem;

namespace {

// --metrics state shared between setup_workload (parses the flag),
// run_config (records each simulated run) and Report::finish (writes the
// document). Bench binaries are single-threaded drivers, so plain globals.
std::string g_metrics_path;
std::vector<std::pair<std::string, sim::SimStats>> g_metrics_runs;

std::string config_label(const core::PipelineConfig& cfg) {
  std::ostringstream os;
  if (cfg.variant == core::Variant::HMP) {
    os << "hmp" << cfg.hmp_copies;
  } else {
    os << "split" << cfg.hcc_copies << "+" << cfg.hpc_copies;
  }
  os << (cfg.engine.representation == haralick::Representation::Sparse ? "-sparse"
                                                                       : "-full");
  return os.str();
}

}  // namespace

haralick::EngineConfig Workload::engine(haralick::Representation repr) const {
  haralick::EngineConfig e;
  e.roi_dims = roi;
  e.num_levels = 32;  // paper Sec. 5.1
  e.features = haralick::FeatureSet::paper_eval();
  e.representation = repr;
  // The paper's measured per-ROI cost implies a small direction set (its
  // 1-node runs are far too fast for all 40 unique 4D directions); the
  // benchmarks use the four axis directions. The library defaults to the
  // full direction set for analysis quality.
  e.directions = haralick::axis_directions(haralick::ActiveDims::all4());
  return e;
}

Workload setup_workload(int argc, char** argv) {
  bool full = std::getenv("H4D_FULL") != nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) full = true;
    if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      g_metrics_path = argv[i + 1];
    }
  }
  if (const char* env = std::getenv("H4D_METRICS"); env && g_metrics_path.empty()) {
    g_metrics_path = env;
  }

  Workload w;
  w.full_scale = full;
  if (full) {
    w.dims = {256, 256, 32, 32};  // paper Sec. 5.1
    w.roi = {7, 7, 3, 3};
    w.texture_chunk = {64, 64, 8, 8};
  } else {
    w.dims = {48, 48, 12, 10};
    w.roi = {5, 5, 3, 3};
    w.texture_chunk = {16, 16, 8, 6};
  }
  w.storage_nodes = 4;

  const std::string sig = "phantom_" + std::to_string(w.dims[0]) + "x" +
                          std::to_string(w.dims[1]) + "x" + std::to_string(w.dims[2]) + "x" +
                          std::to_string(w.dims[3]) + "_n" + std::to_string(w.storage_nodes);
  w.dataset_root = fsys::path("bench_data") / sig;

  bool reuse = false;
  if (fsys::exists(w.dataset_root / "dataset.meta")) {
    try {
      const io::DatasetMeta meta = io::DatasetMeta::load(w.dataset_root);
      reuse = meta.dims == w.dims && meta.storage_nodes == w.storage_nodes;
    } catch (...) {
      reuse = false;
    }
  }
  if (!reuse) {
    std::cerr << "[bench] generating phantom dataset " << w.dims.str() << " into "
              << w.dataset_root << "...\n";
    io::PhantomConfig pcfg;
    pcfg.dims = w.dims;
    pcfg.seed = 2004;
    pcfg.num_tumors = full ? 6 : 3;
    const io::Phantom phantom = io::generate_phantom(pcfg);
    fsys::remove_all(w.dataset_root);
    io::DiskDataset::create(w.dataset_root, phantom.volume, w.storage_nodes);
  }
  return w;
}

sim::SimOptions piii_options(int texture_nodes) {
  sim::SimOptions opt;
  opt.cluster = sim::make_piii_cluster(
      std::max(24, kFirstTextureNode + texture_nodes));
  return opt;
}

namespace {

core::PipelineConfig base_config(const Workload& w, haralick::Representation repr) {
  core::PipelineConfig cfg;
  cfg.dataset_root = w.dataset_root;
  cfg.engine = w.engine(repr);
  cfg.texture_chunk = w.texture_chunk;
  cfg.rfr_copies = w.storage_nodes;
  for (int i = 0; i < w.storage_nodes; ++i) cfg.rfr_nodes.push_back(i);
  cfg.iic_copies = 1;
  cfg.iic_nodes = {kIicNode};
  cfg.uso_copies = 1;
  cfg.uso_nodes = {kUsoNode};
  cfg.output = core::OutputMode::Unstitched;  // accounting-only USO
  cfg.feature_buffer_samples = 1024;
  return cfg;
}

}  // namespace

core::PipelineConfig hmp_config(const Workload& w, int texture_nodes,
                                haralick::Representation repr) {
  core::PipelineConfig cfg = base_config(w, repr);
  cfg.variant = core::Variant::HMP;
  cfg.hmp_copies = texture_nodes;
  for (int i = 0; i < texture_nodes; ++i) cfg.hmp_nodes.push_back(kFirstTextureNode + i);
  return cfg;
}

int split_hcc_nodes(int texture_nodes) {
  if (texture_nodes <= 1) return 1;
  // Maintain the paper's ~4:1 HCC:HPC processing-cost ratio (Sec. 5.2);
  // 16 nodes => 13 HCC + 3 HPC.
  const int hcc = std::max(1, (texture_nodes * 4 + 2) / 5);
  return std::min(hcc, texture_nodes - 1);
}

core::PipelineConfig split_config(const Workload& w, int texture_nodes,
                                  haralick::Representation repr, bool overlap) {
  core::PipelineConfig cfg = base_config(w, repr);
  cfg.variant = core::Variant::Split;
  if (overlap || texture_nodes == 1) {
    // One HCC and one HPC co-located on every texture node (Fig. 8
    // "Overlap"; also the paper's one-node configuration). Matrices go to
    // the co-located HPC — a pointer copy, the point of co-location.
    cfg.hcc_copies = texture_nodes;
    cfg.hpc_copies = texture_nodes;
    for (int i = 0; i < texture_nodes; ++i) {
      cfg.hcc_nodes.push_back(kFirstTextureNode + i);
      cfg.hpc_nodes.push_back(kFirstTextureNode + i);
    }
    cfg.matrix_policy = fs::Policy::Explicit;
    cfg.matrix_route = [](const fs::BufferHeader& h, int ncopies) {
      return static_cast<int>(h.from_copy % ncopies);
    };
  } else {
    const int hcc = split_hcc_nodes(texture_nodes);
    const int hpc = texture_nodes - hcc;
    cfg.hcc_copies = hcc;
    cfg.hpc_copies = hpc;
    for (int i = 0; i < hcc; ++i) cfg.hcc_nodes.push_back(kFirstTextureNode + i);
    for (int i = 0; i < hpc; ++i) cfg.hpc_nodes.push_back(kFirstTextureNode + hcc + i);
  }
  return cfg;
}

sim::SimStats run_config(const core::PipelineConfig& cfg, const sim::SimOptions& opt) {
  const fs::FilterGraph graph = core::build_pipeline(cfg);
  sim::SimStats stats = sim::run_simulated(graph, opt);
  if (!g_metrics_path.empty()) g_metrics_runs.emplace_back(config_label(cfg), stats);
  return stats;
}

Report::Report(std::string figure, std::string title, std::vector<std::string> columns)
    : figure_(std::move(figure)), csv_(columns), columns_(columns) {
  std::cout << "# " << figure_ << " — " << title << "\n#\n";
  std::cout << "# ";
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    std::cout << columns_[i] << (i + 1 < columns_.size() ? "  " : "\n");
  }
}

void Report::row(const std::vector<std::string>& cells) {
  csv_.add_row(cells);
  std::cout << "  ";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::cout << std::setw(static_cast<int>(std::max<std::size_t>(columns_[i].size(), 10)))
              << cells[i] << (i + 1 < cells.size() ? "  " : "\n");
  }
}

void Report::check(const std::string& what, bool ok) {
  ++checks_;
  if (!ok) ++failed_;
  std::cout << "  [" << (ok ? "PASS" : "FAIL") << "] " << what << "\n";
}

int Report::finish() {
  fsys::create_directories("bench_results");
  const fsys::path out = fsys::path("bench_results") / (figure_ + ".csv");
  csv_.save(out);
  std::cout << "# shape checks: " << (checks_ - failed_) << "/" << checks_ << " passed; csv: "
            << out << "\n\n";

  if (!g_metrics_path.empty() && !g_metrics_runs.empty()) {
    std::ofstream ms(g_metrics_path);
    if (!ms) {
      std::cerr << "[bench] cannot write metrics file " << g_metrics_path << "\n";
      return 1;
    }
    ms << "{\"schema\": \"h4d-bench-metrics-v1\", \"figure\": \"" << figure_
       << "\", \"runs\": [";
    for (std::size_t i = 0; i < g_metrics_runs.size(); ++i) {
      const auto& [label, stats] = g_metrics_runs[i];
      ms << (i ? ",\n  " : "\n  ") << "{\"label\": \"" << label << "\", \"metrics\": ";
      const fs::MetricsExtra net = {
          {"network_transfers", static_cast<double>(stats.network_transfers)},
          {"network_bytes", static_cast<double>(stats.network_bytes)},
          {"network_busy_seconds", stats.network_busy_seconds}};
      fs::write_metrics_object(ms, stats, fs::analyze_bottleneck(stats), net);
      ms << "}";
    }
    ms << "\n]}\n";
    std::cout << "# metrics: " << g_metrics_runs.size() << " runs exported to "
              << g_metrics_path << "\n\n";
    g_metrics_runs.clear();
  }
  return failed_ == 0 ? 0 : 1;
}

std::string Report::sec(double s) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2) << s;
  return os.str();
}

}  // namespace h4d::bench
