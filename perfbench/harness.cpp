// h4d_perfbench: the measuring half of the end-to-end benchmark.
//
//   h4d_perfbench prepare --workload W --seed N --dir D [--smoke 1]
//       Generate the workload's phantom from (seed, dims) as a 4-node
//       dataset under D/dataset and compute the reference outputs: the
//       serial core::analyze_in_memory maps (D/ref.bin), or for serve_mixed
//       the solo result checksum of every distinct job configuration
//       (D/solo.txt), each checked against analyze_in_memory.
//
//   h4d_perfbench run --workload W --seed N --dir D --seconds S --trace 0|1
//                     [--smoke 1] [--spans FILE]
//       Time the workload for about S seconds and check every output.
//       --trace 1 adds the per-layer probes, the executor's trace recorder
//       and the harness's own spans (written to FILE when the run ends).
//
// Both print one JSON object of raw samples on stdout (Report); run.py
// computes the metrics. Errors (failed checks) are listed in the report;
// a setup failure exits non-zero.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/analysis.hpp"
#include "fs/trace.hpp"
#include "haralick/directions.hpp"
#include "io/dataset.hpp"
#include "io/phantom.hpp"
#include "nd/chunking.hpp"
#include "svc/job_manager.hpp"
#include "svc/workload.hpp"

namespace fsys = std::filesystem;
using namespace h4d;

namespace perfbench {

// ---- workloads ------------------------------------------------------------

Workload make_workload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  core::PipelineConfig& c = w.config;
  c.rfr_copies = kStorageNodes;
  c.resilience.verify_checksums = true;  // `h4d analyze` default: --checksums on
  if (name == "shipped_split") {
    // `h4d analyze DATASET` with no tuning flags: the engine defaults
    // (ROI 7x7x3x3, Ng=32, 40 directions, paper features), split variant,
    // 4 workers, chunk 64,64,8,8. 32x32 in x and y keeps the 3-chunk grid
    // along z (the starvation) of a 64x64 phantom at a quarter of the cost:
    // each command's time depends on which copies the router hands the 3
    // chunks to, so a steady median needs many short commands.
    w.dims = smoke ? Vec4{16, 16, 6, 5} : Vec4{32, 32, 16, 8};
    c.variant = core::Variant::Split;
    c.texture_chunk = {64, 64, 8, 8};
  } else if (name == "hmp_balanced") {
    // --variant hmp --chunk 16,16,8,6 with the same engine. 64x64 gives 216
    // chunks, enough for the demand-driven router to keep 4 copies within
    // 1.2x of each other (150 chunks at 48x48 reach ~1.22).
    w.dims = smoke ? Vec4{16, 16, 6, 5} : Vec4{64, 64, 16, 8};
    c.variant = core::Variant::HMP;
    c.texture_chunk = {16, 16, 8, 6};
  } else if (name == "survey_io") {
    // --variant hmp --workers 4 --chunk 32,32,8,6 --dirs axis --levels 8
    // --roi 3,3,3,3 --out DIR
    w.dims = smoke ? Vec4{24, 24, 6, 5} : Vec4{256, 256, 16, 8};
    c.variant = core::Variant::HMP;
    c.texture_chunk = {32, 32, 8, 6};
    c.engine.directions = haralick::axis_directions(haralick::ActiveDims::all4());
    c.engine.num_levels = 8;
    c.engine.roi_dims = {3, 3, 3, 3};
    w.write_images = true;
  } else if (name == "serve_mixed") {
    // Template of every job: ROI 5x5x3x3, chunk 16,16,8,6, HMP with 2
    // copies; svc::make_workload varies the levels and the feature set.
    w.dims = smoke ? Vec4{12, 12, 5, 4} : Vec4{32, 32, 8, 6};
    c.variant = core::Variant::HMP;
    c.texture_chunk = {16, 16, 8, 6};
    c.engine.roi_dims = {5, 5, 3, 3};
    w.serve = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  c.texture_chunk = Vec4::min(c.texture_chunk, w.dims);  // as the CLI clamps
  if (w.serve) {
    c.hmp_copies = 2;
  } else {
    set_texture_copies(c, kTextureCopies);
  }
  return w;
}

void set_texture_copies(core::PipelineConfig& config, int copies) {
  if (config.variant == core::Variant::HMP) {
    config.hmp_copies = copies;
  } else {
    config.hcc_copies = std::max(1, copies * 4 / 5);
    config.hpc_copies = std::max(1, copies - config.hcc_copies);
  }
}

// ---- report and spans -----------------------------------------------------

namespace {

void json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      os << '\\' << ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      os << ' ';
    } else {
      os << ch;
    }
  }
  os << '"';
}

void json_number(std::ostream& os, double v) {
  if (std::isfinite(v)) {
    os << v;
  } else {
    os << "null";
  }
}

}  // namespace

void Report::write_json(std::ostream& os) const {
  const auto old_precision = os.precision(17);
  os << "{\"scalars\": {";
  const char* sep = "";
  for (const auto& [k, v] : scalars) {
    os << sep;
    json_string(os, k);
    os << ": ";
    json_number(os, v);
    sep = ", ";
  }
  os << "}, \"series\": {";
  sep = "";
  for (const auto& [k, vs] : series) {
    os << sep;
    json_string(os, k);
    os << ": [";
    const char* isep = "";
    for (const double v : vs) {
      os << isep;
      json_number(os, v);
      isep = ", ";
    }
    os << "]";
    sep = ", ";
  }
  os << "}, \"strings\": {";
  sep = "";
  for (const auto& [k, v] : strings) {
    os << sep;
    json_string(os, k);
    os << ": ";
    json_string(os, v);
    sep = ", ";
  }
  os << "}, \"errors\": [";
  sep = "";
  for (const std::string& e : errors) {
    os << sep;
    json_string(os, e);
    sep = ", ";
  }
  os << "]}\n";
  os.precision(old_precision);
}

int SpanLog::begin(const std::string& name, std::int64_t trace_id, int parent) {
  const double start = seconds_since(origin_);
  std::lock_guard lk(mu_);
  spans_.push_back({name, trace_id, parent, start, -1.0});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::end(int span) {
  const double end = seconds_since(origin_);
  std::lock_guard lk(mu_);
  spans_.at(static_cast<std::size_t>(span)).end = end;
}

void SpanLog::write_json(std::ostream& os) const {
  std::lock_guard lk(mu_);
  const auto old_precision = os.precision(9);
  os << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "") << "  {\"id\": " << i << ", \"name\": ";
    json_string(os, s.name);
    os << ", \"trace_id\": " << s.trace_id << ", \"parent\": " << s.parent
       << ", \"start_s\": " << s.start << ", \"end_s\": " << s.end << "}";
  }
  os << "\n]}\n";
  os.precision(old_precision);
}

namespace {

// ---- command line -----------------------------------------------------------

struct Args {
  std::string command;
  std::map<std::string, std::string> opts;

  std::string get(const std::string& key, const std::string& fallback = "") const {
    const auto it = opts.find(key);
    if (it != opts.end()) return it->second;
    if (!fallback.empty()) return fallback;
    throw std::invalid_argument("missing --" + key);
  }
  long long get_int(const std::string& key, const std::string& fallback = "") const {
    return std::stoll(get(key, fallback));
  }
};

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc < 2) throw std::invalid_argument("usage: h4d_perfbench prepare|run --workload W ...");
  a.command = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("bad argument '" + key + "'");
    }
    a.opts[key.substr(2)] = argv[i + 1];
  }
  return a;
}

// ---- reference outputs ------------------------------------------------------

using Maps = std::map<haralick::Feature, Volume4<float>>;

/// Reference map file: per feature, int32 id, four int64 extents, floats.
void save_reference(const fsys::path& file, const Maps& maps) {
  std::ofstream out(file, std::ios::binary);
  for (const auto& [feature, map] : maps) {
    const auto id = static_cast<std::int32_t>(feature);
    out.write(reinterpret_cast<const char*>(&id), sizeof id);
    for (int d = 0; d < 4; ++d) {
      const std::int64_t e = map.dims()[d];
      out.write(reinterpret_cast<const char*>(&e), sizeof e);
    }
    out.write(reinterpret_cast<const char*>(map.data()),
              static_cast<std::streamsize>(map.size() * sizeof(float)));
  }
  if (!out) throw std::runtime_error("cannot write reference " + file.string());
}

/// Compares `got` with the reference file the way test_pipeline_e2e does
/// (|a - b| <= 1e-5 * max(1, |a|)), streaming the reference in blocks so the
/// check adds little to the run's resident memory. Returns "" on a match.
std::string compare_with_reference(const Maps& got, const fsys::path& file) {
  constexpr double kTol = 1e-5;
  std::ifstream in(file, std::ios::binary);
  if (!in) return "reference file missing: " + file.string();
  std::size_t features = 0;
  std::vector<float> block(1 << 18);
  std::int32_t id = 0;
  while (in.read(reinterpret_cast<char*>(&id), sizeof id)) {
    ++features;
    Vec4 dims;
    for (int d = 0; d < 4; ++d) in.read(reinterpret_cast<char*>(&dims[d]), sizeof(std::int64_t));
    const auto feature = static_cast<haralick::Feature>(id);
    const std::string fname(haralick::feature_name(feature));
    const auto it = got.find(feature);
    if (it == got.end()) return "feature " + fname + " missing from the output";
    if (it->second.dims() != dims) return "feature " + fname + " has extents " +
                                          it->second.dims().str() + ", reference " + dims.str();
    const float* g = it->second.data();
    std::int64_t left = dims.volume();
    std::int64_t at = 0;
    while (left > 0) {
      const std::int64_t n = std::min<std::int64_t>(left, static_cast<std::int64_t>(block.size()));
      if (!in.read(reinterpret_cast<char*>(block.data()),
                   static_cast<std::streamsize>(n * sizeof(float)))) {
        return "reference file truncated: " + file.string();
      }
      for (std::int64_t i = 0; i < n; ++i) {
        const float a = block[static_cast<std::size_t>(i)];
        const float b = g[at + i];
        if (!(std::abs(a - b) <= kTol * std::max(1.0f, std::abs(a)))) {
          std::ostringstream msg;
          msg << "feature " << fname << " differs from analyze_in_memory at element "
              << at + i << ": " << b << " vs " << a;
          return msg.str();
        }
      }
      left -= n;
      at += n;
    }
  }
  if (features != got.size()) return "output has features the reference lacks";
  return "";
}

/// Key of a serve_mixed job configuration (what make_workload varies).
std::string job_key(const haralick::EngineConfig& e) {
  return "L" + std::to_string(e.num_levels) +
         (e.features.count() == haralick::kNumFeatures ? "-all" : "-paper");
}

/// Input hygiene: every slice file listed in a node index must have exactly
/// the size dataset.meta implies (a truncated file would fail mid-run).
void check_dataset_files(const fsys::path& root) {
  const io::DiskDataset ds = io::DiskDataset::open(root);
  const io::DatasetMeta& meta = ds.meta();
  std::int64_t listed = 0;
  for (int n = 0; n < meta.storage_nodes; ++n) {
    const io::StorageNodeReader reader = ds.node_reader(n);
    for (const io::SliceRef& s : reader.slices()) {
      const fsys::path file = reader.node_dir() / s.filename;
      const auto size = static_cast<std::int64_t>(fsys::file_size(file));
      if (size != meta.slice_bytes()) {
        throw std::runtime_error("slice " + file.string() + " has " + std::to_string(size) +
                                 " bytes, dataset.meta implies " +
                                 std::to_string(meta.slice_bytes()));
      }
      ++listed;
    }
  }
  if (listed != meta.num_slices() * meta.replica_count()) {
    throw std::runtime_error("node indexes list " + std::to_string(listed) + " slices, expected " +
                             std::to_string(meta.num_slices() * meta.replica_count()));
  }
}

// ---- prepare ----------------------------------------------------------------

int cmd_prepare(const Args& a) {
  const Workload w = make_workload(a.get("workload"), a.get_int("smoke", "0") != 0);
  const fsys::path dir = a.get("dir");
  const fsys::path root = dir / "dataset";
  fsys::remove_all(root);
  io::PhantomConfig pc;
  pc.dims = w.dims;
  pc.seed = static_cast<unsigned>(a.get_int("seed"));
  const io::Phantom phantom = io::generate_phantom(pc);
  io::DiskDataset::create(root, phantom.volume, kStorageNodes);

  Report r;
  if (!w.serve) {
    const Clock::time_point t0 = Clock::now();
    const core::AnalysisResult ref = core::analyze_in_memory(phantom.volume, w.config.engine);
    r.scalars["serial_s"] = seconds_since(t0);
    r.scalars["rois"] = static_cast<double>(num_roi_origins(w.dims, w.config.engine.roi_dims));
    save_reference(dir / "ref.bin", ref.maps);
  } else {
    // Every configuration svc::make_workload can emit: levels 8/16/32, paper
    // or all features. Its solo pipeline run must match analyze_in_memory;
    // its checksum is what every job of that configuration must reproduce.
    std::ofstream solo(dir / "solo.txt");
    for (const int levels : {8, 16, 32}) {
      for (const bool all : {false, true}) {
        core::PipelineConfig cfg = w.config;
        cfg.dataset_root = root;
        cfg.engine.num_levels = levels;
        cfg.engine.features =
            all ? haralick::FeatureSet::all() : haralick::FeatureSet::paper_eval();
        const core::AnalysisResult ref = core::analyze_in_memory(phantom.volume, cfg.engine);
        const std::string key = job_key(cfg.engine);
        const fsys::path ref_file = dir / ("ref_" + key + ".bin");
        save_reference(ref_file, ref.maps);
        const core::AnalysisResult got = core::analyze_threaded(cfg);
        const std::string mismatch = compare_with_reference(got.maps, ref_file);
        if (!mismatch.empty()) r.errors.push_back("solo " + key + ": " + mismatch);
        fsys::remove(ref_file);
        solo << key << ' ' << svc::result_checksum(got) << '\n';
      }
    }
    r.scalars["rois"] = static_cast<double>(num_roi_origins(w.dims, w.config.engine.roi_dims));
  }
  r.write_json(std::cout);
  return 0;
}

// ---- run: shared pieces -----------------------------------------------------

struct RunContext {
  Workload w;
  core::PipelineConfig cfg;  ///< w.config with the dataset root filled in
  fsys::path dir;
  double seconds = 10.0;
  bool trace = false;
  std::uint64_t seed = 0;
  fsys::path fs_trace;  ///< executor trace of one traced run (empty: none)
  Report report;
  SpanLog spans;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void fail(const std::string& what) {
    ++failed;
    report.errors.push_back(what);
  }
};

/// Set-up time samples: DiskDataset::open + core::build_pipeline for the
/// workload's configuration, or JobManager construction + start() (with its
/// shared tile cache) for serve_mixed. Every set-up is its own sample, so a
/// burst of host contention spoils a few samples rather than every batch
/// mean; rounds are spaced by short sleeps so the samples do not all land
/// on one core's state.
void measure_setup(RunContext& ctx) {
  constexpr int kRounds = 8;
  constexpr int kPerRound = 10;
  std::vector<double>& out = ctx.report.series["setup_s"];
  for (int k = 0; k < kRounds; ++k) {
    for (int b = 0; b < kPerRound; ++b) {
      if (ctx.w.serve) {
        io::TileCacheConfig cc;
        cc.budget_bytes = 16 << 20;
        const Clock::time_point t0 = Clock::now();
        svc::JobManager::Options opt;
        opt.workers = 2;
        opt.tile_cache = std::make_shared<io::TileCache>(cc);
        svc::JobManager mgr(opt);
        mgr.start();
        out.push_back(seconds_since(t0));  // shutdown (thread joins) is not set-up
      } else {
        core::PipelineConfig cfg = ctx.cfg;
        cfg.output = core::OutputMode::Collect;
        const Clock::time_point t0 = Clock::now();
        const io::DiskDataset ds = io::DiskDataset::open(cfg.dataset_root);
        const fs::FilterGraph graph =
            core::build_pipeline(cfg, std::make_shared<filters::CollectedResults>());
        out.push_back(seconds_since(t0));
        if (graph.filters().empty() || ds.num_nodes() != kStorageNodes) {
          ctx.fail("set-up built an empty pipeline");
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

/// Peak resident memory of one phase: reset_peak_rss() before it (Linux
/// clear_refs "5" resets VmHWM to the current RSS), peak_rss_kb() after.
/// Without clear_refs the process-lifetime peak is reported.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double peak_rss_kb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);
}

/// Machine-wide CPU ticks (/proc/stat "cpu" line): busy (user, nice,
/// system, irq, softirq) and stolen (a vCPU of this guest wanted to run
/// while the hypervisor ran something else). Zero without /proc/stat.
struct CpuTicks {
  double busy = 0.0;
  double steal = 0.0;
};

CpuTicks cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0, softirq = 0, steal = 0;
  f >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> steal;
  if (!f || cpu != "cpu") return {};
  return {user + nice + system + irq + softirq, steal};
}

/// Share of the machine's busy CPU time between two readings that the
/// hypervisor stole. run.py scales wall times by (1 - share), so a shared
/// host's contention phases do not read as changes of the program.
double steal_share(const CpuTicks& from, const CpuTicks& to) {
  const double busy = to.busy - from.busy;
  const double steal = to.steal - from.steal;
  return busy + steal > 0.0 ? steal / (busy + steal) : 0.0;
}

// ---- run: analysis workloads ------------------------------------------------

struct Rep {
  double wall = 0.0;
  double steal = 0.0;  ///< steal_share over the command
  core::AnalysisResult result;
};

/// One timed user command: analyze_threaded, plus the image write on
/// survey_io. Output files are removed after the clock stops.
Rep command(RunContext& ctx, const core::PipelineConfig& cfg, fs::TraceRecorder* recorder,
            std::int64_t trace_id) {
  SpanLog* spans = ctx.trace ? &ctx.spans : nullptr;
  fs::ThreadedOptions topt;
  topt.trace = recorder;
  const fsys::path out = ctx.dir / "out";
  Rep rep;
  const CpuTicks ticks0 = cpu_ticks();
  const Clock::time_point t0 = Clock::now();
  {
    const ScopedSpan cmd(spans, "command", trace_id);
    {
      const ScopedSpan s(spans, "core.analyze_threaded", trace_id, cmd.id());
      rep.result = core::analyze_threaded(cfg, topt);
    }
    if (ctx.w.write_images) {
      const ScopedSpan s(spans, "io.write_feature_map_images", trace_id, cmd.id());
      write_images(out, rep.result.maps, rep.result.ranges);
    }
  }
  rep.wall = seconds_since(t0);
  rep.steal = steal_share(ticks0, cpu_ticks());
  if (ctx.w.write_images) fsys::remove_all(out);
  return rep;
}

/// Checks one command's output: the first against the analyze_in_memory
/// reference, every later one byte-identical to the first by checksum.
class OutputCheck {
 public:
  explicit OutputCheck(fsys::path ref) : ref_(std::move(ref)) {}

  void check(RunContext& ctx, const core::AnalysisResult& result, const std::string& what) {
    ++ctx.attempted;
    if (!result.faults.clean() || !result.stats.exec.clean()) {
      ctx.fail(what + ": run was not clean");
      return;
    }
    const std::uint32_t crc = svc::result_checksum(result);
    if (!have_crc_) {
      const std::string mismatch = compare_with_reference(result.maps, ref_);
      if (!mismatch.empty()) {
        ctx.fail(what + ": " + mismatch);
        return;
      }
      crc_ = crc;
      have_crc_ = true;
    } else if (crc != crc_) {
      ctx.fail(what + ": output checksum differs from the first repetition");
    }
  }

  std::uint32_t crc() const { return crc_; }

 private:
  fsys::path ref_;
  std::uint32_t crc_ = 0;
  bool have_crc_ = false;
};

void run_analysis(RunContext& ctx) {
  constexpr std::size_t kMinReps = 2;
  OutputCheck check(ctx.dir / "ref.bin");
  Report& r = ctx.report;
  std::int64_t id = 0;

  if (!ctx.trace) {
    std::vector<double>& walls = r.series["command_s"];
    std::vector<double>& steals = r.series["command_steal"];
    std::vector<double>& peaks = r.series["peak_rss_kb"];
    const Clock::time_point loop = Clock::now();
    while (walls.size() < kMinReps || seconds_since(loop) + median_of(walls) <= ctx.seconds) {
      const bool per_rep_peak = reset_peak_rss();
      const Rep rep = command(ctx, ctx.cfg, nullptr, id++);
      walls.push_back(rep.wall);
      steals.push_back(rep.steal);
      peaks.push_back(peak_rss_kb());
      if (!per_rep_peak) r.scalars["peak_rss_is_process_peak"] = 1;
      check.check(ctx, rep.result, "repetition " + std::to_string(walls.size()));
    }
    return;
  }

  // Traced run: untraced and traced commands alternate (trace overhead).
  // The last traced command supplies the filter statistics; copy balance is
  // averaged over all six commands.
  constexpr int kPairs = 3;
  std::unique_ptr<fs::TraceRecorder> recorder;
  std::vector<fs::RunStats> runs;
  Rep traced;
  for (int k = 0; k < kPairs; ++k) {
    Rep plain = command(ctx, ctx.cfg, nullptr, id++);
    r.series["command_s"].push_back(plain.wall);
    check.check(ctx, plain.result, "untraced repetition");
    runs.push_back(plain.result.stats);
    plain = {};
    recorder = std::make_unique<fs::TraceRecorder>();
    traced = command(ctx, ctx.cfg, recorder.get(), id++);
    r.series["traced_command_s"].push_back(traced.wall);
    check.check(ctx, traced.result, "traced repetition");
    runs.push_back(traced.result.stats);
  }
  stats_metrics(runs, ctx.w, r);
  if (!ctx.fs_trace.empty()) fs::write_trace_file(ctx.fs_trace, *recorder);
  const fs::CacheReport& cache = traced.result.stats.cache;
  r.scalars["io.cache_lookups"] = static_cast<double>(cache.lookups);
  r.scalars["io.cache_hits"] = static_cast<double>(cache.hits);
  double disk_bytes = 0.0;
  for (const fs::CopyStats& c : traced.result.stats.copies) {
    disk_bytes += static_cast<double>(c.meter.disk_bytes_read);
  }
  r.scalars["io.disk_bytes_read"] = disk_bytes;

  // io.write: the image writer on this run's maps.
  {
    const ScopedSpan s(&ctx.spans, "io.write_feature_map_images", id);
    const fsys::path out = ctx.dir / "probe_out";
    const Clock::time_point t0 = Clock::now();
    r.scalars["io.bytes_written"] =
        static_cast<double>(write_images(out, traced.result.maps, traced.result.ranges));
    r.scalars["io.write_s"] = seconds_since(t0);
    fsys::remove_all(out);
  }
  traced = {};

  // Scaling curve: the same command at 1..kTextureCopies-1 copies (the
  // kTextureCopies point is the untraced repetitions above).
  for (int n = 1; n < kTextureCopies; ++n) {
    core::PipelineConfig cfg = ctx.cfg;
    set_texture_copies(cfg, n);
    const Rep rep = command(ctx, cfg, nullptr, id++);
    r.scalars["copies_" + std::to_string(n) + ".command_s"] = rep.wall;
    check.check(ctx, rep.result, std::to_string(n) + "-copy run");
  }

  // svc layer: the same analysis submitted as one job.
  {
    const ScopedSpan job(&ctx.spans, "svc.job", id);
    svc::JobManager::Options opt;
    opt.workers = 1;
    svc::JobManager mgr(opt);
    svc::JobSpec spec;
    spec.config = ctx.cfg;
    const Clock::time_point t0 = Clock::now();
    svc::JobManager::SubmitResult sub;
    {
      const ScopedSpan s(&ctx.spans, "svc.submit", id, job.id());
      sub = mgr.submit(spec);
    }
    r.series["svc.submit_us"].push_back(seconds_since(t0) * 1e6);
    ++ctx.attempted;
    if (!sub.admitted) {
      ctx.fail("svc job rejected");
    } else {
      svc::JobRecord rec;
      {
        const ScopedSpan s(&ctx.spans, "svc.wait", id, job.id());
        rec = mgr.wait(sub.id);
      }
      r.series["svc.queued_s"].push_back(rec.queued_seconds);
      r.series["svc.run_s"].push_back(rec.run_seconds);
      if (rec.state != svc::JobState::Completed || rec.result_crc != check.crc()) {
        ctx.fail("svc job output differs from the direct run");
      }
    }
    r.scalars["svc.jobs_failed"] = static_cast<double>(mgr.snapshot().counters.failed);
  }

  layer_probes(ctx.w, ctx.cfg.dataset_root, ctx.cfg.engine, r, ctx.spans);
}

// ---- run: serve_mixed -------------------------------------------------------

struct JobSample {
  double latency_s = 0.0;
  double steal = 0.0;  ///< steal_share from submit until wait returned
  double submit_us = 0.0;
  double queued_s = 0.0;
  double run_s = 0.0;
  std::string key;
};

/// Solo-run result checksum of every serve_mixed job configuration, by
/// job_key (written by prepare).
std::map<std::string, std::uint32_t> load_solo(const fsys::path& dir) {
  std::map<std::string, std::uint32_t> solo;
  std::ifstream in(dir / "solo.txt");
  std::string key;
  std::uint32_t crc = 0;
  while (in >> key >> crc) solo[key] = crc;
  if (solo.empty()) throw std::runtime_error("solo.txt missing; run prepare first");
  return solo;
}

/// One more analysis whose output must equal the solo run of its
/// configuration.
void check_solo(RunContext& ctx, const core::AnalysisResult& result,
                const haralick::EngineConfig& engine, const std::string& what) {
  ++ctx.attempted;
  if (svc::result_checksum(result) != load_solo(ctx.dir).at(job_key(engine))) {
    ctx.fail(what + ": result differs from the solo run of its configuration");
  }
}

/// Submission order of serve_mixed's jobs (indexes into `jobs`, the stream
/// of svc::make_workload(seed)): the stream cut into blocks that each hold
/// the generator's expected mix exactly (levels 8/16/32 at 50/35/15%, every
/// feature on 10% of jobs), each block in seeded order. The seed picks the
/// jobs, tenants, priorities and order but not how heavy a run's mix is,
/// which would otherwise move the metrics.
std::vector<std::size_t> serve_order(const std::vector<svc::WorkloadJob>& jobs,
                                     std::uint64_t seed) {
  const std::map<std::string, int> per_block = {{"L8-paper", 18}, {"L8-all", 2},
                                                {"L16-paper", 13}, {"L16-all", 1},
                                                {"L32-paper", 5}, {"L32-all", 1}};
  constexpr std::size_t kBlock = 40;
  std::mt19937_64 rng(seed);
  std::vector<std::size_t> order;
  std::vector<std::size_t> block;
  std::map<std::string, int> left = per_block;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    int& quota = left.at(job_key(jobs[i].spec.config.engine));
    if (quota == 0) continue;
    --quota;
    block.push_back(i);
    if (block.size() == kBlock) {
      std::shuffle(block.begin(), block.end(), rng);
      order.insert(order.end(), block.begin(), block.end());
      block.clear();
      left = per_block;
    }
  }
  if (order.empty()) throw std::runtime_error("make_workload gave no complete block of jobs");
  return order;
}

/// Closed loop: 2 client threads, each submitting one job and waiting for it
/// before the next, into a JobManager with 2 workers and a shared tile
/// cache, until `seconds` have passed. Every job's result checksum must
/// equal the solo run of its configuration.
void serve_phase(RunContext& ctx, double seconds, bool traced, const std::string& prefix) {
  constexpr int kClients = 2;
  const std::map<std::string, std::uint32_t> solo = load_solo(ctx.dir);

  svc::WorkloadConfig wc;
  wc.jobs = 4096;
  wc.tenants = 4;
  wc.seed = ctx.seed;
  wc.base.config = ctx.cfg;
  const std::vector<svc::WorkloadJob> jobs = svc::make_workload(wc);
  const std::vector<std::size_t> order = serve_order(jobs, ctx.seed);

  io::TileCacheConfig cc;
  cc.budget_bytes = 16 << 20;
  svc::JobManager::Options opt;
  opt.workers = 2;
  opt.tile_cache = std::make_shared<io::TileCache>(cc);
  svc::JobManager mgr(opt);
  mgr.start();
  const bool per_phase_peak = reset_peak_rss();

  fs::TraceRecorder recorder;
  SpanLog* spans = traced ? &ctx.spans : nullptr;
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::vector<JobSample> samples;         // guarded by mu
  std::vector<std::string> errors;        // guarded by mu
  std::int64_t attempted = 0;             // guarded by mu
  const CpuTicks ticks0 = cpu_ticks();
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                              std::chrono::duration<double>(seconds));
  auto client = [&] {
    try {
      while (Clock::now() < deadline) {
        const std::size_t index = next.fetch_add(1);
        svc::JobSpec spec = jobs[order[index % order.size()]].spec;
        if (traced) spec.threaded.trace = &recorder;
        JobSample s;
        s.key = job_key(spec.config.engine);
        const CpuTicks ticks = cpu_ticks();
        const Clock::time_point ts = Clock::now();
        const auto trace_id = static_cast<std::int64_t>(index);
        const ScopedSpan job(spans, "svc.job", trace_id);
        svc::JobManager::SubmitResult sub;
        {
          const ScopedSpan span(spans, "svc.submit", trace_id, job.id());
          sub = mgr.submit(spec);
        }
        s.submit_us = seconds_since(ts) * 1e6;
        std::string error;
        if (sub.admitted) {
          svc::JobRecord rec;
          {
            const ScopedSpan span(spans, "svc.wait", trace_id, job.id());
            rec = mgr.wait(sub.id);
          }
          s.latency_s = seconds_since(ts);
          s.steal = steal_share(ticks, cpu_ticks());
          s.queued_s = rec.queued_seconds;
          s.run_s = rec.run_seconds;
          if (rec.state != svc::JobState::Completed) {
            error = "job " + std::to_string(sub.id) + " ended " +
                    std::string(svc::state_name(rec.state)) + ": " + rec.error;
          } else if (rec.result_crc != solo.at(s.key)) {
            error = "job " + std::to_string(sub.id) + " (" + s.key +
                    ") result differs from its solo run";
          }
        } else {
          error = "job rejected: " + std::string(svc::reject_reason_name(sub.reason));
        }
        std::lock_guard lk(mu);
        ++attempted;
        if (error.empty()) {
          samples.push_back(s);
        } else {
          errors.push_back(error);
        }
      }
    } catch (const std::exception& e) {
      std::lock_guard lk(mu);
      ++attempted;
      errors.push_back(std::string("client failed: ") + e.what());
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client);
  // Peak resident memory of each whole second of the loop: which jobs
  // overlap at the loop's single peak varies, the median window does less.
  Report& r = ctx.report;
  std::vector<double>& peaks = r.series[prefix + "peak_rss_kb"];
  for (Clock::time_point w = t0 + std::chrono::seconds(1); w <= deadline;
       w += std::chrono::seconds(1)) {
    std::this_thread::sleep_until(w);
    peaks.push_back(peak_rss_kb());
    reset_peak_rss();
  }
  for (std::thread& t : clients) t.join();
  const double wall = seconds_since(t0);
  const double steal = steal_share(ticks0, cpu_ticks());
  if (peaks.empty()) peaks.push_back(peak_rss_kb());
  mgr.shutdown();
  const svc::ServiceStats snap = mgr.snapshot();

  if (!per_phase_peak) r.scalars["peak_rss_is_process_peak"] = 1;
  ctx.attempted += attempted;
  for (const std::string& e : errors) ctx.fail(e);
  r.scalars[prefix + "wall_s"] = wall;
  r.scalars[prefix + "stolen_wall_s"] = wall * steal;
  r.scalars[prefix + "jobs_completed"] = static_cast<double>(samples.size());
  std::map<std::string, double> per_key;
  for (const JobSample& s : samples) {
    r.series[prefix + "job_latency_s"].push_back(s.latency_s);
    r.series[prefix + "job_steal"].push_back(s.steal);
    r.series[prefix + "svc.submit_us"].push_back(s.submit_us);
    r.series[prefix + "svc.queued_s"].push_back(s.queued_s);
    r.series[prefix + "svc.run_s"].push_back(s.run_s);
    per_key[s.key] += 1.0;
  }
  for (const auto& [key, n] : per_key) r.scalars[prefix + "jobs." + key] = n;
  r.scalars[prefix + "svc.jobs_failed"] = static_cast<double>(snap.counters.failed);
  r.scalars[prefix + "io.cache_lookups"] = static_cast<double>(snap.cache.lookups);
  r.scalars[prefix + "io.cache_hits"] = static_cast<double>(snap.cache.hits);
  r.scalars[prefix + "io.disk_bytes_read"] = static_cast<double>(snap.meter.disk_bytes_read);
}

/// Serial baseline of serve_mixed (haralick.serial_rois_per_s): the
/// single-thread core::analyze_in_memory time of every job configuration.
void serve_serial_baselines(RunContext& ctx) {
  const Volume4<std::uint16_t> volume = io::DiskDataset::open(ctx.cfg.dataset_root).read_all();
  for (const int levels : {8, 16, 32}) {
    for (const bool all : {false, true}) {
      haralick::EngineConfig engine = ctx.cfg.engine;
      engine.num_levels = levels;
      engine.features = all ? haralick::FeatureSet::all() : haralick::FeatureSet::paper_eval();
      const Clock::time_point t0 = Clock::now();
      (void)core::analyze_in_memory(volume, engine);
      ctx.report.scalars["serial_s." + job_key(engine)] = seconds_since(t0);
    }
  }
}

void run_serve(RunContext& ctx) {
  if (!ctx.trace) {
    serve_phase(ctx, ctx.seconds, false, "");
    return;
  }
  serve_serial_baselines(ctx);
  serve_phase(ctx, ctx.seconds / 2, false, "");
  serve_phase(ctx, ctx.seconds / 2, true, "traced.");

  // Filter statistics and kernel replay of the heaviest job configuration
  // (Ng=32, every feature including f14), from one solo traced run.
  core::PipelineConfig cfg = ctx.cfg;
  cfg.engine.num_levels = 32;
  cfg.engine.features = haralick::FeatureSet::all();
  fs::TraceRecorder recorder;
  fs::ThreadedOptions topt;
  topt.trace = &recorder;
  core::AnalysisResult solo;
  {
    const ScopedSpan s(&ctx.spans, "core.analyze_threaded", -2);
    solo = core::analyze_threaded(cfg, topt);
  }
  check_solo(ctx, solo, cfg.engine, "traced solo run");
  stats_metrics({solo.stats}, ctx.w, ctx.report);
  if (!ctx.fs_trace.empty()) fs::write_trace_file(ctx.fs_trace, recorder);
  {
    const fsys::path out = ctx.dir / "probe_out";
    const Clock::time_point t0 = Clock::now();
    ctx.report.scalars["io.bytes_written"] =
        static_cast<double>(write_images(out, solo.maps, solo.ranges));
    ctx.report.scalars["io.write_s"] = seconds_since(t0);
    fsys::remove_all(out);
  }
  for (int n = 1; n <= kTextureCopies; ++n) {
    core::PipelineConfig c = ctx.cfg;
    c.hmp_copies = n;
    const Clock::time_point t0 = Clock::now();
    const core::AnalysisResult result = core::analyze_threaded(c);
    ctx.report.scalars["copies_" + std::to_string(n) + ".command_s"] = seconds_since(t0);
    check_solo(ctx, result, c.engine, std::to_string(n) + "-copy run");
  }
  layer_probes(ctx.w, ctx.cfg.dataset_root, cfg.engine, ctx.report, ctx.spans);
}

void record_build(Report& r) {
  r.strings["build_type"] = PERFBENCH_BUILD_TYPE;
#ifdef H4D_SIMD
  r.scalars["build.simd"] = 1;
#else
  r.scalars["build.simd"] = 0;
#endif
#ifdef __OPTIMIZE__
  r.scalars["build.optimized"] = 1;
#else
  r.scalars["build.optimized"] = 0;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  r.scalars["build.sanitized"] = 1;
#else
  r.scalars["build.sanitized"] = 0;
#endif
}

int cmd_run(const Args& a) {
  RunContext ctx;
  ctx.w = make_workload(a.get("workload"), a.get_int("smoke", "0") != 0);
  ctx.dir = a.get("dir");
  ctx.cfg = ctx.w.config;
  ctx.cfg.dataset_root = ctx.dir / "dataset";
  ctx.seconds = std::stod(a.get("seconds"));
  ctx.trace = a.get_int("trace") != 0;
  ctx.seed = static_cast<std::uint64_t>(a.get_int("seed"));
  if (ctx.trace && a.opts.count("spans")) ctx.fs_trace = a.get("spans") + ".executor.json";
  record_build(ctx.report);

  check_dataset_files(ctx.cfg.dataset_root);
  measure_setup(ctx);
  if (ctx.w.serve) {
    run_serve(ctx);
  } else {
    run_analysis(ctx);
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ctx.report.scalars["process_peak_rss_kb"] = static_cast<double>(ru.ru_maxrss);
  ctx.report.scalars["attempted"] = static_cast<double>(ctx.attempted);
  ctx.report.scalars["failed"] = static_cast<double>(ctx.failed);
  if (ctx.trace && a.opts.count("spans")) {
    std::ofstream out(a.get("spans"));
    ctx.spans.write_json(out);
  }
  ctx.report.write_json(std::cout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args a = perfbench::parse_args(argc, argv);
    if (a.command == "prepare") return perfbench::cmd_prepare(a);
    if (a.command == "run") return perfbench::cmd_run(a);
    throw std::invalid_argument("unknown command '" + a.command + "'");
  } catch (const std::exception& e) {
    std::cerr << "h4d_perfbench: " << e.what() << "\n";
    return 2;
  }
}
