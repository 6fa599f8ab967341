#include "cli/cli.hpp"

#include <charconv>
#include <chrono>
#include <cmath>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <algorithm>
#include <fstream>

#include "core/analysis.hpp"
#include "core/planner.hpp"
#include "fs/metrics.hpp"
#include "fs/supervisor.hpp"
#include "fs/trace.hpp"
#include "haralick/directions.hpp"
#include "io/image_write.hpp"
#include "io/mhd.hpp"
#include "io/phantom.hpp"
#include "io/scrub.hpp"
#include "io/tile_cache.hpp"
#include "svc/job_manager.hpp"
#include "svc/jobs_metrics.hpp"
#include "svc/workload.hpp"

namespace h4d::cli {

namespace {

/// Minimal option parser: --key value pairs plus positional arguments.
class Args {
 public:
  Args(int argc, const char* const* argv, int start) {
    for (int i = start; i < argc; ++i) {
      const std::string a = argv[i];
      if (a.rfind("--", 0) == 0) {
        if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
        options_[a.substr(2)] = argv[++i];
      } else {
        positional_.push_back(a);
      }
    }
  }

  const std::vector<std::string>& positional() const { return positional_; }

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = options_.find(key);
    return it == options_.end() ? fallback : it->second;
  }
  std::string require(const std::string& key) const {
    const auto it = options_.find(key);
    if (it == options_.end()) throw std::runtime_error("missing required option --" + key);
    return it->second;
  }
  bool has(const std::string& key) const { return options_.count(key) != 0; }

  int get_int(const std::string& key, int fallback) const {
    const auto it = options_.find(key);
    if (it == options_.end()) return fallback;
    int v = 0;
    const auto [p, ec] = std::from_chars(it->second.data(),
                                         it->second.data() + it->second.size(), v);
    if (ec != std::errc() || p != it->second.data() + it->second.size()) {
      throw std::runtime_error("bad integer for --" + key + ": " + it->second);
    }
    return v;
  }

  /// "0,2,5" -> {0, 2, 5} (empty when the option is absent).
  std::vector<int> get_int_list(const std::string& key) const {
    std::vector<int> values;
    const auto it = options_.find(key);
    if (it == options_.end()) return values;
    std::istringstream is(it->second);
    std::string token;
    while (std::getline(is, token, ',')) {
      if (token.empty()) continue;
      int v = 0;
      const auto [p, ec] = std::from_chars(token.data(), token.data() + token.size(), v);
      if (ec != std::errc() || p != token.data() + token.size()) {
        throw std::runtime_error("bad integer in --" + key + ": " + token);
      }
      values.push_back(v);
    }
    return values;
  }

  /// "X,Y,Z,T" -> Vec4.
  Vec4 get_vec4(const std::string& key, Vec4 fallback) const {
    const auto it = options_.find(key);
    if (it == options_.end()) return fallback;
    Vec4 v;
    std::istringstream is(it->second);
    std::string token;
    for (int i = 0; i < kDims; ++i) {
      if (!std::getline(is, token, ',')) {
        throw std::runtime_error("--" + key + " needs 4 comma-separated values");
      }
      v[i] = std::stoll(token);
    }
    return v;
  }

 private:
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

haralick::EngineConfig engine_from_args(const Args& args) {
  haralick::EngineConfig engine;
  engine.roi_dims = args.get_vec4("roi", {7, 7, 3, 3});
  engine.num_levels = args.get_int("levels", 32);
  const std::string features = args.get("features", "paper");
  if (features == "paper") {
    engine.features = haralick::FeatureSet::paper_eval();
  } else if (features == "all") {
    engine.features = haralick::FeatureSet::all();
  } else {
    throw std::runtime_error("--features must be 'paper' or 'all'");
  }
  if (args.get("repr", "full") == "sparse") {
    engine.representation = haralick::Representation::Sparse;
  }
  if (args.get("dirs", "all") == "axis") {
    engine.directions = haralick::axis_directions(haralick::ActiveDims::all4());
  }
  const std::string sweep = args.get("sweep", "fast");
  if (sweep == "strict") {
    engine.sweep_mode = haralick::SweepMode::Strict;
  } else if (sweep != "fast") {
    throw std::runtime_error("--sweep must be 'strict' or 'fast'");
  }
  return engine;
}

int cmd_phantom(const Args& args, std::ostream& out) {
  io::PhantomConfig cfg;
  cfg.dims = args.get_vec4("dims", {64, 64, 16, 8});
  cfg.num_tumors = args.get_int("tumors", 3);
  cfg.seed = static_cast<unsigned>(args.get_int("seed", 2004));
  const std::string dest = args.require("out");
  const int nodes = args.get_int("nodes", 4);
  const int replicas = args.get_int("replicas", 1);

  const io::Phantom phantom = io::generate_phantom(cfg);
  io::DiskDataset::create(dest, phantom.volume, nodes, replicas);
  out << "wrote phantom dataset " << cfg.dims.str() << " with " << phantom.tumors.size()
      << " lesions across " << nodes << " storage nodes under " << dest;
  if (replicas > 1) out << " (replication factor " << std::min(replicas, nodes) << ")";
  out << "\n";
  return 0;
}

int cmd_import(const Args& args, std::ostream& out) {
  if (args.positional().empty()) throw std::runtime_error("import: need an .mhd file");
  const std::string src = args.positional()[0];
  const std::string dest = args.require("out");
  const int nodes = args.get_int("nodes", 4);
  const int replicas = args.get_int("replicas", 1);
  const io::DiskDataset ds = io::import_mhd(src, dest, nodes, replicas);
  out << "imported " << src << " -> " << dest << " (" << ds.meta().dims.str() << ", "
      << nodes << " storage nodes, replication factor " << ds.meta().replica_count()
      << ")\n";
  return 0;
}

int cmd_info(const Args& args, std::ostream& out) {
  if (args.positional().empty()) throw std::runtime_error("info: need a dataset directory");
  const io::DiskDataset ds = io::DiskDataset::open(args.positional()[0]);
  const io::DatasetMeta& m = ds.meta();
  out << "dims           " << m.dims.str() << "\n"
      << "dtype          " << io::dtype_name(m.dtype) << "\n"
      << "intensity      [" << m.value_min << ", " << m.value_max << "]\n"
      << "storage nodes  " << m.storage_nodes << "\n"
      << "replicas       " << m.replica_count() << "\n"
      << "slices         " << m.num_slices() << " (" << m.slice_bytes() << " B each)\n";
  for (int n = 0; n < m.storage_nodes; ++n) {
    out << "  node_" << n << ": ";
    try {
      out << ds.node_reader(n).slices().size() << " slices\n";
    } catch (const std::exception&) {
      out << "missing (run `h4d scrub` / `h4d repair`)\n";
    }
  }
  return 0;
}

/// Tile-cache knobs shared by analyze/simulate/serve/jobs: --tile-cache-mb
/// sets the budget (0 = off), --tile-shape W,H the tile extents,
/// --prefetch-depth how many slices the raster-order prefetcher may run
/// ahead, --cache-policy the eviction policy.
io::TileCacheConfig cache_config_from_args(const Args& args) {
  io::TileCacheConfig cache;
  cache.budget_bytes =
      static_cast<std::size_t>(args.get_int("tile-cache-mb", 0)) * 1024 * 1024;
  const std::vector<int> shape = args.get_int_list("tile-shape");
  if (!shape.empty()) {
    if (shape.size() != 2) {
      throw std::runtime_error("--tile-shape needs exactly W,H (two values)");
    }
    cache.tile_w = shape[0];
    cache.tile_h = shape[1];
  }
  cache.prefetch_depth = args.get_int("prefetch-depth", cache.prefetch_depth);
  cache.policy = io::cache_policy_from_name(args.get("cache-policy", "lru"));
  return cache;
}

/// Tail-tolerance knobs shared by analyze/simulate/serve/jobs (docs/TAIL.md):
/// --read-deadline-ms arms per-read deadlines (auto = clamp(k x node p99,
/// floor, ceiling); a number pins a fixed deadline), --hedge-pct P arms
/// hedged replica reads at the P-th percentile of the primary node's own
/// latency history (0 = off), --hedge-max-inflight caps concurrently
/// outstanding hedges.
io::TailConfig tail_config_from_args(const Args& args) {
  io::TailConfig tail;
  const std::string deadline = args.get("read-deadline-ms", "");
  if (!deadline.empty() && deadline != "off") {
    tail.deadline_enabled = true;
    if (deadline != "auto") {
      bool ok = true;
      try {
        tail.deadline_ms = std::stod(deadline);
      } catch (const std::exception&) {
        ok = false;
      }
      if (!ok || std::isnan(tail.deadline_ms) || tail.deadline_ms <= 0.0) {
        throw std::runtime_error(
            "--read-deadline-ms wants auto or a positive ms value, got " + deadline);
      }
    }
  }
  const int hedge_pct = args.get_int("hedge-pct", 0);
  if (hedge_pct < 0 || hedge_pct > 100) {
    throw std::runtime_error("--hedge-pct wants a percentile in [1,100] (0 = off)");
  }
  if (hedge_pct > 0) {
    tail.hedge_enabled = true;
    tail.hedge_pct = hedge_pct;
  }
  tail.hedge_max_inflight =
      std::max(1, args.get_int("hedge-max-inflight", tail.hedge_max_inflight));
  return tail;
}

core::PipelineConfig pipeline_from_args(const Args& args, const std::string& dataset) {
  // Removed options fail loudly instead of being silently ignored: a script
  // that asked for them would otherwise measure something else.
  for (const char* removed : {"sliding", "queue"}) {
    if (args.has(removed)) {
      throw std::runtime_error(std::string("--") + removed + " was removed; drop the option");
    }
  }
  core::PipelineConfig cfg;
  cfg.dataset_root = dataset;
  cfg.engine = engine_from_args(args);
  const io::DatasetMeta meta = io::DatasetMeta::load(dataset);
  cfg.rfr_copies = meta.storage_nodes;
  cfg.texture_chunk = args.get_vec4("chunk", {64, 64, 8, 8});
  // Clamp the chunk to the dataset so small studies work out of the box.
  cfg.texture_chunk = Vec4::min(cfg.texture_chunk, meta.dims);
  cfg.variant = args.get("variant", "split") == "hmp" ? core::Variant::HMP
                                                      : core::Variant::Split;

  // Resilience: --faults injects deterministic storage faults, --retry sets
  // the retry budget, --on-corrupt picks the degradation policy.
  cfg.faults = io::FaultConfig::parse(args.get("faults", ""));
  cfg.resilience.policy = io::degrade_policy_from_name(args.get("on-corrupt", "fail"));
  const int retries = args.get_int("retry", -1);
  if (retries >= 0) {
    cfg.resilience.retry.max_attempts = retries + 1;
    if (cfg.resilience.policy == io::DegradePolicy::FailFast && retries > 0) {
      cfg.resilience.policy = io::DegradePolicy::Retry;
    }
  }
  cfg.resilience.verify_checksums = args.get("checksums", "on") == "on";
  cfg.resilience.fill_value = static_cast<std::uint16_t>(args.get_int("fill", 0));
  // Degraded mode: nodes listed here read nothing; their slices come from
  // the surviving replicas (missing node directories are detected on top).
  cfg.dead_nodes = args.get_int_list("dead-nodes");

  // Checkpoint/resume: --checkpoint names the chunk-completion manifest;
  // --resume on prunes chunks the manifest already records as complete.
  cfg.checkpoint_path = args.get("checkpoint", "");
  cfg.resume = args.get("resume", "off") == "on";
  if (cfg.resume && cfg.checkpoint_path.empty()) {
    throw std::runtime_error("--resume on requires --checkpoint FILE");
  }

  // Out-of-core tile cache between the RFR readers and the slice files.
  cfg.cache = cache_config_from_args(args);

  // Tail-tolerant I/O: adaptive deadlines, hedged reads, slow-node eviction.
  cfg.tail = tail_config_from_args(args);

  const int workers = args.get_int("workers", 4);
  if (cfg.variant == core::Variant::HMP) {
    cfg.hmp_copies = workers;
  } else if (args.get("plan", "fixed") == "auto" && workers >= 2) {
    // Probe the dataset (through the resilient read path) and split the
    // worker budget by the measured HCC:HPC cost ratio (paper Sec. 5.2).
    const core::SplitPlan plan = core::plan_split_dataset(
        io::DiskDataset::open(dataset), cfg.engine, sim::CostModel{}, workers,
        cfg.resilience);
    cfg.hcc_copies = plan.hcc_nodes;
    cfg.hpc_copies = plan.hpc_nodes;
  } else {
    cfg.hcc_copies = std::max(1, workers * 4 / 5);
    cfg.hpc_copies = std::max(1, workers - cfg.hcc_copies);
  }
  return cfg;
}

void print_fault_report(const io::FaultReport& report, std::ostream& out) {
  if (report.clean()) return;
  out << "resilience: " << report.summary() << "\n";
}

/// Supervision knobs shared by analyze (threaded) and, via the failure
/// model's policy, simulate: --supervise picks the crash policy, --watchdog-ms
/// arms the hang detector, --max-restarts / --poison bound the recovery.
fs::SupervisorOptions supervisor_from_args(const Args& args) {
  fs::SupervisorOptions sup;
  sup.policy = fs::supervise_policy_from_name(args.get("supervise", "fail"));
  sup.max_restarts = args.get_int("max-restarts", sup.max_restarts);
  sup.poison_threshold = args.get_int("poison", sup.poison_threshold);
  sup.watchdog_deadline_ms = args.get_int("watchdog-ms", 0);
  return sup;
}

void print_exec_report(const fs::ExecutionReport& exec, std::ostream& out) {
  if (exec.clean()) return;
  out << "supervision: " << exec.summary() << "\n";
  for (const auto& q : exec.quarantined) {
    out << "  quarantined: " << q.filter << "[" << q.copy << "] chunk " << q.chunk_id
        << " seq " << q.seq << " region " << q.region.str() << " (" << q.reason << ")\n";
  }
}

/// Shared --trace/--metrics handling of analyze and simulate: write the
/// requested export files and print the end-of-run bottleneck report.
void finish_observability(const Args& args, const fs::RunStats& stats,
                          const fs::TraceRecorder& trace, const fs::MetricsExtra& extra,
                          std::ostream& out) {
  print_exec_report(stats.exec, out);
  if (stats.cache.present) {
    const fs::CacheReport& c = stats.cache;
    const double rate = c.lookups > 0
                            ? static_cast<double>(c.hits) / static_cast<double>(c.lookups)
                            : 0.0;
    out << "cache: " << c.policy << ", " << c.budget_bytes / (1024 * 1024) << " MiB, "
        << c.hits << "/" << c.lookups << " hits (" << static_cast<int>(rate * 100)
        << "%), " << c.bytes_served_cache / 1024 << " KiB served, "
        << c.bytes_read_disk / 1024 << " KiB from disk, prefetch "
        << c.prefetch_useful << "/" << c.prefetch_issued << " useful, "
        << c.evictions << " evictions\n";
  }
  if (stats.tail.present) {
    const fs::TailReport& t = stats.tail;
    out << "io tail: deadline " << t.deadline_mode << ", " << t.reads
        << " pooled reads, hedges " << t.hedges_won << "/" << t.hedges_issued
        << " won, " << t.reads_abandoned << " abandoned, " << t.breaches
        << " breaches, " << t.evictions_slow << " slow evictions\n";
    for (const fs::TailNodeRow& n : t.nodes) {
      if (n.reads == 0 && n.breaches == 0) continue;
      out << "  node_" << n.node << ": " << n.reads << " reads, p50 " << n.p50_ms
          << " ms, p99 " << n.p99_ms << " ms, " << n.breaches << " breaches\n";
    }
  }
  const fs::BottleneckReport report = fs::analyze_bottleneck(stats);
  fs::print_bottleneck_report(out, report);
  if (args.has("trace")) {
    const std::string path = args.get("trace", "");
    fs::write_trace_file(path, trace);
    out << "trace: wrote " << trace.event_count() << " events to " << path
        << " (load in Perfetto / chrome://tracing)\n";
  }
  if (args.has("metrics")) {
    const std::string path = args.get("metrics", "");
    fs::write_metrics_file(path, stats, extra);
    out << "metrics: wrote " << path << "\n";
  }
}

int cmd_analyze(const Args& args, std::ostream& out) {
  if (args.positional().empty()) throw std::runtime_error("analyze: need a dataset directory");
  const std::string dataset = args.positional()[0];
  core::PipelineConfig cfg = pipeline_from_args(args, dataset);

  fs::TraceRecorder trace;
  fs::ThreadedOptions topt;
  if (args.has("trace")) topt.trace = &trace;
  topt.supervise = supervisor_from_args(args);
  const core::AnalysisResult result = core::analyze_threaded(cfg, topt);
  out << "analyzed " << dataset << " in " << result.stats.total_seconds << "s wall, "
      << result.maps.size() << " feature maps over " << result.origins.size.str()
      << " origins\n";
  print_fault_report(result.faults, out);
  finish_observability(args, result.stats, trace, {}, out);

  if (args.has("out")) {
    const std::string dest = args.get("out", "");
    for (const auto& [feature, map] : result.maps) {
      const auto [lo, hi] = result.ranges.at(feature);
      const int n = io::write_feature_map_images(
          dest, std::string(haralick::feature_slug(feature)), map, lo, hi);
      out << "  " << haralick::feature_name(feature) << ": " << n << " slices\n";
    }
  }
  return 0;
}

/// Paper layout for simulated runs: RFR on nodes 0..k, IIC on the next, USO
/// after, texture filters on dedicated nodes. Returns the first texture node
/// id (for sizing the modeled cluster).
int place_for_simulation(core::PipelineConfig& cfg, const io::DatasetMeta& meta) {
  for (int i = 0; i < meta.storage_nodes; ++i) cfg.rfr_nodes.push_back(i);
  const int iic_node = meta.storage_nodes;
  cfg.iic_nodes = {iic_node};
  cfg.uso_nodes = {iic_node + 1};
  const int first_texture = iic_node + 2;
  if (cfg.variant == core::Variant::HMP) {
    for (int i = 0; i < cfg.hmp_copies; ++i) cfg.hmp_nodes.push_back(first_texture + i);
  } else {
    for (int i = 0; i < cfg.hcc_copies; ++i) cfg.hcc_nodes.push_back(first_texture + i);
    for (int i = 0; i < cfg.hpc_copies; ++i) {
      cfg.hpc_nodes.push_back(first_texture + cfg.hcc_copies + i);
    }
  }
  return first_texture;
}

int cmd_simulate(const Args& args, std::ostream& out) {
  if (args.positional().empty()) {
    throw std::runtime_error("simulate: need a dataset directory");
  }
  const std::string dataset = args.positional()[0];
  const int workers = args.get_int("workers", 8);

  core::PipelineConfig cfg = pipeline_from_args(args, dataset);
  const io::DatasetMeta meta = io::DatasetMeta::load(dataset);
  const int first_texture = place_for_simulation(cfg, meta);

  sim::SimOptions sopt;
  sopt.cluster = sim::make_piii_cluster(first_texture + workers + 2);
  sopt.failures = sim::FailureModel::parse(args.get("sim-failures", ""));
  fs::TraceRecorder trace;
  if (args.has("trace")) sopt.trace = &trace;

  const core::AnalysisResult r = core::analyze_simulated(cfg, sopt);
  out << "virtual execution time " << r.sim.total_seconds << " s on "
      << (cfg.variant == core::Variant::HMP ? "HMP" : "split HCC+HPC") << " with "
      << workers << " texture nodes (modeled PIII cluster)\n"
      << "network: " << r.sim.network_bytes / 1024 << " KiB in " << r.sim.network_transfers
      << " transfers\n";
  std::map<std::string, double> busy;
  for (const auto& c : r.sim.copies) busy[c.filter] += c.busy_seconds;
  for (const auto& [filter, seconds] : busy) {
    out << "  " << filter << " total busy " << seconds << " s\n";
  }
  print_fault_report(r.faults, out);
  const fs::MetricsExtra net = {
      {"network_transfers", static_cast<double>(r.sim.network_transfers)},
      {"network_bytes", static_cast<double>(r.sim.network_bytes)},
      {"network_busy_seconds", r.sim.network_busy_seconds}};
  finish_observability(args, r.sim, trace, net, out);
  return 0;
}

int cmd_scrub(const Args& args, std::ostream& out) {
  if (args.positional().empty()) throw std::runtime_error("scrub: need a dataset directory");
  const std::string dataset = args.positional()[0];
  const io::ScrubReport report = io::scrub_dataset(dataset);
  out << "scrub " << dataset << ": " << report.summary() << "\n";
  if (args.has("json")) {
    const std::string path = args.get("json", "");
    std::ofstream f(path);
    if (!f) throw std::runtime_error("scrub: cannot write " + path);
    report.write_json(f);
    out << "scrub: wrote inventory to " << path << "\n";
  }
  return report.clean() ? 0 : 1;
}

int cmd_repair(const Args& args, std::ostream& out) {
  if (args.positional().empty()) throw std::runtime_error("repair: need a dataset directory");
  const std::string dataset = args.positional()[0];
  const io::RepairReport report = io::repair_dataset(dataset);
  out << "repair " << dataset << ": " << report.summary() << "\n";
  if (args.get("add-checksums", "off") == "on") {
    const io::ChecksumMigrationReport migration = io::add_checksums(dataset);
    out << "add-checksums: " << migration.summary() << "\n";
  }
  return report.complete() ? 0 : 1;
}

/// Shared JobManager knobs of the serve and jobs verbs.
svc::JobManager::Options manager_options_from_args(const Args& args) {
  svc::JobManager::Options mopt;
  mopt.workers = args.get_int("job-workers", 2);
  mopt.max_pending = static_cast<std::size_t>(args.get_int("admit-cap", 32));
  mopt.tenant_max_pending = static_cast<std::size_t>(args.get_int("tenant-pending", 0));
  mopt.tenant_max_running = static_cast<std::size_t>(args.get_int("tenant-running", 0));
  mopt.degrade_watermark = static_cast<std::size_t>(args.get_int("degrade-watermark", 0));
  mopt.checkpoint_dir = args.get("ckpt-dir", "");
  // One process-wide tile cache shared by every job (per-tenant accounting);
  // absent or zero --tile-cache-mb leaves jobs cache-less.
  const io::TileCacheConfig cache = cache_config_from_args(args);
  if (cache.enabled()) mopt.tile_cache = std::make_shared<io::TileCache>(cache);
  // One process-wide tail layer (latency tracker + helper pool) shared the
  // same way; the manager builds the shared instances when enabled.
  mopt.tail = tail_config_from_args(args);
  return mopt;
}

/// End-of-run service accounting: the counters, the per-tenant table, the
/// accounting identity, and the optional --jobs-metrics export. Returns 0
/// when every job is terminal and the identity holds.
int finish_service(const Args& args, const svc::ServiceStats& stats, std::ostream& out) {
  const svc::ServiceCounters& c = stats.counters;
  out << "jobs: " << c.submitted << " submitted = " << c.completed << " completed + "
      << c.rejected << " rejected + " << c.shed << " shed + " << c.failed
      << " failed\n"
      << "      rejected: " << c.rejected_queue_full << " queue_full, "
      << c.rejected_quota << " quota, " << c.rejected_deadline
      << " deadline_infeasible\n"
      << "      " << c.retried << " retried, " << c.deadline_missed
      << " deadline_missed, " << c.cancelled << " cancelled, " << c.degraded
      << " degraded\n";
  for (const auto& t : stats.tenants) {
    out << "  tenant " << t.tenant << " (w=" << t.weight << "): " << t.submitted
        << " submitted, " << t.completed << " completed, " << t.rejected
        << " rejected, " << t.shed << " shed, " << t.failed << " failed, "
        << t.busy_seconds << "s busy";
    if (stats.cache.present) {
      out << ", cache " << t.cache_hits << "/" << (t.cache_hits + t.cache_misses)
          << " hits, " << t.cache_resident_bytes / 1024 << " KiB resident";
    }
    out << "\n";
  }
  if (stats.cache.present) {
    const fs::CacheReport& cr = stats.cache;
    out << "cache: " << cr.policy << ", " << cr.budget_bytes / (1024 * 1024) << " MiB, "
        << cr.hits << "/" << cr.lookups << " hits, " << cr.bytes_served_cache / 1024
        << " KiB served, " << cr.evictions << " evictions, "
        << cr.resident_bytes / 1024 << " KiB resident\n";
  }
  if (args.has("jobs-metrics")) {
    const std::string path = args.get("jobs-metrics", "");
    svc::write_jobs_metrics_file(path, stats);
    out << "jobs-metrics: wrote " << path << "\n";
  }
  bool terminal = true;
  for (const auto& j : stats.jobs) terminal = terminal && svc::state_terminal(j.state);
  const bool identity =
      c.submitted == c.completed + c.rejected + c.shed + c.failed &&
      c.rejected == c.rejected_queue_full + c.rejected_quota + c.rejected_deadline;
  if (!terminal) out << "ERROR: non-terminal jobs remain after drain\n";
  if (!identity) out << "ERROR: accounting identity violated\n";
  return terminal && identity ? 0 : 1;
}

int cmd_serve(const Args& args, std::ostream& out) {
  if (args.positional().empty()) throw std::runtime_error("serve: need a dataset directory");
  const std::string dataset = args.positional()[0];

  svc::WorkloadConfig wl;
  wl.jobs = args.get_int("jobs", 200);
  wl.tenants = args.get_int("tenants", 4);
  wl.seed = static_cast<std::uint64_t>(args.get_int("seed", 2004));
  wl.arrival_ms = args.get_int("arrival-ms", 0);
  wl.deadline_fraction = args.get_int("deadline-pct", 0) / 100.0;
  wl.deadline_s = args.get_int("deadline-ms", 500) / 1000.0;
  wl.max_retries = args.get_int("job-retries", 0);
  wl.est_scale = args.get_int("est-ms", 0) / 1000.0;
  wl.simulate = args.get("mode", "threaded") == "sim";
  wl.base.config = pipeline_from_args(args, dataset);
  wl.base.threaded.supervise = supervisor_from_args(args);
  if (wl.simulate) {
    const io::DatasetMeta meta = io::DatasetMeta::load(dataset);
    const int first_texture = place_for_simulation(wl.base.config, meta);
    const int workers = args.get_int("workers", 4);
    wl.base.sim.cluster = sim::make_piii_cluster(first_texture + workers + 2);
    wl.base.sim.failures = sim::FailureModel::parse(args.get("sim-failures", ""));
  }

  const std::vector<svc::WorkloadJob> workload = svc::make_workload(wl);
  svc::JobManager manager(manager_options_from_args(args));

  // Closed loop: submit on the workload's seeded arrival schedule (flood
  // when --arrival-ms is 0), then drain to quiescence.
  const auto start = std::chrono::steady_clock::now();
  for (const auto& wj : workload) {
    const auto due = start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                 std::chrono::duration<double>(wj.arrival_s));
    std::this_thread::sleep_until(due);
    manager.submit(wj.spec);
  }
  manager.drain();
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start).count();
  manager.shutdown();

  const svc::ServiceStats stats = manager.snapshot();
  out << "served " << workload.size() << " jobs in " << wall << "s ("
      << (wl.simulate ? "simulator" : "threaded") << " executor)\n";
  return finish_service(args, stats, out);
}

/// Parse one `h4d jobs` job line: whitespace-separated key=value tokens
/// among tenant, priority, deadline_ms, est_ms, retries, levels, features,
/// roi (X,Y,Z,T), sim (on|off). Unknown keys fail loudly.
svc::JobSpec parse_job_line(const std::string& line, const svc::JobSpec& base) {
  svc::JobSpec spec = base;
  std::istringstream is(line);
  std::string token;
  while (is >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("jobs: expected key=value, got '" + token + "'");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "tenant") {
      spec.tenant = value;
    } else if (key == "priority") {
      spec.priority = svc::priority_from_name(value);
    } else if (key == "deadline_ms") {
      spec.deadline_s = std::stod(value) / 1000.0;
    } else if (key == "est_ms") {
      spec.est_seconds = std::stod(value) / 1000.0;
    } else if (key == "retries") {
      spec.max_retries = std::stoi(value);
    } else if (key == "levels") {
      spec.config.engine.num_levels = std::stoi(value);
    } else if (key == "features") {
      spec.config.engine.features = value == "all" ? haralick::FeatureSet::all()
                                                   : haralick::FeatureSet::paper_eval();
    } else if (key == "roi") {
      std::istringstream rs(value);
      std::string part;
      for (int d = 0; d < kDims; ++d) {
        if (!std::getline(rs, part, ',')) {
          throw std::runtime_error("jobs: roi needs 4 comma-separated values");
        }
        spec.config.engine.roi_dims[d] = std::stoll(part);
      }
    } else if (key == "sim") {
      spec.simulate = value == "on";
    } else {
      throw std::runtime_error("jobs: unknown key '" + key + "' in job line");
    }
  }
  return spec;
}

int cmd_jobs(const Args& args, std::ostream& out) {
  if (args.positional().empty()) throw std::runtime_error("jobs: need a dataset directory");
  const std::string dataset = args.positional()[0];
  const std::string file = args.require("file");

  svc::JobSpec base;
  base.config = pipeline_from_args(args, dataset);
  base.threaded.supervise = supervisor_from_args(args);
  const bool any_sim = args.get("mode", "threaded") == "sim";
  if (any_sim) {
    const io::DatasetMeta meta = io::DatasetMeta::load(dataset);
    const int first_texture = place_for_simulation(base.config, meta);
    base.sim.cluster = sim::make_piii_cluster(first_texture + args.get_int("workers", 4) + 2);
    base.simulate = true;
  }

  std::ifstream in(file);
  if (!in) throw std::runtime_error("jobs: cannot read " + file);
  std::vector<svc::JobSpec> specs;
  std::string line;
  while (std::getline(in, line)) {
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    specs.push_back(parse_job_line(line, base));
  }
  if (specs.empty()) throw std::runtime_error("jobs: no job lines in " + file);

  svc::JobManager manager(manager_options_from_args(args));
  std::vector<std::int64_t> ids;
  ids.reserve(specs.size());
  for (auto& spec : specs) ids.push_back(manager.submit(std::move(spec)).id);
  manager.drain();
  manager.shutdown();

  const svc::ServiceStats stats = manager.snapshot();
  for (const std::int64_t id : ids) {
    const svc::JobRecord r = manager.job(id);
    out << "job " << r.id << " [" << r.tenant << "/" << svc::priority_name(r.priority)
        << "] " << svc::state_name(r.state);
    if (r.state == svc::JobState::Rejected) {
      out << " (" << svc::reject_reason_name(r.reject_reason) << ")";
    }
    if (r.attempts > 0) out << " attempts=" << r.attempts;
    if (r.degraded) out << " degraded";
    if (r.deadline_missed) out << " deadline_missed";
    if (!r.error.empty()) out << " error=\"" << r.error << "\"";
    out << "\n";
  }
  return finish_service(args, stats, out);
}

int usage(std::ostream& err) {
  err << "usage: h4d <command> [options]\n"
         "\n"
         "commands:\n"
         "  phantom  --out DIR [--dims X,Y,Z,T] [--tumors N] [--seed S] [--nodes N]\n"
         "           [--replicas R]\n"
         "  import   FILE.mhd --out DIR [--nodes N] [--replicas R]\n"
         "  info     DATASET_DIR\n"
         "  analyze  DATASET_DIR [--out DIR] [--variant hmp|split] [--workers N]\n"
         "           [--roi X,Y,Z,T] [--levels N] [--features paper|all]\n"
         "           [--repr full|sparse] [--dirs all|axis]\n"
         "           [--sweep strict|fast] [--chunk X,Y,Z,T] [--plan fixed|auto]\n"
         "           [--faults SPEC] [--retry N] [--on-corrupt fail|retry|skip]\n"
         "           [--checksums on|off] [--fill V] [--dead-nodes N,M]\n"
         "           [--supervise fail|restart|quarantine] [--max-restarts N]\n"
         "           [--poison N] [--watchdog-ms N]\n"
         "           [--checkpoint FILE] [--resume on|off]\n"
         "           [--tile-cache-mb N] [--tile-shape W,H]\n"
         "           [--prefetch-depth N] [--cache-policy lru|clock|cost]\n"
         "           [--read-deadline-ms auto|N] [--hedge-pct P]\n"
         "           [--hedge-max-inflight N]\n"
         "           [--trace FILE] [--metrics FILE]\n"
         "  simulate DATASET_DIR [same options as analyze] [--sim-failures SPEC]\n"
         "  serve    DATASET_DIR [--jobs N] [--tenants N] [--seed S]\n"
         "           [--arrival-ms N] [--deadline-pct P] [--deadline-ms N]\n"
         "           [--job-retries N] [--est-ms N] [--mode threaded|sim]\n"
         "           [--job-workers N] [--admit-cap N] [--tenant-pending N]\n"
         "           [--tenant-running N] [--degrade-watermark N]\n"
         "           [--ckpt-dir DIR] [--jobs-metrics FILE]\n"
         "           [plus analyze pipeline options]\n"
         "  jobs     DATASET_DIR --file JOBS.txt [--mode threaded|sim]\n"
         "           [--job-workers N] [--admit-cap N] [--tenant-pending N]\n"
         "           [--tenant-running N] [--degrade-watermark N]\n"
         "           [--ckpt-dir DIR] [--jobs-metrics FILE]\n"
         "  scrub    DATASET_DIR [--json FILE]\n"
         "  repair   DATASET_DIR [--add-checksums on|off]\n"
         "\n"
         "observability (see docs/OBSERVABILITY.md):\n"
         "  --trace FILE        record filter-copy activity spans and buffer\n"
         "                      handoffs as Chrome-trace JSON (Perfetto /\n"
         "                      chrome://tracing); wall time for analyze,\n"
         "                      virtual time for simulate\n"
         "  --metrics FILE      export the per-copy work-meter table and the\n"
         "                      bottleneck report; .csv -> per-copy CSV table,\n"
         "                      otherwise JSON (schema h4d-metrics-v1). The\n"
         "                      bottleneck report also prints after every run\n"
         "\n"
         "resilience:\n"
         "  --faults SPEC       inject deterministic storage faults; SPEC is\n"
         "                      comma-separated k=v among seed, open, read,\n"
         "                      corrupt, stall, stall_ms, max_transient\n"
         "                      (e.g. seed=7,open=0.05,read=0.02)\n"
         "  --retry N           retry failed slice reads up to N times\n"
         "                      (exponential backoff)\n"
         "  --on-corrupt MODE   fail (default) | retry | skip: skip fills\n"
         "                      irrecoverable slices with --fill and reports them\n"
         "  --checksums on|off  verify per-slice CRC-32 recorded in the index\n"
         "\n"
         "replication (see DESIGN.md sec. 12):\n"
         "  --replicas R        phantom/import: store every slice on R distinct\n"
         "                      nodes (rotated round-robin); reads fail over\n"
         "                      between copies, so any single node can be lost\n"
         "  --dead-nodes N,M    analyze/simulate: treat these storage nodes as\n"
         "                      dead; their slices are read from the surviving\n"
         "                      replicas (missing node dirs are auto-detected)\n"
         "  scrub               verify every replica copy against the index\n"
         "                      CRC-32s; --json FILE writes the machine-readable\n"
         "                      damage inventory; exit 1 when damage was found\n"
         "  repair              re-clone damaged/missing copies from surviving\n"
         "                      good replicas and rebuild lost node indexes;\n"
         "                      --add-checksums on also backfills CRC columns\n"
         "                      for pre-checksum indexes\n"
         "\n"
         "fault tolerance (see DESIGN.md sec. 9):\n"
         "  --supervise MODE    filter-copy crash policy: fail (default, close\n"
         "                      all streams and rethrow) | restart (rebuild the\n"
         "                      copy and retry the buffer) | quarantine (drop\n"
         "                      poison buffers into the damage inventory)\n"
         "  --max-restarts N    filter rebuilds allowed per copy (default 3)\n"
         "  --poison N          crashes by the same buffer before quarantine /\n"
         "                      escalation (default 2)\n"
         "  --watchdog-ms N     declare a copy dead when one filter call\n"
         "                      exceeds N ms; pending buffers re-route to live\n"
         "                      sibling copies (0 = watchdog off)\n"
         "  --checkpoint FILE   append-only fsync'd manifest of completed\n"
         "                      chunks, written as output is persisted\n"
         "  --resume on|off     prune chunks the --checkpoint manifest already\n"
         "                      records as complete, then continue the run\n"
         "  --sim-failures SPEC simulate seeded copy crashes (simulate only);\n"
         "                      comma-separated k=v among seed, crash, delay,\n"
         "                      max_restarts, poison, policy\n"
         "                      (e.g. seed=7,crash=0.05,policy=quarantine)\n"
         "\n"
         "kernel (see docs/KERNEL.md):\n"
         "  --repr MODE         wire format + cost model: full (default, Ng^2\n"
         "                      dense counts on the HCC->HPC stream) | sparse\n"
         "                      (non-zero upper-triangle entries). Features\n"
         "                      are the same; both go through one sweep\n"
         "  --sweep MODE        floating-point mode of the feature sweep, for\n"
         "                      every variant and representation: fast\n"
         "                      (default, SoA/SIMD reductions + fast_log,\n"
         "                      ~1e-10 relative agreement) | strict\n"
         "                      (bit-identical to the reference feature pass;\n"
         "                      ~3% slower, for cross-checking reference\n"
         "                      values bit-for-bit)\n"
         "\n"
         "tile cache (see docs/CACHE.md):\n"
         "  --tile-cache-mb N   memory budget of the shared out-of-core tile\n"
         "                      cache between the readers and the slice files\n"
         "                      (0 = off, the default); repeated / overlapping\n"
         "                      reads are served from memory, byte-identical\n"
         "                      to cache-off. Counters land in the metrics\n"
         "                      \"cache\" section\n"
         "  --tile-shape W,H    cached tile extents within a slice\n"
         "                      (default 64,64)\n"
         "  --prefetch-depth N  slices the raster-order prefetcher may run\n"
         "                      ahead of the demand loop (0 = no prefetch;\n"
         "                      default 2; off under --faults)\n"
         "  --cache-policy P    eviction policy: lru (default) | clock |\n"
         "                      cost (weighs refetch cost: failover /\n"
         "                      degraded-replica tiles are kept longer)\n"
         "\n"
         "tail-tolerant I/O (see docs/TAIL.md):\n"
         "  --read-deadline-ms D  per-read deadline on verified slice reads:\n"
         "                      auto = clamp(3 x node p99, 5 ms, 500 ms),\n"
         "                      adapting to each storage node's measured\n"
         "                      latency; a number pins a fixed deadline; a\n"
         "                      read that blows it is abandoned in-flight\n"
         "                      and retried synchronously (default: off)\n"
         "  --hedge-pct P       hedge a read to the next replica once the\n"
         "                      primary exceeds the P-th percentile of its\n"
         "                      own latency; first CRC-verified result wins,\n"
         "                      byte-identical either way (0 = off, the\n"
         "                      default; needs replicas >= 2); sustained\n"
         "                      breaches evict the slow node (reason slow)\n"
         "                      with the usual probation / probe re-admission\n"
         "  --hedge-max-inflight N  cap on concurrently outstanding hedge\n"
         "                      reads across the run (default 4)\n"
         "\n"
         "multi-tenant service (see DESIGN.md sec. 14):\n"
         "  serve               closed-loop seeded workload against the\n"
         "                      JobManager: --jobs jobs from --tenants tenants\n"
         "                      with heavy-tailed sizes, submitted on a seeded\n"
         "                      exponential arrival schedule (--arrival-ms\n"
         "                      mean gap; 0 = flood), then drained\n"
         "  jobs                explicit job list from --file (one job per\n"
         "                      line: key=value tokens among tenant, priority,\n"
         "                      deadline_ms, est_ms, retries, levels,\n"
         "                      features, roi, sim; # starts a comment)\n"
         "  --mode threaded|sim run jobs on this machine's threads or on the\n"
         "                      modeled PIII cluster (virtual time)\n"
         "  --job-workers N     concurrent jobs (each job still runs its own\n"
         "                      pipeline with its own filter copies)\n"
         "  --admit-cap N       bounded admission queue; a full queue sheds\n"
         "                      the lowest-priority pending job (if the\n"
         "                      newcomer outranks it) or rejects (queue_full)\n"
         "  --tenant-pending N  per-tenant pending quota (quota_exceeded)\n"
         "  --tenant-running N  per-tenant running cap (jobs wait, not fail)\n"
         "  --deadline-pct P    percent of generated jobs given --deadline-ms\n"
         "                      wall deadlines; pending jobs past deadline\n"
         "                      fail, running ones cancel cooperatively\n"
         "  --est-ms N          cost-estimate scale per workload cost unit;\n"
         "                      estimates above the deadline are rejected as\n"
         "                      deadline_infeasible\n"
         "  --job-retries N     retry failed attempts with exponential\n"
         "                      backoff, fault seeds re-salted per attempt\n"
         "  --degrade-watermark N  backlog size past which low-priority jobs\n"
         "                      are admitted with coarsened quantization\n"
         "  --ckpt-dir DIR      per-job checkpoint manifests (job_<id>.ckpt,\n"
         "                      ownership-stamped) land here\n"
         "  --jobs-metrics FILE export the \"jobs\" section (schema\n"
         "                      h4d-jobs-v1): counters, per-tenant table,\n"
         "                      per-job rows; validated by check_metrics.py\n";
  return 2;
}

}  // namespace

int run(int argc, const char* const* argv, std::ostream& out, std::ostream& err) {
  if (argc < 2) return usage(err);
  const std::string cmd = argv[1];
  try {
    const Args args(argc, argv, 2);
    if (cmd == "phantom") return cmd_phantom(args, out);
    if (cmd == "import") return cmd_import(args, out);
    if (cmd == "info") return cmd_info(args, out);
    if (cmd == "analyze") return cmd_analyze(args, out);
    if (cmd == "simulate") return cmd_simulate(args, out);
    if (cmd == "serve") return cmd_serve(args, out);
    if (cmd == "jobs") return cmd_jobs(args, out);
    if (cmd == "scrub") return cmd_scrub(args, out);
    if (cmd == "repair") return cmd_repair(args, out);
    err << "unknown command: " << cmd << "\n";
    return usage(err);
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace h4d::cli
