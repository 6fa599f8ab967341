#include "core/analysis.hpp"

#include <limits>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "fs/executor_threads.hpp"
#include "nd/quantize.hpp"

namespace h4d::core {

namespace {

/// Fill RunStats.cache from the run's summed copy meters plus the cache
/// instance itself (configuration echo and end-of-run occupancy).
void fill_cache_report(fs::RunStats& stats, const filters::ParamsPtr& params) {
  if (!params->tile_cache) return;
  fs::CacheReport& c = stats.cache = cache_report(params->cache);
  for (const fs::CopyStats& copy : stats.copies) {
    c.hits += copy.meter.cache_hits;
    c.misses += copy.meter.cache_misses;
    c.bytes_read_disk += copy.meter.disk_bytes_read;
    c.bytes_served_cache += copy.meter.cache_bytes_served;
    c.prefetch_issued += copy.meter.prefetch_issued;
    c.prefetch_useful += copy.meter.prefetch_useful;
    c.evictions += copy.meter.cache_evictions;
  }
  c.lookups = c.hits + c.misses;
  c.resident_bytes = params->tile_cache->resident_bytes();
}

/// The epilogue both executors share: hand over the collected maps and
/// attach the run's fault, resume, cache and tail accounting to `stats`.
AnalysisResult finish(std::shared_ptr<filters::CollectedResults> collected,
                      const filters::ParamsPtr& params, const fs::RunStats& stats) {
  AnalysisResult r;
  r.origins = roi_origin_region(params->meta.dims, params->engine.roi_dims);
  {
    std::lock_guard lk(collected->mu);
    r.maps = std::move(collected->maps);
    r.ranges = std::move(collected->ranges);
  }
  r.faults = params->fault_sink->snapshot();
  r.stats = stats;
  r.stats.exec.chunks_resumed = params->chunks_resumed;
  r.stats.exec.replica_failovers = r.faults.replica_failovers;
  r.stats.exec.nodes_evicted = r.faults.nodes_evicted;
  fill_cache_report(r.stats, params);
  if (params->latency && params->tail.enabled()) {
    r.stats.tail = tail_report(params->tail, *params->latency, params->replica_set.get(),
                               /*skip_idle_nodes=*/false);
  }
  return r;
}

}  // namespace

fs::CacheReport cache_report(const io::TileCacheConfig& cache) {
  fs::CacheReport c;
  c.present = true;
  c.budget_bytes = cache.budget_bytes;
  c.prefetch_depth = cache.prefetch_depth;
  return c;
}

fs::TailReport tail_report(const io::TailConfig& tail, const io::LatencyTracker& latency,
                           const io::ReplicaSet* replicas, bool skip_idle_nodes) {
  fs::TailReport t;
  t.present = true;
  t.deadline_mode =
      !tail.deadline_enabled ? "off" : (tail.deadline_ms > 0.0 ? "fixed" : "auto");
  t.deadline_ms = tail.deadline_ms;
  t.deadline_k = tail.deadline_k;
  t.deadline_floor_ms = tail.deadline_floor_ms;
  t.deadline_ceiling_ms = tail.deadline_ceiling_ms;
  t.hedge_enabled = tail.hedge_enabled;
  t.hedge_pct = tail.hedge_pct;
  t.hedge_max_inflight = tail.hedge_max_inflight;
  t.hedges_issued = latency.hedges_issued.load();
  t.hedges_won = latency.hedges_won.load();
  t.hedges_abandoned = latency.hedges_abandoned.load();
  t.reads_abandoned = latency.reads_abandoned.load();
  t.breaches = latency.breaches.load();
  t.evictions_slow = latency.evictions_slow.load();
  for (const io::NodeLatencyStats& n : latency.snapshot()) {
    if (skip_idle_nodes && n.reads == 0 && n.breaches == 0) continue;
    t.reads += n.reads;
    t.nodes.push_back({n.node, n.reads, n.ewma_ms, n.p50_ms, n.p99_ms, n.breaches});
  }
  if (replicas != nullptr) {
    for (const io::EvictionEvent& e : replicas->eviction_events()) {
      t.evictions.push_back({e.node, std::string(io::evict_reason_name(e.reason))});
    }
  }
  return t;
}

AnalysisResult analyze_in_memory(const Volume4<std::uint16_t>& volume,
                                 const haralick::EngineConfig& engine) {
  const Volume4<Level> levels = quantize_volume(volume, engine.num_levels);
  const auto blocks = haralick::analyze_volume(levels, engine);

  AnalysisResult r;
  r.origins = roi_origin_region(volume.dims(), engine.roi_dims);
  for (const auto& b : blocks) {
    Volume4<float> map = haralick::assemble_feature_map({&b}, r.origins);
    float lo = std::numeric_limits<float>::infinity();
    float hi = -lo;
    for (float v : map.storage()) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    r.ranges.emplace(b.feature, std::pair<float, float>(lo, hi));
    r.maps.emplace(b.feature, std::move(map));
  }
  return r;
}

AnalysisResult analyze_threaded(PipelineConfig config,
                                const fs::ThreadedOptions& threaded_options) {
  config.output = OutputMode::Collect;
  auto collected = std::make_shared<filters::CollectedResults>();
  const filters::ParamsPtr params = make_params(config);
  const fs::FilterGraph graph = build_pipeline(config, params, collected);
  fs::RunStats stats = fs::run_threaded(graph, threaded_options);
#if defined(__GLIBC__)
  // Each filter thread allocated in its own glibc arena, and what it freed
  // stays there when the thread exits; the next run's threads draw arenas
  // in another order, so the retained memory is not reused and the peak
  // grows from run to run. Hand it back to the system once per run.
  malloc_trim(0);
#endif
  return finish(collected, params, std::move(stats));
}

AnalysisResult analyze_simulated(PipelineConfig config, const sim::SimOptions& sim_options) {
  config.output = OutputMode::Collect;
  auto collected = std::make_shared<filters::CollectedResults>();
  const filters::ParamsPtr params = make_params(config);
  const fs::FilterGraph graph = build_pipeline(config, params, collected);
  sim::SimStats stats = sim::run_simulated(graph, sim_options);
  AnalysisResult r = finish(collected, params, stats);
  r.sim = std::move(stats);
  return r;
}

}  // namespace h4d::core
