// Parameters shared by every filter in one pipeline instantiation.
#pragma once

#include <algorithm>
#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unordered_set>

#include "haralick/roi_engine.hpp"
#include "io/dataset.hpp"
#include "io/fault.hpp"
#include "io/manifest.hpp"
#include "io/replica_set.hpp"
#include "io/resilient_reader.hpp"
#include "io/tail.hpp"
#include "io/tile_cache.hpp"
#include "nd/chunking.hpp"

namespace h4d::filters {

/// The settings of one run, declared once: core::PipelineConfig inherits
/// them (what a caller sets) and so does PipelineParams (what every filter
/// copy reads).
struct RunSettings {
  std::filesystem::path dataset_root;
  haralick::EngineConfig engine;

  /// IIC->TEXTURE chunk extents (paper Sec. 4.4).
  Vec4 texture_chunk{64, 64, 8, 8};

  /// IIC copies; texture chunks go to them round-robin by chunk id.
  int iic_copies = 1;
  /// HCC flushes a matrix packet each time this fraction of a chunk's ROIs
  /// has been processed (paper: 1/4 of a chunk).
  int packets_per_chunk = 4;

  /// Storage-fault handling of the RFR read path: retry budget, checksum
  /// verification, and what to do with irrecoverable slices.
  io::ResilienceConfig resilience;
  /// Storage nodes declared dead by the operator (--dead-nodes). Their RFR
  /// copies read nothing; slice ownership moves to the surviving replicas.
  /// Node directories found missing at open are added automatically; the
  /// union is the static dead list of the run's ReplicaSet.
  std::vector<int> dead_nodes;
  /// Deterministic fault injection (resilience drills / tests); a
  /// default-constructed config injects nothing.
  io::FaultConfig faults;

  /// Chunk-completion manifest file. Empty => no checkpointing. When set,
  /// the output filters durably record each chunk whose every feature value
  /// has been written; with `resume`, chunks already in the manifest are
  /// pruned from the work list before the run starts.
  std::filesystem::path checkpoint_path;
  bool resume = false;
  /// Job identity folded into the manifest's ownership token, with the
  /// dataset and the chunk-grid parameters. src/svc namespaces manifests per
  /// job and stamps the job id here, so resume refuses a manifest written
  /// by a different job or configuration instead of pruning the wrong
  /// chunks. Empty for solo runs: the token then covers only dataset +
  /// chunk-grid identity.
  std::string job_tag;

  /// Slice-cache knobs (--tile-cache-mb/--prefetch-depth).
  /// Disabled (budget 0) => no cache.
  io::TileCacheConfig cache;
  /// The cache instance the RFR readers go through. The service layer (or a
  /// bench harness) hands every job the process-wide shared instance; make()
  /// builds a private one for solo runs when `cache` is enabled.
  /// Fault-injected runs always get a private instance (or none): a
  /// deterministic drill must not be perturbed by slices another run cached.
  std::shared_ptr<io::TileCache> tile_cache;
  /// Tenant the cached bytes are accounted to (svc sets the job's tenant;
  /// empty => "local").
  std::string cache_tenant;

  /// Tail-tolerance knobs (--read-deadline-ms/--hedge-pct/
  /// --hedge-max-inflight): adaptive per-read deadlines, hedged replica
  /// reads, slow-node eviction. Disabled => RFR reads stay fully
  /// synchronous.
  io::TailConfig tail;
  /// Per-node read-latency statistics feeding deadlines/hedging. make()
  /// builds a private one when tail is on; svc passes its process-wide
  /// instance so a node's latency reputation spans jobs.
  std::shared_ptr<io::LatencyTracker> latency;
  /// I/O helper pool performing abandonable whole-slice fetches (private
  /// or svc-shared, like `latency`).
  std::shared_ptr<io::SliceFetchPool> io_pool;
};

/// Immutable, shared by all filter copies of one pipeline run: the run's
/// settings plus the state make() derives from them.
struct PipelineParams : RunSettings {
  PipelineParams() = default;
  PipelineParams(PipelineParams&&) = default;
  /// Queued fetches on `io_pool` hold a raw pointer to `fault_injector`, so
  /// the pool (and its worker threads) must go first; as a base member it
  /// would otherwise outlive this struct's own members.
  ~PipelineParams() { io_pool.reset(); }

  io::DatasetMeta meta;

  /// The overlapping chunk partition (derived; computed once via make()).
  /// With resume, completed chunks are already pruned from this list; their
  /// count is in `chunks_resumed`.
  std::vector<Chunk> chunks;
  std::int64_t chunks_resumed = 0;

  /// Shared fault machinery (derived by make()): one injector and one report
  /// aggregator per pipeline run, shared by every filter copy.
  std::shared_ptr<io::FaultInjector> fault_injector;
  std::shared_ptr<io::FaultReportSink> fault_sink;

  /// Replica placement / failover / node-health view of the dataset (derived
  /// by make(); always present). Slice ownership and read failover route
  /// around the static dead list, so a degraded run with r >= 2 produces
  /// byte-identical output.
  std::shared_ptr<io::ReplicaSet> replica_set;

  /// Checkpoint machinery (derived by make(); null without checkpoint_path).
  std::shared_ptr<io::ChunkManifest> manifest;
  std::shared_ptr<io::ChunkCompletionTracker> completion;

  /// Cache key of this dataset (derived by make()).
  std::uint64_t cache_dataset = 0;
  /// Planner prefetch hints: distinct slices in first-need order over the
  /// raster-scan chunk sequence (nd::raster_slice_order). Empty when
  /// the cache or prefetch is off.
  std::vector<SliceCoord> prefetch_slices;

  static std::shared_ptr<const PipelineParams> make(PipelineParams p) {
    p.chunks = partition_overlapping(p.meta.dims, p.texture_chunk, p.engine.roi_dims);
    if (!p.checkpoint_path.empty()) {
      const std::string owner = p.checkpoint_owner_token();
      std::unordered_set<std::int64_t> done;
      if (p.resume) {
        // Progress recorded for a different job or chunk grid must never
        // prune this run's work list: chunk ids are grid-relative, so a
        // stale manifest would silently skip the wrong chunks. Manifests
        // without a header (legacy, or damaged header) are accepted as
        // before — their CRC-tagged id lines still guard each record.
        const std::string found = io::ChunkManifest::load_owner(p.checkpoint_path);
        if (!found.empty() && found != owner) {
          throw std::runtime_error(
              "checkpoint manifest " + p.checkpoint_path.string() +
              " belongs to a different job/configuration (owner " + found +
              ", this run is " + owner +
              "); pass a fresh checkpoint path or turn resume off");
        }
        for (std::int64_t id : io::ChunkManifest::load(p.checkpoint_path)) done.insert(id);
      }
      // The tracker needs the full grid; build it before pruning. A fresh
      // (non-resume) run truncates any stale manifest.
      p.manifest = std::make_shared<io::ChunkManifest>(p.checkpoint_path, !p.resume, owner);
      p.completion = std::make_shared<io::ChunkCompletionTracker>(
          p.chunks, p.meta.dims, p.texture_chunk, p.engine.roi_dims,
          p.engine.features.count(), p.manifest, done);
      if (!done.empty()) {
        const auto before = p.chunks.size();
        std::erase_if(p.chunks, [&](const Chunk& c) { return done.count(c.id) != 0; });
        p.chunks_resumed = static_cast<std::int64_t>(before - p.chunks.size());
      }
    }
    if (p.faults.enabled()) p.fault_injector = std::make_shared<io::FaultInjector>(p.faults);
    p.fault_sink = std::make_shared<io::FaultReportSink>();

    // Tail layer: solo runs build private instances; the service layer
    // passes shared ones in (cross-job node reputation, one helper pool). A
    // fault-injected run never shares the pool: an abandoned fetch can
    // outlive the run on a shared pool's thread while it still holds this
    // run's raw injector pointer. A private pool, declared after the
    // injector, joins its threads before the injector is destroyed.
    if (p.tail.enabled()) {
      if (!p.latency) {
        p.latency = std::make_shared<io::LatencyTracker>(p.meta.storage_nodes);
      }
      if (!p.io_pool || p.fault_injector) {
        p.io_pool =
            std::make_shared<io::SliceFetchPool>(std::max(1, p.tail.helper_threads));
      }
    } else {
      p.latency = nullptr;
      p.io_pool = nullptr;
    }

    // Tile cache: solo runs build a private instance; the service layer (or
    // a bench harness) passes a shared one in. A fault-injected run never
    // shares: cached slices from another run would let a read that the
    // injected schedule dooms succeed, changing the degraded output.
    if (p.fault_injector) {
      p.tile_cache = p.cache.enabled() ? std::make_shared<io::TileCache>(p.cache) : nullptr;
    } else if (!p.tile_cache && p.cache.enabled()) {
      p.tile_cache = std::make_shared<io::TileCache>(p.cache);
    }
    if (p.tile_cache) {
      p.cache = p.tile_cache->config();
      p.cache_dataset = io::TileCache::dataset_key(p.dataset_root.string(), p.meta);
      if (p.cache.prefetch_depth > 0 && !p.fault_injector) {
        p.prefetch_slices = raster_slice_order(p.chunks);
      }
    }

    // Static dead list: operator-declared nodes plus node directories found
    // missing right now. The run plans around these; a slice none of whose
    // replicas survive is only tolerable under skip_and_fill.
    p.replica_set = std::make_shared<io::ReplicaSet>(p.dataset_root, p.meta, p.dead_nodes);
    if (p.resilience.policy != io::DegradePolicy::SkipAndFill) {
      p.replica_set->require_every_slice_covered();
    }
    return std::make_shared<const PipelineParams>(std::move(p));
  }

  /// Ownership token for the checkpoint manifest: CRC-32 over everything
  /// that determines chunk-id meaning (dataset, chunk grid, feature set)
  /// plus the job tag. Two runs share a manifest iff their tokens match.
  std::string checkpoint_owner_token() const {
    std::ostringstream s;
    s << dataset_root.string();
    for (int d = 0; d < kDims; ++d) s << '/' << meta.dims[d];
    for (int d = 0; d < kDims; ++d) s << '/' << engine.roi_dims[d];
    for (int d = 0; d < kDims; ++d) s << '/' << texture_chunk[d];
    s << '/' << engine.num_levels << '/' << engine.features.mask();
    if (!job_tag.empty()) s << '/' << job_tag;
    const std::string canon = s.str();
    std::ostringstream hex;
    hex << std::hex << io::crc32(canon.data(), canon.size());
    return hex.str();
  }

  /// IIC copy that owns a texture chunk (explicit distribution of chunks
  /// over IIC copies, round-robin by chunk id — paper Sec. 5.2).
  int iic_copy_of_chunk(std::int64_t chunk_id) const {
    return static_cast<int>(chunk_id % iic_copies);
  }

  Quantizer quantizer() const {
    return Quantizer(meta.value_min, meta.value_max, engine.num_levels);
  }
};

using ParamsPtr = std::shared_ptr<const PipelineParams>;

}  // namespace h4d::filters
