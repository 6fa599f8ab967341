// Process-wide out-of-core tile cache shared across readers and jobs.
//
// The chunk planner (paper Eqs. 1-2) deliberately overlaps chunks by the
// ghost margin, and the multi-tenant service layer multiplies that cost:
// every job re-reads the same slices from disk. The TileCache sits between
// ResilientReader / RawFileReader and the raw slice files and keeps
// fixed-shape tiles of recently read slices in a memory-budgeted store, so
// a re-analysis workload (same volume, shifted ROI) and concurrent jobs
// over one dataset pay disk I/O once.
//
//   * Tiles are x/y sub-rectangles of one slice (z and t extents are 1 — a
//     tile never spans slices, matching the on-disk slice-per-file layout),
//     keyed by (dataset key, t, z, tile grid coordinates). Entries hold the
//     slice's *raw* dtype bytes; rectangles are widened to uint16 on serve,
//     exactly like the disk path, so served bytes are bit-identical to a
//     fresh read.
//   * The fill unit is a whole verified slice: one disk read inserts all of
//     the slice's tiles. That matches the CRC-32 checksum unit, so the
//     cache-aside fill can verify before insert and a corrupt slice is
//     never cached (see ResilientReader::attempt_read).
//   * Lookups are sharded-lock: a tile's shard is a hash of its key, each
//     shard holds budget/shards bytes, so concurrent filter copies and
//     concurrent svc::JobManager jobs share one cache without serializing
//     and the global budget is never exceeded.
//   * Eviction is least-recently-used per shard.
//   * Per-tenant accounting: hits/misses/served/resident bytes are tracked
//     per interned tenant id for the service layer's budget reports.
//
// Byte-identity contract: the cache only ever stores whole-slice fills that
// either passed CRC-32 verification or were read with no fault injector
// attached, so a served tile is always the same bytes a cache-off read
// would have delivered. See docs/CACHE.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "io/dataset.hpp"

namespace h4d::io {

/// Configuration of one TileCache instance (--tile-cache-mb, --tile-shape,
/// --prefetch-depth).
struct TileCacheConfig {
  /// Total memory budget in bytes; 0 disables the cache entirely.
  std::int64_t budget_bytes = 0;
  /// Tile extents within a slice (x, y). Tiles at the slice edge are
  /// clipped, never padded.
  std::int64_t tile_w = 64;
  std::int64_t tile_h = 64;
  /// Slices the per-copy prefetcher may run ahead of the demand loop
  /// (0 = prefetch off). Driven by the planner's raster-scan chunk order.
  int prefetch_depth = 2;
  /// Lock shards. The constructor clamps this so every shard's budget holds
  /// at least one full tile; tests pin eviction order with shards = 1.
  int shards = 8;

  bool enabled() const { return budget_bytes > 0; }
};

/// Per-call tile accounting returned by read_rect (the reader meters these
/// as deltas into its copy's WorkMeter).
struct TileRectStats {
  std::int64_t hits = 0;          ///< tile probes that found the tile
  std::int64_t misses = 0;        ///< tile probes that did not
  std::int64_t bytes_served = 0;  ///< raw dtype bytes delivered on a full hit
};

/// Monotonic whole-cache accounting (stats snapshot).
struct TileCacheStats {
  std::int64_t lookups = 0;  ///< hits + misses, by construction
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t bytes_served = 0;
  std::int64_t evictions = 0;
  std::int64_t prefetch_issued = 0;  ///< tiles inserted by prefetch fills
  std::int64_t prefetch_useful = 0;  ///< prefetched tiles later demand-hit
  std::int64_t resident_bytes = 0;
  std::int64_t resident_tiles = 0;
};

/// Per-tenant slice of the accounting (service layer budget reports).
struct TenantCacheStats {
  std::string tenant;
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t bytes_served = 0;
  std::int64_t resident_bytes = 0;
};

/// Thread-safe, memory-budgeted tile cache. One instance is typically
/// shared process-wide (svc::JobManager::Options::tile_cache); solo runs
/// build a private instance per pipeline (PipelineParams::make).
class TileCache {
 public:
  explicit TileCache(TileCacheConfig config);

  TileCache(const TileCache&) = delete;
  TileCache& operator=(const TileCache&) = delete;

  /// Effective configuration (shards may have been clamped to the budget).
  const TileCacheConfig& config() const { return cfg_; }

  /// Stable key of one dataset: FNV-1a over the root path, dims, and dtype.
  /// Distinguishes datasets sharing a process-wide cache; two opens of the
  /// same root agree.
  static std::uint64_t dataset_key(const std::string& root, const DatasetMeta& meta);

  /// Intern a tenant name for per-tenant accounting. The empty name maps to
  /// "local" (solo runs). Returns a stable id; cheap to call repeatedly.
  int tenant_id(const std::string& name);

  /// Serve rectangle [x0, x0+w) x [y0, y0+h) of slice (t, z) into `out`
  /// (row-major uint16, exactly like StorageNodeReader::read_slice_region)
  /// if *every* covering tile is resident. Returns true on a full hit.
  /// Every tile probe counts one hit or one miss in `stats` (probing stops
  /// at the first miss); bytes_served accrues only on a full hit.
  bool read_rect(std::uint64_t dataset, const DatasetMeta& meta, std::int64_t t,
                 std::int64_t z, std::int64_t x0, std::int64_t y0, std::int64_t w,
                 std::int64_t h, std::uint16_t* out, int tenant, TileRectStats& stats);

  /// Insert every tile of one whole slice (`bytes` = meta.slice_bytes() raw
  /// dtype bytes, already verified by the caller). Tiles already resident
  /// are kept; `prefetched` marks tiles for the prefetch_issued/useful
  /// accounting.
  void insert_slice(std::uint64_t dataset, const DatasetMeta& meta, std::int64_t t,
                    std::int64_t z, const std::uint8_t* bytes, bool prefetched,
                    int tenant);

  /// Every tile of slice (t, z) resident? Does not touch recency state
  /// (the prefetcher's skip test).
  bool slice_fully_cached(std::uint64_t dataset, const DatasetMeta& meta,
                          std::int64_t t, std::int64_t z) const;

  TileCacheStats stats() const;
  std::vector<TenantCacheStats> tenant_stats() const;
  std::int64_t resident_bytes() const;

  /// Drain the not-yet-metered share of the cache-global counters
  /// (evictions, prefetch_issued, prefetch_useful) into the out-params.
  /// Each filter copy drains at the end of its run, so the counters land in
  /// exactly one WorkMeter and totals are conserved across copies and jobs.
  void drain_unmetered(std::int64_t& evictions, std::int64_t& prefetch_issued,
                       std::int64_t& prefetch_useful);

 private:
  struct TileKey {
    std::uint64_t dataset = 0;
    std::int64_t t = 0, z = 0, xi = 0, yi = 0;
    bool operator==(const TileKey& o) const {
      return dataset == o.dataset && t == o.t && z == o.z && xi == o.xi && yi == o.yi;
    }
  };
  struct TileKeyHash {
    std::size_t operator()(const TileKey& k) const;
  };
  struct Entry {
    std::vector<std::uint8_t> bytes;  ///< ew x eh raw dtype elements, row-major
    std::int64_t ew = 0, eh = 0;      ///< clipped tile extents
    bool prefetched = false;          ///< inserted by prefetch, not yet hit
    int tenant = 0;
    std::list<TileKey>::iterator pos;  ///< position in the shard's order list
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<TileKey, Entry, TileKeyHash> map;
    std::list<TileKey> order;  ///< front = most recently used
    std::int64_t resident = 0;
  };
  struct TenantCounters {
    std::string name;
    std::atomic<std::int64_t> hits{0};
    std::atomic<std::int64_t> misses{0};
    std::atomic<std::int64_t> bytes_served{0};
    std::atomic<std::int64_t> resident{0};
  };

  Shard& shard_of(const TileKey& k);
  const Shard& shard_of(const TileKey& k) const;
  /// Evict least-recently-used tiles until `need` more bytes fit in `s`.
  /// Caller holds s.mu.
  void make_room(Shard& s, std::int64_t need);
  void evict_entry(Shard& s, std::list<TileKey>::iterator victim);
  TenantCounters& tenant(int id);

  TileCacheConfig cfg_;
  std::int64_t shard_budget_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex tenants_mu_;
  std::deque<TenantCounters> tenants_;  ///< deque: stable addresses on growth

  // Monotonic totals (stats snapshots) and their not-yet-metered share
  // (drained into WorkMeters; see drain_unmetered).
  std::atomic<std::int64_t> hits_{0}, misses_{0}, bytes_served_{0};
  std::atomic<std::int64_t> evictions_{0}, prefetch_issued_{0}, prefetch_useful_{0};
  std::atomic<std::int64_t> pending_evictions_{0}, pending_prefetch_issued_{0},
      pending_prefetch_useful_{0};
};

}  // namespace h4d::io
