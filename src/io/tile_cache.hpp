// Process-wide out-of-core slice cache shared across readers and jobs.
//
// The chunk planner (paper Eqs. 1-2) deliberately overlaps chunks by the
// ghost margin, and the multi-tenant service layer multiplies that cost:
// every job re-reads the same slices from disk. The TileCache sits between
// ResilientReader / RawFileReader and the raw slice files and keeps
// recently read slices in a memory-budgeted store, so a re-analysis
// workload (same volume, shifted ROI) and concurrent jobs over one dataset
// pay disk I/O once.
//
//   * An entry is one whole slice, keyed by (dataset key, t, z): the unit
//     the readers fetch, the CRC-32 checksum covers, and the RFR filter
//     ships (paper Sec. 4.3.1). Entries hold the slice's *raw* dtype bytes
//     and are widened to uint16 on serve exactly like the disk path, so
//     served bytes are bit-identical to a fresh read.
//   * The cache-aside fill verifies before insert, so a corrupt slice is
//     never cached (see ResilientReader::attempt_read).
//   * One mutex guards one map and one global LRU list. A demand read makes
//     one probe per slice, so the lock is cold; a single budget also means
//     any slice the whole budget holds can be cached.
//   * Per-tenant accounting: hits/misses/served/resident bytes are tracked
//     per interned tenant id for the service layer's budget reports.
//
// Byte-identity contract: the cache only ever stores slices that either
// passed CRC-32 verification or were read with no fault injector attached,
// so a served slice is always the same bytes a cache-off read would have
// delivered. See docs/CACHE.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "io/dataset.hpp"

namespace h4d::io {

/// Configuration of one TileCache instance (--tile-cache-mb,
/// --prefetch-depth).
struct TileCacheConfig {
  /// Total memory budget in bytes; 0 disables the cache entirely.
  std::int64_t budget_bytes = 0;
  /// Slices the per-copy prefetcher may run ahead of the demand loop
  /// (0 = prefetch off). Driven by the planner's raster-scan chunk order.
  int prefetch_depth = 2;

  bool enabled() const { return budget_bytes > 0; }
};

/// Monotonic whole-cache accounting (stats snapshot).
struct TileCacheStats {
  std::int64_t lookups = 0;  ///< hits + misses, by construction
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t bytes_served = 0;
  std::int64_t evictions = 0;
  std::int64_t prefetch_issued = 0;  ///< slices inserted by prefetch fills
  std::int64_t prefetch_useful = 0;  ///< prefetched slices later demand-hit
  std::int64_t resident_bytes = 0;
  std::int64_t resident_slices = 0;
};

/// Per-tenant slice of the accounting (service layer budget reports).
struct TenantCacheStats {
  std::string tenant;
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t bytes_served = 0;
  std::int64_t resident_bytes = 0;
};

/// Thread-safe, memory-budgeted slice cache. One instance is typically
/// shared process-wide (svc::JobManager::Options::tile_cache); solo runs
/// build a private instance per pipeline (PipelineParams::make).
class TileCache {
 public:
  explicit TileCache(TileCacheConfig config);

  TileCache(const TileCache&) = delete;
  TileCache& operator=(const TileCache&) = delete;

  /// Effective configuration (a negative budget is clamped to 0).
  const TileCacheConfig& config() const { return cfg_; }

  /// Stable key of one dataset: FNV-1a over the root path, dims, and dtype.
  /// Distinguishes datasets sharing a process-wide cache; two opens of the
  /// same root agree.
  static std::uint64_t dataset_key(const std::string& root, const DatasetMeta& meta);

  /// Intern a tenant name for per-tenant accounting. The empty name maps to
  /// "local" (solo runs). Returns a stable id; cheap to call repeatedly.
  int tenant_id(const std::string& name);

  /// Serve slice (t, z) into `out` (meta.dims[0] * meta.dims[1] uint16
  /// values, widened exactly like the disk path) if it is resident. One
  /// probe: counts one hit (plus the slice's bytes served) or one miss.
  bool read_slice(std::uint64_t dataset, const DatasetMeta& meta, std::int64_t t,
                  std::int64_t z, std::uint16_t* out, int tenant);

  /// Insert one whole slice (`bytes` = meta.slice_bytes() raw dtype bytes,
  /// already verified by the caller). A resident copy is kept; a slice
  /// larger than the whole budget is skipped. `prefetched` marks the entry
  /// for the prefetch_issued/useful accounting.
  void insert_slice(std::uint64_t dataset, const DatasetMeta& meta, std::int64_t t,
                    std::int64_t z, const std::uint8_t* bytes, bool prefetched,
                    int tenant);

  /// Is slice (t, z) resident? Does not touch recency state (the
  /// prefetcher's skip test).
  bool contains(std::uint64_t dataset, std::int64_t t, std::int64_t z) const;

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
  struct SliceKey {
    std::uint64_t dataset = 0;
    std::int64_t t = 0, z = 0;
    bool operator==(const SliceKey& o) const {
      return dataset == o.dataset && t == o.t && z == o.z;
    }
  };
  struct SliceKeyHash {
    std::size_t operator()(const SliceKey& k) const;
  };
  struct Entry {
    std::vector<std::uint8_t> bytes;  ///< the slice's raw dtype bytes
    bool prefetched = false;          ///< inserted by prefetch, not yet hit
    int tenant = 0;
    std::list<SliceKey>::iterator pos;  ///< position in the LRU list
  };
  struct TenantCounters {
    std::string name;
    std::atomic<std::int64_t> hits{0};
    std::atomic<std::int64_t> misses{0};
    std::atomic<std::int64_t> bytes_served{0};
    std::atomic<std::int64_t> resident{0};
  };

  /// Evict least-recently-used slices until `need` more bytes fit the
  /// budget. Caller holds mu_.
  void make_room(std::int64_t need);
  TenantCounters& tenant(int id);

  TileCacheConfig cfg_;
  mutable std::mutex mu_;
  std::unordered_map<SliceKey, Entry, SliceKeyHash> map_;
  std::list<SliceKey> order_;  ///< front = most recently used
  std::int64_t resident_ = 0;

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
