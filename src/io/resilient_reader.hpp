// Resilient slice access (resilience layer, part 2).
//
// Wraps a StorageNodeReader with the policies that keep a long out-of-core
// run alive through storage-layer faults:
//   * bounded retry with exponential backoff for transient failures
//     (failed opens, short reads);
//   * per-slice CRC-32 verification against the checksum recorded in the
//     node index at DiskDataset::create time, catching silent corruption;
//   * replica failover: with a ReplicaSet attached, a slice whose local copy
//     stays unreadable (or fails verification) is re-read from the next
//     replica node in rank order, with per-node health eviction — an error
//     only surfaces once *every* replica is exhausted;
//   * graceful degradation: fail_fast rethrows immediately, retry gives up
//     after the attempt budget, skip_and_fill substitutes a configurable
//     fill intensity for irrecoverable slices and records them in a
//     FaultReport so the run completes with a precise damage inventory.
//
// The verified read path fetches whole slice files (the checksum unit) and
// caches the most recent one, so the RFR filter's tile loop re-reads nothing.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "io/dataset.hpp"
#include "io/fault.hpp"
#include "io/tail.hpp"

namespace h4d::io {

class ReplicaSet;  // io/replica_set.hpp
class TileCache;   // io/tile_cache.hpp

/// A slice whose recorded CRC-32 did not match the bytes read back.
class ChecksumError : public std::runtime_error {
 public:
  ChecksumError(const std::string& file, std::int64_t t, std::int64_t z,
                std::uint32_t expected, std::uint32_t actual);

  std::int64_t t = 0;
  std::int64_t z = 0;
};

/// Bounded retry with exponential backoff.
struct RetryPolicy {
  int max_attempts = 4;          ///< total tries per slice (1 = no retry)
  double backoff_base_ms = 1.0;  ///< delay before the first retry
  double backoff_factor = 2.0;
  double backoff_max_ms = 50.0;  ///< cap on any single delay
  /// Total backoff budget across every attempt of one slice read (all
  /// replicas). Individual delays are clipped to whatever remains, so a
  /// many-replica, many-attempt read cannot accumulate unbounded sleep;
  /// clips are counted in FaultReport::backoffs_capped (mirroring the
  /// injector's stalls_capped).
  double total_backoff_cap_ms = 250.0;
  bool really_sleep = true;      ///< false: backoff is only accounted, not slept

  /// Delay before retry number `retry` (0-based): base * factor^retry,
  /// capped at backoff_max_ms. Exposed for tests of the bound.
  double backoff_ms(int retry) const;
  /// backoff_ms(retry) additionally clipped to the remaining total budget
  /// (total_backoff_cap_ms - spent_ms). Sets `clipped` when the budget
  /// shortened the delay. Exposed for tests of the budget.
  double capped_backoff_ms(int retry, double spent_ms, bool& clipped) const;
};

/// What to do with a slice that stays unreadable after the retry budget.
enum class DegradePolicy {
  FailFast,     ///< no retries; first error propagates
  Retry,        ///< retry with backoff; propagate after exhaustion
  SkipAndFill,  ///< retry, then substitute fill_value and record the slice
};

std::string_view degrade_policy_name(DegradePolicy p);
DegradePolicy degrade_policy_from_name(const std::string& name);

/// Full resilience configuration of one reader / pipeline run.
struct ResilienceConfig {
  DegradePolicy policy = DegradePolicy::FailFast;
  RetryPolicy retry;
  /// Verify per-slice CRC-32 on read when the index records one. Verified
  /// reads fetch whole slice files (the checksum unit).
  bool verify_checksums = true;
  /// Raw intensity substituted for irrecoverable slices under SkipAndFill.
  std::uint16_t fill_value = 0;
};

/// One slice given up on (SkipAndFill) — part of the damage inventory.
struct SkippedSlice {
  std::int64_t t = 0;
  std::int64_t z = 0;
  std::string reason;
};

/// Accounting of resilience behavior during a run. Plain data (copyable);
/// use FaultReportSink to aggregate across threads.
struct FaultReport {
  std::int64_t read_retries = 0;       ///< re-attempts after a failed read
  std::int64_t checksum_failures = 0;  ///< CRC mismatches observed
  std::int64_t slices_skipped = 0;     ///< slices degraded to fill_value
  std::int64_t slices_recovered = 0;   ///< slices that succeeded after >=1 retry
  std::int64_t replica_failovers = 0;  ///< reads rerouted to another replica
  std::int64_t nodes_evicted = 0;      ///< node health evictions triggered
  std::int64_t write_errors = 0;       ///< typed output-write failures observed
  /// Backoff delays clipped by RetryPolicy::total_backoff_cap_ms
  /// (bookkeeping, not a fault — excluded from clean()).
  std::int64_t backoffs_capped = 0;
  std::vector<SkippedSlice> skipped;   ///< exactly the irrecoverable slices

  void merge(const FaultReport& o);
  bool clean() const {
    return read_retries == 0 && checksum_failures == 0 && slices_skipped == 0 &&
           replica_failovers == 0 && nodes_evicted == 0 && write_errors == 0;
  }
  std::string summary() const;
};

/// Thread-safe aggregator shared by the filter copies of one pipeline run.
class FaultReportSink {
 public:
  void merge(const FaultReport& r) {
    std::lock_guard lk(mu_);
    agg_.merge(r);
  }
  FaultReport snapshot() const {
    std::lock_guard lk(mu_);
    return agg_;
  }

 private:
  mutable std::mutex mu_;
  FaultReport agg_;
};

/// Fault-tolerant view of one storage node. Not thread-safe (one per filter
/// copy, like StorageNodeReader); aggregate reports through the shared sink.
class ResilientReader {
 public:
  /// `injector`, `sink` and `replicas` are non-owning and may be nullptr.
  /// The local report is merged into `sink` on destruction. With `replicas`,
  /// reads that exhaust one replica fail over to the next node in the set's
  /// order; fallback readers are built lazily and are fault-injection-free
  /// (injected faults model the first-asked storage path).
  ResilientReader(StorageNodeReader reader, ResilienceConfig config,
                  FaultInjector* injector = nullptr, FaultReportSink* sink = nullptr,
                  ReplicaSet* replicas = nullptr);
  ~ResilientReader();

  ResilientReader(const ResilientReader&) = delete;
  ResilientReader& operator=(const ResilientReader&) = delete;

  const std::vector<SliceRef>& slices() const { return reader_.slices(); }
  const SliceRef* find_slice(std::int64_t t, std::int64_t z) const {
    return reader_.find_slice(t, z);
  }

  /// Read a 2D subregion of one local slice (same contract as
  /// StorageNodeReader::read_slice_region), applying the configured
  /// resilience. Returns true when real data was delivered, false when the
  /// slice was irrecoverable and `out` was filled with fill_value.
  bool read_slice_region(const SliceRef& slice, std::int64_t x0, std::int64_t y0,
                         std::int64_t w, std::int64_t h, std::uint16_t* out);

  /// Attach a shared tile cache (non-owning): cache-aside on the read path.
  /// Rectangles whose tiles are all resident are served without touching
  /// disk; whole-slice fills are inserted only after checksum verification
  /// succeeds (or when no fault injector is attached), so a corrupt slice
  /// is never cached and cached bytes are identical to a cache-off read.
  void attach_cache(TileCache* cache, std::uint64_t dataset_key, int tenant);

  /// Pull one whole slice into the attached cache ahead of demand. Never
  /// touches replica health, the fault report, or the skip list; errors are
  /// swallowed (the demand path will handle them with full resilience).
  /// Only active without a fault injector (deterministic fault drills must
  /// see the exact cache-off read schedule). Returns true when a disk read
  /// was issued and inserted.
  bool prefetch_slice(const SliceRef& slice);

  /// Attach the tail-tolerance layer (all non-owning; see io/tail.hpp):
  /// verified whole-slice reads go through `pool` with an adaptive per-read
  /// deadline and (when configured) a hedge to the next replica; completed
  /// attempt latencies feed `tracker`, and sustained breaches evict the
  /// slow node through the replica set with reason `slow`. Byte-identity is
  /// unaffected: the winner of a hedge is a CRC-verified whole slice, the
  /// same bytes any replica serves.
  void attach_tail(const TailConfig& config, LatencyTracker* tracker,
                   SliceFetchPool* pool);

  /// Resilience accounting local to this reader (monotonic; the RFR filter
  /// meters deltas between calls).
  const FaultReport& report() const { return report_; }

  /// I/O accounting. seeks_performed() sums the primary and every fallback
  /// reader; bytes_read() counts only bytes that reached the caller — a
  /// successful rectangle read counts its rectangle, a successful verified
  /// whole-slice fetch counts the slice once, and bytes moved by retried or
  /// failed-over attempts that ultimately failed count nothing (the raw
  /// attempt traffic is attempted_bytes_read()). Cache hits touch no disk
  /// and count nothing here (they land in cache_bytes_served()).
  std::int64_t seeks_performed() const;
  std::int64_t bytes_read() const { return delivered_bytes_; }
  std::int64_t attempted_bytes_read() const;

  /// Tile-cache accounting local to this reader (monotonic, tile-granular;
  /// metered as deltas like report()).
  std::int64_t cache_hits() const { return cache_hits_; }
  std::int64_t cache_misses() const { return cache_misses_; }
  std::int64_t cache_bytes_served() const { return cache_bytes_served_; }

  /// Tail-tolerance accounting local to this reader (monotonic; metered as
  /// deltas like report()). The shared LatencyTracker carries the exact
  /// run-global totals; these per-reader counts sum to the same values.
  std::int64_t tail_hedges_issued() const { return tail_hedges_issued_; }
  std::int64_t tail_hedges_won() const { return tail_hedges_won_; }
  std::int64_t tail_hedges_abandoned() const { return tail_hedges_abandoned_; }
  std::int64_t tail_reads_abandoned() const { return tail_reads_abandoned_; }
  std::int64_t tail_breaches() const { return tail_breaches_; }
  std::int64_t tail_slow_evictions() const { return tail_slow_evictions_; }

 private:
  /// One verified or plain read attempt through `reader`; throws on failure.
  void attempt_read(const StorageNodeReader& reader, const SliceRef& slice,
                    std::int64_t x0, std::int64_t y0, std::int64_t w, std::int64_t h,
                    std::uint16_t* out);
  void fill(std::int64_t w, std::int64_t h, std::uint16_t* out) const;
  /// Cache participation rule for one slice: whole-slice fills must be
  /// attempt-independent bytes, which holds when they are CRC-verified or
  /// when no fault injector can perturb them. (Injected corruption depends
  /// on the read length, so unverified injected reads bypass the cache.)
  bool cache_eligible(const SliceRef& slice) const {
    return cache_ != nullptr &&
           ((cfg_.verify_checksums && slice.has_crc) || injector_ == nullptr);
  }
  void extract_rect(const std::uint8_t* slice_bytes, std::int64_t x0, std::int64_t y0,
                    std::int64_t w, std::int64_t h, std::uint16_t* out) const;
  /// Reader for one replica node (the wrapped one, or a lazily-built
  /// fallback). Returns nullptr when the fallback cannot be opened (missing
  /// directory or index), with the reason in `error`.
  const StorageNodeReader* reader_for(int node, std::string& error);

  /// Tail path applies to the whole-slice fetch unit only: verified slices
  /// always; unverified only when no injector can perturb the bytes (the
  /// same attempt-independence rule as cache_eligible).
  bool tail_eligible(const SliceRef& slice) const {
    return tail_pool_ != nullptr && tail_tracker_ != nullptr && tail_cfg_.enabled() &&
           ((cfg_.verify_checksums && slice.has_crc) || injector_ == nullptr);
  }
  /// Hedged / deadline-bounded whole-slice fetch through the helper pool.
  /// On success fills cached_bytes_/cached_slice_ (and the tile cache) and
  /// returns true; on failure or deadline exhaustion returns false and the
  /// caller falls back to the synchronous path. `last_error` carries the
  /// most recent failure reason.
  bool hedged_fetch(const SliceRef& slice, const std::vector<int>& order,
                    std::string& last_error);
  /// Latency/breach bookkeeping for a completed or breached primary read.
  void note_tail_breach(int node);

  StorageNodeReader reader_;
  ResilienceConfig cfg_;
  FaultInjector* injector_;
  FaultReportSink* sink_;
  ReplicaSet* replicas_;
  std::map<int, StorageNodeReader> fallbacks_;  ///< other replica nodes, lazy
  FaultReport report_;

  TileCache* cache_ = nullptr;  ///< shared tile cache (non-owning, optional)
  std::uint64_t cache_dataset_ = 0;
  int cache_tenant_ = 0;
  std::int64_t cache_hits_ = 0;
  std::int64_t cache_misses_ = 0;
  std::int64_t cache_bytes_served_ = 0;
  std::int64_t delivered_bytes_ = 0;  ///< bytes that reached the caller

  // Tail-tolerance layer (attach_tail; all non-owning, shared run-wide).
  TailConfig tail_cfg_;
  LatencyTracker* tail_tracker_ = nullptr;
  SliceFetchPool* tail_pool_ = nullptr;
  std::int64_t tail_hedges_issued_ = 0;
  std::int64_t tail_hedges_won_ = 0;
  std::int64_t tail_hedges_abandoned_ = 0;
  std::int64_t tail_reads_abandoned_ = 0;
  std::int64_t tail_breaches_ = 0;
  std::int64_t tail_slow_evictions_ = 0;
  std::int64_t pool_seeks_ = 0;           ///< seeks by observed pooled fetches
  std::int64_t pool_attempted_bytes_ = 0; ///< raw bytes observed pooled fetches moved

  // Whole-slice cache for the verified path (one slice: the RFR tile loop
  // visits tiles of a slice consecutively).
  std::vector<std::uint8_t> cached_bytes_;
  std::int64_t cached_slice_ = -1;
  std::vector<std::int64_t> failed_slices_;  ///< already given up on (dedup)
};

}  // namespace h4d::io
