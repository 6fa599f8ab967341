// Tail-tolerant I/O (resilience layer, part 3): gray-failure detection.
//
// PR 5's failover handles nodes that *die* and PR 1's checksums handle bytes
// that *rot*, but a storage node that merely turns *slow* (a gray failure:
// overloaded disk, degraded RAID, throttled VM) still stalls every read
// routed to it — ResilientReader blocks until the read returns, the
// prefetcher queues behind it, and a whole-pipeline job burns its wall
// deadline doing nothing. This module closes that gap with the classic
// tail-at-scale toolkit:
//
//   * LatencyTracker — per-node read-latency statistics (EWMA + fixed-bucket
//     percentile histogram), fed from every completed ResilientReader
//     attempt. One tracker is shared by every reader of a run (and across
//     jobs under `h4d serve`), so a node's reputation is global.
//   * Adaptive per-read deadlines — deadline = clamp(k x node p99, floor,
//     ceiling). Until a node has `min_samples` observations the ceiling
//     applies (a cold tracker must not abandon healthy reads).
//   * SliceFetchPool — a small I/O helper-thread pool that performs
//     whole-slice verified fetches on behalf of ResilientReader, so a read
//     that blows its deadline can be *abandoned in-flight* (the helper
//     thread keeps draining it; the waiter moves on) instead of joined.
//   * Hedged reads — when the primary replica exceeds the node's hedge
//     threshold (the hedge_pct percentile of its own history), the same
//     slice read is issued to the next node in replica_order and the first
//     CRC-verified result wins; the loser is cancelled if not yet started,
//     drained otherwise. Duplicate fills are deduplicated by TileCache
//     keying (insert_slice keeps a resident slice), so hedging never
//     changes delivered bytes.
//   * Slow-node eviction — `slow_after` consecutive breaches (a deadline
//     expiry or a lost hedge) evict the node through the existing
//     ReplicaSet health machinery with reason `slow`, using the same
//     probation / probe re-admission path as failure evictions.
//
// Everything here is observability-first: per-node latency and the global
// hedge counters surface in the WorkMeter and the `io_tail` section of both
// export schemas (docs/TAIL.md, docs/OBSERVABILITY.md).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "io/dataset.hpp"

namespace h4d::io {

class FaultInjector;  // io/fault.hpp

/// Tail-tolerance knobs (--read-deadline-ms, --hedge-pct,
/// --hedge-max-inflight). Default-constructed = fully off: the reader takes
/// the plain synchronous path and never touches the helper pool.
struct TailConfig {
  /// Per-read deadlines on. deadline_ms > 0 pins a fixed deadline;
  /// deadline_ms == 0 means adaptive ("auto"): clamp(k x p99, floor, ceil).
  bool deadline_enabled = false;
  double deadline_ms = 0.0;
  double deadline_k = 3.0;
  double deadline_floor_ms = 5.0;
  double deadline_ceiling_ms = 500.0;

  /// Hedged reads on. The hedge threshold for a node is the hedge_pct
  /// percentile of its own latency history (floored at hedge_floor_ms; the
  /// floor alone applies while the node history is cold).
  bool hedge_enabled = false;
  double hedge_pct = 95.0;
  double hedge_floor_ms = 1.0;
  /// Global cap on concurrently outstanding hedge reads (resource bound:
  /// a cluster-wide slow node must not double every in-flight read).
  int hedge_max_inflight = 4;

  /// I/O helper threads performing abandonable fetches.
  int helper_threads = 4;
  /// Observations a node needs before its p99 drives deadlines/hedging.
  int min_samples = 8;
  /// Consecutive breaches (deadline expiry or lost hedge) that evict a node
  /// as `slow` through ReplicaSet.
  int slow_after = 3;

  bool enabled() const { return deadline_enabled || hedge_enabled; }
};

/// One node's latency statistics snapshot (io_tail per-node row).
struct NodeLatencyStats {
  int node = 0;
  std::int64_t reads = 0;
  double ewma_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::int64_t breaches = 0;  ///< deadline expiries + lost hedges, cumulative
};

/// Per-storage-node read-latency tracking plus the run-global tail counters.
/// Thread-safe; one instance is shared by every reader of a run (and by all
/// jobs of a JobManager, like the TileCache).
class LatencyTracker {
 public:
  explicit LatencyTracker(int nodes);

  /// Record one completed read attempt against `node` (service time).
  void record(int node, double ms);

  /// Record a breach (deadline expiry or lost hedge) against `node`.
  /// Returns true when this is the `slow_after`-th consecutive breach — the
  /// caller should evict the node as slow; the streak resets so probe
  /// re-admission starts a fresh count.
  bool note_breach(int node, int slow_after);
  /// A primary read beat its thresholds: reset the node's breach streak.
  void note_on_time(int node);

  /// Histogram percentile (q in [0, 1]) of the node's recorded latencies;
  /// 0 while the node has no history.
  double percentile_ms(int node, double q) const;
  double ewma_ms(int node) const;
  std::int64_t reads(int node) const;

  /// Adaptive deadline for one read from `node`: the fixed deadline when
  /// pinned, else clamp(k x p99, floor, ceiling); the ceiling while the
  /// node's history is cold (< min_samples).
  double deadline_for(int node, const TailConfig& cfg) const;
  /// Hedge threshold for `node`: max(hedge_floor_ms, hedge_pct percentile),
  /// the floor alone while cold.
  double hedge_delay_for(int node, const TailConfig& cfg) const;

  /// Reserve a hedge slot (global inflight cap). Balanced by end_hedge().
  bool try_begin_hedge(int max_inflight);
  void end_hedge();

  std::vector<NodeLatencyStats> snapshot() const;

  /// Run-global tail counters (exact totals for the io_tail export section;
  /// the per-copy WorkMeter deltas sum to the same values).
  std::atomic<std::int64_t> hedges_issued{0};
  std::atomic<std::int64_t> hedges_won{0};      ///< hedge finished first
  std::atomic<std::int64_t> hedges_abandoned{0};  ///< losers cancelled/drained
  std::atomic<std::int64_t> reads_abandoned{0};   ///< deadline expiries
  std::atomic<std::int64_t> breaches{0};
  std::atomic<std::int64_t> evictions_slow{0};

 private:
  // Fixed-bucket latency histogram: bucket i covers latencies up to
  // kBucketBase * kBucketGrowth^i ms. 56 buckets span ~0.05 ms .. ~13 s.
  static constexpr int kBuckets = 56;
  static constexpr double kBucketBase = 0.05;
  static constexpr double kBucketGrowth = 1.25;
  static int bucket_of(double ms);
  static double bucket_upper(int i);

  struct Node {
    std::int64_t count = 0;
    double ewma_ms = 0.0;
    std::int64_t breaches = 0;
    int breach_streak = 0;
    std::int64_t hist[kBuckets] = {};
  };

  double percentile_locked(const Node& n, double q) const;

  mutable std::mutex mu_;
  std::vector<Node> nodes_;
  std::atomic<int> hedges_inflight_{0};
};

/// Result of one pooled whole-slice fetch.
struct FetchResult {
  bool ok = false;
  bool crc_failed = false;   ///< failed CRC-32 verification (ok == false)
  std::string error;         ///< failure reason (ok == false)
  std::vector<std::uint8_t> bytes;  ///< verified raw slice bytes (ok == true)
  double service_ms = 0.0;   ///< worker-side service time of the read
  std::int64_t bytes_read = 0;  ///< raw bytes the attempt moved
};

/// Completion event shared by the tickets of one hedged read, so the waiter
/// sleeps on a single condition however many fetches are in flight.
class FetchEvent {
 public:
  void signal();
  /// Wait until the completion count exceeds `seen` or `deadline` passes.
  /// Returns the current completion count.
  int wait_until(std::chrono::steady_clock::time_point deadline, int seen);

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int completions_ = 0;
};

/// Handle to one in-flight pooled fetch. The submitting reader may abandon
/// it at any time: an abandoned ticket that has not started is skipped
/// (cancelled); one already running is drained by its helper thread and the
/// result discarded. The shared_ptr keeps the state alive either way.
class FetchTicket {
 public:
  bool done() const {
    std::lock_guard lk(mu_);
    return done_;
  }
  /// Valid only once done(). The waiter moves the bytes out.
  FetchResult& result() { return result_; }
  void abandon() { abandoned_.store(true, std::memory_order_release); }
  bool abandoned() const { return abandoned_.load(std::memory_order_acquire); }

 private:
  friend class SliceFetchPool;
  mutable std::mutex mu_;
  bool done_ = false;
  std::atomic<bool> abandoned_{false};
  FetchResult result_;
  std::shared_ptr<FetchEvent> event_;
};

/// Small I/O helper-thread pool performing whole-slice verified fetches.
/// Each helper thread keeps its own StorageNodeReader per node directory, so
/// an abandoned fetch can keep running without sharing mutable reader state
/// with the submitting ResilientReader (which is single-threaded by design).
class SliceFetchPool {
 public:
  struct Request {
    std::filesystem::path node_dir;
    DatasetMeta meta;
    int node = -1;
    SliceRef slice;
    /// Consulted by the helper thread exactly like the synchronous path
    /// (injected faults model the first-asked storage path, so hedge
    /// requests to other replicas pass nullptr). Must outlive the run.
    FaultInjector* injector = nullptr;
    /// Verify the slice's CRC-32 before reporting ok (first *verified*
    /// result wins a hedge).
    bool verify = false;
  };

  explicit SliceFetchPool(int threads);
  ~SliceFetchPool();

  SliceFetchPool(const SliceFetchPool&) = delete;
  SliceFetchPool& operator=(const SliceFetchPool&) = delete;

  /// Enqueue one fetch; `event` (optional) is signalled on completion.
  std::shared_ptr<FetchTicket> submit(Request req, std::shared_ptr<FetchEvent> event);

  int threads() const { return static_cast<int>(workers_.size()); }

 private:
  struct Task {
    Request req;
    std::shared_ptr<FetchTicket> ticket;
  };

  void worker_loop();
  static void execute(const Request& req, FetchResult& out);

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace h4d::io
