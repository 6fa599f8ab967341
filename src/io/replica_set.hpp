// Replica placement, read failover and storage-node health tracking.
//
// A dataset written with a replication factor r stores every slice on r
// distinct nodes (DatasetMeta::replica_node, rotated round-robin). This
// module is the read-side view of that redundancy:
//
//   * *Static* liveness: nodes listed dead by the caller (--dead-nodes) or
//     whose directory is missing at open are excluded from read planning
//     entirely. read_owner() maps every slice to the first surviving replica,
//     so a degraded run completes with byte-identical output when r >= 2.
//   * *Dynamic* health: nodes that keep failing mid-run (open errors, short
//     reads, CRC mismatches surfaced by ResilientReader) are evicted after
//     `evict_after` consecutive failures and re-admitted for a probe read
//     once `probation_ms` has elapsed — a flapping node cannot stall every
//     slice read on its retry budget, and a recovered node is used again.
//
// One ReplicaSet is shared by every reader of a run (thread-safe); the
// per-reader failover/eviction counts land in FaultReport and the WorkMeter.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string_view>
#include <vector>

#include "io/dataset.hpp"

namespace h4d::io {

/// Dynamic node-health policy.
struct ReplicaHealthConfig {
  /// Consecutive failures after which a node is evicted from replica orders.
  int evict_after = 3;
  /// Time an evicted node sits out before it is offered again for one probe
  /// read. A failed probe restarts the clock; a successful one re-admits.
  double probation_ms = 2000.0;
};

/// Why a node was evicted: it kept *failing* reads (opens, short reads, CRC
/// mismatches), or it stayed *alive but slow* (sustained tail-latency
/// breaches surfaced by the tail-tolerance layer, io/tail.hpp). Both share
/// the probation / probe re-admission lifecycle.
enum class EvictReason { Failure, Slow };

std::string_view evict_reason_name(EvictReason r);

/// One healthy -> evicted transition (metrics export: io_tail.evictions).
struct EvictionEvent {
  int node = 0;
  EvictReason reason = EvictReason::Failure;
};

class ReplicaSet {
 public:
  /// `dead_nodes` (operator-declared) and the nodes whose directory is
  /// missing under `root` now are statically dead; they never appear in
  /// read plans. Out-of-range entries throw.
  ReplicaSet(std::filesystem::path root, DatasetMeta meta,
             std::vector<int> dead_nodes = {}, ReplicaHealthConfig health = {});

  /// Nodes whose directory does not exist under `root` — the open-time
  /// detection feeding the static dead list.
  static std::vector<int> missing_node_dirs(const std::filesystem::path& root,
                                            const DatasetMeta& meta);

  const DatasetMeta& meta() const { return meta_; }
  const std::filesystem::path& root() const { return root_; }
  std::filesystem::path node_dir(int node) const { return root_ / node_dir_name(node); }
  const std::vector<int>& dead_nodes() const { return dead_; }

  /// Statically dead (never read from, never assigned work).
  bool node_dead(int node) const;
  /// Lowest-numbered node that is not statically dead, or -1.
  int first_alive_node() const;

  /// Node whose RFR copy reads this slice: the first statically-alive
  /// replica in rank order. A slice every replica of which is dead falls to
  /// first_alive_node(), whose reader degrades it to fill (or fails it);
  /// -1 only when every node is dead. Deterministic for a whole run (dynamic
  /// evictions do not move ownership; they only reroute the reads a
  /// ResilientReader performs).
  int read_owner(std::int64_t z, std::int64_t t) const;

  /// Throws std::runtime_error ("... slices with no surviving replica ...")
  /// when some slice has every replica statically dead: a run that must not
  /// skip slices checks this before it reads anything.
  void require_every_slice_covered() const;

  /// Ordered read candidates for one slice: `preferred` first when it holds
  /// a copy, then the remaining replicas by rank. Statically dead nodes are
  /// excluded; evicted nodes are excluded until their probation expires.
  /// Never empty while a non-dead replica exists: if every candidate is
  /// sitting out probation, all of them are offered (forced probe) rather
  /// than failing the slice without an attempt.
  std::vector<int> replica_order(std::int64_t z, std::int64_t t, int preferred) const;

  /// Record a failed read against `node`. Returns true when this failure
  /// evicted the node (transition into probation); a failure during an
  /// eviction's probe restarts the probation clock instead.
  bool note_failure(int node);
  /// Record a sustained-slowness verdict against `node` (the tail-tolerance
  /// layer's slow_after consecutive breaches): evict it immediately with
  /// reason `slow`. Returns true on the healthy -> evicted transition; a
  /// slow verdict during an eviction's probe restarts the probation clock,
  /// exactly like a failed probe.
  bool note_slow(int node);
  /// Record a successful read: resets the failure streak and re-admits an
  /// evicted node whose probe succeeded.
  void note_success(int node);

  /// Node currently evicted (probation not yet expired or probe not yet
  /// succeeded)?
  bool node_evicted(int node) const;
  /// Total eviction events so far (healthy -> evicted transitions).
  std::int64_t evictions() const;
  /// Eviction events whose reason was `slow` (subset of evictions()).
  std::int64_t evictions_slow() const;
  /// Every healthy -> evicted transition so far, in order, with its reason.
  std::vector<EvictionEvent> eviction_events() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct NodeHealth {
    int consecutive_failures = 0;
    bool evicted = false;
    Clock::time_point evicted_at{};
  };

  bool usable_locked(int node, Clock::time_point now) const;
  /// Evict `node` (caller holds mu_): record the event, stamp the clock.
  void evict_locked(NodeHealth& h, int node, EvictReason reason);

  std::filesystem::path root_;
  DatasetMeta meta_;
  std::vector<int> dead_;        ///< sorted static dead list
  std::vector<bool> is_dead_;    ///< per-node static liveness
  ReplicaHealthConfig health_;

  mutable std::mutex mu_;
  std::vector<NodeHealth> nodes_;
  std::int64_t evictions_ = 0;
  std::int64_t evictions_slow_ = 0;
  std::vector<EvictionEvent> events_;
};

}  // namespace h4d::io
