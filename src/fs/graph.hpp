// Filter graph description: filters, transparent/explicit copies, placement,
// and the buffer scheduling policy of each stream (paper Sec. 4.1).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fs/filter.hpp"
#include "fs/supervisor.hpp"

namespace h4d::fs {

/// How buffers emitted on a stream are distributed over the consumer's
/// transparent copies.
enum class Policy {
  RoundRobin,    ///< each copy receives roughly the same number of buffers
  DemandDriven,  ///< route to the copy that is draining fastest (least loaded)
  Broadcast,     ///< every copy receives every buffer
  Explicit,      ///< user routing function decides the copy (explicit copies)
};

std::string_view policy_name(Policy p);

/// Routing function for Policy::Explicit: maps a buffer header to a consumer
/// copy index in [0, num_copies).
using RouteFn = std::function<int(const BufferHeader&, int num_copies)>;

/// One filter group (a logical filter and its transparent copies).
struct FilterSpec {
  std::string name;
  FilterFactory factory;
  int copies = 1;
  /// Logical compute-node id per copy. Used by the cluster simulator for
  /// placement and co-location; the threaded executor uses it only to decide
  /// pointer-copy vs. serialize accounting. Empty => all copies on node 0.
  std::vector<int> placement;

  int node_of_copy(int copy) const {
    if (placement.empty()) return 0;
    return placement[static_cast<std::size_t>(copy) % placement.size()];
  }
};

/// One stream connecting an output port of a producer group to a consumer
/// group.
struct EdgeSpec {
  int from = -1;
  int port = 0;
  int to = -1;
  Policy policy = Policy::DemandDriven;
  RouteFn route;  ///< only for Policy::Explicit
};

/// A complete application graph. Build once, execute with any executor.
class FilterGraph {
 public:
  /// Adds a filter group, returns its id.
  int add_filter(FilterSpec spec);

  /// Connects `from`'s output `port` to `to`. Buffers emitted by any copy of
  /// `from` on `port` are distributed over the copies of `to` by `policy`.
  void connect(int from, int port, int to, Policy policy = Policy::DemandDriven,
               RouteFn route = {});

  const std::vector<FilterSpec>& filters() const { return filters_; }
  const std::vector<EdgeSpec>& edges() const { return edges_; }

  /// Edges leaving a filter group, and arriving at one.
  std::vector<int> out_edges(int filter) const;
  std::vector<int> in_edges(int filter) const;
  bool is_source(int filter) const { return in_edges(filter).empty(); }

  /// Throws std::invalid_argument when the graph is malformed (dangling
  /// endpoints, Explicit edges without a route, cycles, no filters).
  void validate() const;

 private:
  std::vector<FilterSpec> filters_;
  std::vector<EdgeSpec> edges_;
};

/// Execution statistics of one filter copy, common to both executors.
/// Timing fields are wall seconds under the threaded executor and virtual
/// seconds under the simulator; docs/OBSERVABILITY.md documents how each
/// executor attributes them.
struct CopyStats {
  std::string filter;
  int copy = 0;
  int node = 0;
  WorkMeter meter;
  double busy_seconds = 0.0;   ///< time spent inside process()/run_source()
  double finish_time = 0.0;    ///< when the copy completed (virtual or wall)
  std::size_t max_inbox = 0;   ///< high-water mark of queued buffers
  /// Time this copy spent waiting for input buffers (threaded: blocked in
  /// inbox pop; sim: idle — neither computing nor draining a send).
  double blocked_input_seconds = 0.0;
  /// Time this copy spent unable to proceed because of its *output* side
  /// (threaded: blocked pushing into full downstream inboxes; sim: the
  /// blocking-send window while emitted bytes clear the NIC).
  double blocked_output_seconds = 0.0;
  /// Total time producers spent stalled pushing into this copy's inbox
  /// (threaded executor only; the sim has no bounded inboxes).
  double enqueue_stall_seconds = 0.0;
  std::int64_t stalled_pushes = 0;  ///< pushes into this inbox that stalled
};

/// Tile-cache summary of one run: configuration echo plus the counters the
/// "cache" metrics section exports. `present` is false when the run had no
/// cache attached (the section is then omitted). Counter identities the
/// validator (tools/check_metrics.py) holds us to: hits + misses == lookups,
/// prefetch_useful <= prefetch_issued.
struct CacheReport {
  bool present = false;
  std::int64_t budget_bytes = 0;
  std::int64_t tile_w = 0;
  std::int64_t tile_h = 0;
  std::int64_t prefetch_depth = 0;
  std::int64_t lookups = 0;         ///< tile probes (hits + misses)
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t bytes_read_disk = 0;    ///< run's total disk read traffic
  std::int64_t bytes_served_cache = 0;  ///< bytes served without touching disk
  std::int64_t prefetch_issued = 0;
  std::int64_t prefetch_useful = 0;
  std::int64_t evictions = 0;
  std::int64_t resident_bytes = 0;  ///< cache occupancy at end of run
};

/// One storage node's row in the io_tail metrics section.
struct TailNodeRow {
  int node = 0;
  std::int64_t reads = 0;
  double ewma_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::int64_t breaches = 0;
};

/// One node-eviction event (io_tail.evictions): reason is "failure" or
/// "slow" (io::evict_reason_name).
struct TailEvictionRow {
  int node = 0;
  std::string reason;
};

/// Tail-tolerance summary of one run: configuration echo plus the counters
/// the "io_tail" metrics section exports. `present` is false when the run
/// had no tail layer attached (the section is then omitted). Identities the
/// validator (tools/check_metrics.py) holds us to: hedges_won <=
/// hedges_issued, and the per-node reads/breaches sum to the globals.
struct TailReport {
  bool present = false;
  std::string deadline_mode;  ///< "off" / "auto" / "fixed"
  double deadline_ms = 0.0;   ///< fixed deadline (deadline_mode == "fixed")
  double deadline_k = 0.0;
  double deadline_floor_ms = 0.0;
  double deadline_ceiling_ms = 0.0;
  bool hedge_enabled = false;
  double hedge_pct = 0.0;
  std::int64_t hedge_max_inflight = 0;
  std::int64_t reads = 0;           ///< completed pooled reads observed
  std::int64_t hedges_issued = 0;
  std::int64_t hedges_won = 0;
  std::int64_t hedges_abandoned = 0;
  std::int64_t reads_abandoned = 0;
  std::int64_t breaches = 0;
  std::int64_t evictions_slow = 0;
  std::vector<TailNodeRow> nodes;
  std::vector<TailEvictionRow> evictions;
};

/// Result of executing a graph.
struct RunStats {
  double total_seconds = 0.0;  ///< end-to-end makespan (virtual or wall)
  std::vector<CopyStats> copies;
  /// Execution-layer damage inventory: restarts, quarantined buffers,
  /// watchdog kills (empty when the run was clean / unsupervised).
  ExecutionReport exec;
  /// Tile-cache summary (present only when the run read through a cache).
  CacheReport cache;
  /// Tail-tolerance summary (present only when the tail layer was active).
  TailReport tail;

  /// Sum of busy time over every copy of the named filter group.
  double filter_busy_seconds(std::string_view filter) const;
  /// Max finish time over copies of the named filter group.
  double filter_finish_time(std::string_view filter) const;
  std::int64_t total_bytes_out(std::string_view filter) const;
};

}  // namespace h4d::fs
