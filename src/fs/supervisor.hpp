// Supervised execution: failure domains, restart/quarantine policy, and the
// damage inventory of one run.
//
// The paper's DataCutter runs assume every filter copy survives to
// completion; at production scale that assumption fails first. A supervisor
// wraps each filter-copy body so an exception is *attributed* — to the copy
// and to the in-flight buffer — and handled by policy instead of
// unconditionally destroying hours of out-of-core work:
//
//   * fail_fast     — the classic behavior, hardened: the first error is
//                     recorded, every stream is closed so peers blocked in
//                     push()/pop() unwind deterministically, and the error
//                     rethrows after all threads join;
//   * restart_copy  — the crashed copy is rebuilt from its filter factory
//                     (the failure domain is one copy's in-memory state) and
//                     the in-flight buffer retried; bounded by max_restarts
//                     per copy, escalating to fail_fast on exhaustion;
//   * quarantine    — like restart_copy, but a buffer that crashes its
//                     consumer poison_threshold times is quarantined into
//                     the run's damage inventory (its output region degrades
//                     to fill values, mirroring the read path's
//                     skip_and_fill) and the run completes.
//
// A watchdog declares copies dead when one filter call exceeds a deadline
// (heartbeats piggyback on the executor's activity transitions); a dead
// copy's pending buffers are re-routed to live sibling transparent copies,
// or inventoried as lost when it has none. Everything that happened is
// collected in an ExecutionReport — the execution-layer sibling of
// io::FaultReport (DESIGN §9).
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "nd/region.hpp"

namespace h4d::fs {

/// Thrown by an executor whose run was cancelled from outside (a cancel
/// token, or the simulator's virtual-time deadline). Distinct from a filter
/// error: every stream was closed, all copies unwound cooperatively, and any
/// checkpoint manifest holds exactly the chunks completed before the cut —
/// the run is resumable, not damaged.
struct CancelledError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// What the supervisor does with a filter-copy exception.
enum class SupervisePolicy {
  FailFast,     ///< record, close all streams, rethrow after join
  RestartCopy,  ///< rebuild the copy, retry the buffer; bounded restarts
  Quarantine,   ///< restart, but poison buffers are inventoried and dropped
};

std::string_view supervise_policy_name(SupervisePolicy p);
SupervisePolicy supervise_policy_from_name(const std::string& name);

/// Supervision configuration of one run (executor options).
struct SupervisorOptions {
  SupervisePolicy policy = SupervisePolicy::FailFast;
  /// Total filter rebuilds allowed per copy before the error escalates.
  int max_restarts = 3;
  /// Crashes by the *same* buffer before it is quarantined (Quarantine) or
  /// the error escalates (RestartCopy).
  int poison_threshold = 2;
  /// A copy whose single filter call exceeds this deadline is declared dead
  /// by the watchdog. 0 => watchdog disabled.
  double watchdog_deadline_ms = 0.0;
  /// Watchdog scan period; 0 => deadline / 4.
  double watchdog_poll_ms = 0.0;

  bool supervised() const {
    return policy != SupervisePolicy::FailFast || watchdog_deadline_ms > 0.0;
  }
};

/// One buffer given up on after crashing its consumer repeatedly — part of
/// the damage inventory (the execution-layer analogue of io::SkippedSlice).
struct QuarantinedBuffer {
  std::string filter;  ///< consumer group name
  int copy = 0;
  int port = 0;
  std::int64_t chunk_id = -1;  ///< BufferHeader::chunk_id (-1: not chunk data)
  std::int64_t seq = 0;        ///< producer sequence number
  std::int32_t from_copy = 0;  ///< producer copy index
  /// Region whose output degrades to fill because this buffer was dropped
  /// (the chunk's owned ROI origins when the header carries them).
  Region4 region;
  std::string reason;  ///< exception message of the last crash
};

/// One supervision event on a copy: a restart, a watchdog kill, or the
/// fatal error that ended the run.
struct CopyIncident {
  enum class Kind { Restart, WatchdogKill, Fatal };
  Kind kind = Kind::Restart;
  std::string filter;
  int copy = 0;
  std::string error;  ///< exception message (empty for watchdog kills)
};

std::string_view incident_kind_name(CopyIncident::Kind k);

/// Execution-layer accounting of one run: what crashed, what was restarted,
/// what was declared hung, and exactly which data degraded. Plain data; the
/// executor fills it after all copies have joined.
struct ExecutionReport {
  std::int64_t copy_restarts = 0;       ///< filter rebuilds performed
  std::int64_t chunks_quarantined = 0;  ///< buffers dropped as poison
  std::int64_t watchdog_kills = 0;      ///< copies declared dead while hung
  std::int64_t buffers_lost = 0;        ///< dead-copy buffers with no sibling
  std::int64_t chunks_resumed = 0;      ///< chunks pruned by resume
  std::int64_t replica_failovers = 0;   ///< reads rerouted to another replica
  std::int64_t nodes_evicted = 0;       ///< storage-node health evictions
  std::vector<QuarantinedBuffer> quarantined;  ///< exact dropped buffers
  std::vector<CopyIncident> incidents;         ///< per-copy event log

  // --- inbox accounting (threaded executor only; zero under the simulator,
  // which has no bounded inboxes) ------------------------------------------
  std::int64_t queue_stalled_pushes = 0;  ///< sum over every inbox
  double queue_stall_seconds = 0.0;       ///< sum over every inbox
  std::int64_t queue_max_depth = 0;       ///< max over every inbox

  bool clean() const {
    return copy_restarts == 0 && chunks_quarantined == 0 && watchdog_kills == 0 &&
           buffers_lost == 0 && chunks_resumed == 0 && replica_failovers == 0 &&
           nodes_evicted == 0 && incidents.empty();
  }
  std::string summary() const;

  /// The additive counters as one tuple of references, listed exactly once —
  /// operator+= folds over this list (the WorkMeter pattern, DESIGN §10), so
  /// a new job-level counter only needs an entry here; the sizeof pin below
  /// fires if a member is added without deciding how it merges.
  template <typename Self>
  static constexpr auto tied_counters(Self& r) {
    return std::tie(r.copy_restarts, r.chunks_quarantined, r.watchdog_kills,
                    r.buffers_lost, r.chunks_resumed, r.replica_failovers,
                    r.nodes_evicted, r.queue_stalled_pushes);
  }

  /// Member-wise accumulation of another run's (or job's) report: counters
  /// add, stall time adds, max depth maxes, inventories concatenate.
  ExecutionReport& operator+=(const ExecutionReport& o) {
    std::apply(
        [&](auto&... a) {
          std::apply([&](const auto&... b) { ((a += b), ...); }, tied_counters(o));
        },
        tied_counters(*this));
    queue_stall_seconds += o.queue_stall_seconds;
    queue_max_depth = std::max(queue_max_depth, o.queue_max_depth);
    quarantined.insert(quarantined.end(), o.quarantined.begin(), o.quarantined.end());
    incidents.insert(incidents.end(), o.incidents.begin(), o.incidents.end());
    return *this;
  }
};

namespace detail {
inline constexpr std::size_t kExecCounterFields = std::tuple_size_v<
    decltype(ExecutionReport::tied_counters(std::declval<ExecutionReport&>()))>;
}
// Every member of ExecutionReport must either appear in tied_counters() or be
// merged explicitly in operator+= (queue_stall_seconds, queue_max_depth,
// quarantined, incidents). This pin recomputes sizeof from that exact member
// list; if it fires, a field was added without extending the merge — which
// would silently drop it from aggregated (multi-job) reports.
static_assert(sizeof(ExecutionReport) ==
                  (detail::kExecCounterFields + 1) * sizeof(std::int64_t) +
                      sizeof(double) + sizeof(std::vector<QuarantinedBuffer>) +
                      sizeof(std::vector<CopyIncident>),
              "ExecutionReport field added without extending "
              "tied_counters()/operator+=");

}  // namespace h4d::fs
