// Threaded executor: runs a FilterGraph with one thread per filter copy and
// bounded queues as streams. This is the "real" runtime — on a multicore
// host the transparent copies execute genuinely in parallel.
#pragma once

#include <atomic>

#include "fs/graph.hpp"

namespace h4d::fs {

class TraceRecorder;

struct ThreadedOptions {
  /// Stream depth in buffers; push blocks when full (backpressure).
  std::size_t queue_capacity = 64;
  /// When set, filter-copy activity spans and buffer handoffs are recorded
  /// (wall time since run start). Must outlive run_threaded().
  TraceRecorder* trace = nullptr;
  /// Supervision policy: what happens when a filter copy throws or hangs
  /// (fs/supervisor.hpp). Default is hardened fail-fast: the first error
  /// closes every stream so all copies unwind, then rethrows after join.
  SupervisorOptions supervise;
  /// Cooperative cancellation (job deadlines/timeouts, src/svc). When set
  /// and *cancel becomes true, every stream is closed so all copies unwind
  /// deterministically — exactly the fail-fast abort path — buffers still in
  /// flight are drained into the loss inventory, and run_threaded throws
  /// CancelledError after all threads join. A checkpoint manifest written so
  /// far stays valid: completed chunks were recorded durably before the cut,
  /// so a resumed run recomputes only what is missing. Must outlive the run.
  const std::atomic<bool>* cancel = nullptr;
  /// How often the cancel token is polled. The poll period bounds the extra
  /// grace a cancelled run gets on top of its longest single filter call.
  double cancel_poll_ms = 5.0;
};

/// Execute the graph to completion and return per-copy statistics.
/// Throws whatever a filter throws (after joining all threads); under
/// restart/quarantine supervision, handled crashes do not throw — they are
/// inventoried in RunStats::exec instead.
RunStats run_threaded(const FilterGraph& graph, const ThreadedOptions& options = {});

}  // namespace h4d::fs
