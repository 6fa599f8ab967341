// Multi-tenant job manager: admission control, weighted fair queueing,
// deadlines, retries, and overload-graceful degradation over the
// filter-stream runtime.
//
// The paper's runs are solo: one pipeline, one dataset, the whole machine.
// A deployment serves many concurrent analysis requests — different ROIs,
// feature sets and datasets, from tenants with different entitlements — and
// the runtime underneath (threaded executor or simulator) knows nothing
// about competition. The JobManager is that missing layer:
//
//   * bounded admission: a queue of at most max_pending jobs; a submit that
//     finds it full either displaces a strictly lower-priority pending job
//     (which is *shed*) or is *rejected* with a typed reason;
//   * per-tenant quotas (pending and running) and weighted fair queueing:
//     within a priority class, jobs dispatch by WFQ virtual finish time, so
//     a tenant flooding the queue cannot starve the others beyond its
//     weight;
//   * deadlines: a pending job past its deadline fails without running; a
//     running one is cancelled cooperatively through the executor's cancel
//     token — streams close, in-flight buffers drain into the loss
//     inventory, the run throws fs::CancelledError, and the job's
//     checkpoint manifest remains valid for a resume;
//   * retries: a failed attempt (filter error, injected fault) re-queues
//     with exponential backoff, its fault-injection seed re-salted per
//     attempt so the retry is deterministic but not doomed;
//   * degraded mode: when the backlog passes degrade_watermark, low-priority
//     jobs are admitted with coarsened quantization (fewer gray levels) —
//     less work per job, at declared accuracy cost, instead of rejection.
//
// Scheduling and shedding decisions depend only on (priority, virtual
// finish time, submission order) — deterministic given a submission
// sequence, which the tests exploit via start_paused.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "io/tail.hpp"
#include "io/tile_cache.hpp"
#include "svc/job.hpp"

namespace h4d::svc {

/// Service-level counters. The accounting identity
///   submitted == completed + rejected + shed + failed
/// holds whenever the manager is quiescent (drained or shut down), and
/// rejected == rejected_queue_full + rejected_quota + rejected_deadline.
struct ServiceCounters {
  std::int64_t submitted = 0;
  std::int64_t admitted = 0;
  std::int64_t completed = 0;
  std::int64_t rejected = 0;
  std::int64_t rejected_queue_full = 0;
  std::int64_t rejected_quota = 0;
  std::int64_t rejected_deadline = 0;
  std::int64_t shed = 0;
  std::int64_t failed = 0;
  std::int64_t retried = 0;         ///< re-queued attempts (not jobs)
  std::int64_t deadline_missed = 0; ///< pending expiries + running cancels
  std::int64_t cancelled = 0;       ///< cancel token fired while running
  std::int64_t degraded = 0;        ///< jobs admitted with coarser levels
};

/// Per-tenant slice of the counters plus the tenant's WFQ state.
struct TenantStats {
  std::string tenant;
  double weight = 1.0;
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  std::int64_t rejected = 0;
  std::int64_t shed = 0;
  std::int64_t failed = 0;
  double busy_seconds = 0.0;  ///< wall time of this tenant's attempts
  /// Shared tile-cache slice of this tenant (zero without a shared cache):
  /// demand hits/misses/bytes served, and the bytes currently resident that
  /// this tenant's reads filled (the per-tenant budget accounting).
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t cache_bytes_served = 0;
  std::int64_t cache_resident_bytes = 0;
};

/// Aggregated view of everything the service has done (svc/jobs_metrics.hpp
/// serializes this as the "jobs" metrics section).
struct ServiceStats {
  ServiceCounters counters;
  std::vector<TenantStats> tenants;        ///< sorted by tenant name
  fs::WorkMeter meter;                     ///< summed over all attempts
  fs::ExecutionReport exec;                ///< merged damage inventory
  std::vector<JobRecord> jobs;             ///< every job, submission order
  /// Shared tile-cache summary (present only when the manager owns one).
  fs::CacheReport cache;
  /// Shared tail-tolerance summary (present only when the manager runs its
  /// jobs with the tail layer on; node reputation spans jobs).
  fs::TailReport tail;
};

class JobManager {
 public:
  struct Options {
    int workers = 2;                 ///< concurrent jobs (worker threads)
    std::size_t max_pending = 64;    ///< admission queue bound
    /// Per-tenant quotas (0 => unlimited).
    std::size_t tenant_max_pending = 0;
    std::size_t tenant_max_running = 0;
    /// WFQ weights by tenant name; absent tenants weigh 1.0.
    std::map<std::string, double> tenant_weights;
    /// Backlog size at which low-priority jobs are admitted with coarsened
    /// quantization (0 => never degrade).
    std::size_t degrade_watermark = 0;
    int degraded_levels = 8;         ///< num_levels floor when degrading
    /// When set, each job's checkpoint manifest is namespaced under this
    /// directory as job_<id>.ckpt with job_tag "job-<id>", so concurrent
    /// jobs can never prune each other's work lists (io/manifest.hpp
    /// ownership header).
    std::filesystem::path checkpoint_dir;
    /// Start with dispatch paused: jobs are admitted (and shed/rejected)
    /// but none runs until start(). Lets tests build a deterministic
    /// backlog regardless of worker speed.
    bool start_paused = false;
    /// Deadline watcher scan period.
    double deadline_poll_ms = 2.0;
    /// Process-wide tile cache shared by every job this manager runs (null
    /// => jobs run cache-less, or with whatever their config carries). Each
    /// job's reads are accounted to its tenant. Fault-injected jobs ignore
    /// it (they always get a private cache; see PipelineParams::make).
    std::shared_ptr<io::TileCache> tile_cache;
    /// Tail-tolerant I/O applied to every job this manager runs (off when
    /// tail.enabled() is false). The latency tracker and helper pool are
    /// process-wide, so a slow node's reputation carries across jobs.
    /// Fault-injected jobs get a private helper pool (PipelineParams::make).
    io::TailConfig tail;
    std::shared_ptr<io::LatencyTracker> latency;
    std::shared_ptr<io::SliceFetchPool> io_pool;
  };

  explicit JobManager(Options options);
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  struct SubmitResult {
    std::int64_t id = -1;
    bool admitted = false;
    RejectReason reason = RejectReason::None;
  };

  /// Admit or reject a job. Never blocks on the queue: a full queue sheds
  /// or rejects immediately (typed), it does not wait.
  SubmitResult submit(JobSpec spec);

  /// Release dispatch after Options::start_paused.
  void start();

  /// Cancel one job: pending => Shed, running => cancel token fires and the
  /// job Fails (cancelled). Returns false when already terminal / unknown.
  bool cancel(std::int64_t id);

  /// Block until the job is terminal; returns its snapshot.
  JobRecord wait(std::int64_t id);

  /// Block until every admitted job is terminal (implies start()).
  void drain();

  /// Drain, then stop the workers. Idempotent; the destructor calls it.
  void shutdown();

  /// Snapshot of one job (throws std::out_of_range for unknown ids).
  JobRecord job(std::int64_t id) const;

  /// Full service snapshot (counters, tenants, merged meter/exec, jobs).
  ServiceStats snapshot() const;

  std::size_t pending_count() const;

 private:
  struct Job;
  struct Tenant;

  SubmitResult admit_locked(std::unique_lock<std::mutex>& lk, JobSpec&& spec);
  void finish_locked(Job& j, JobState state);
  std::shared_ptr<Job> pop_ready_locked(std::unique_lock<std::mutex>& lk);
  void run_job(const std::shared_ptr<Job>& j);
  void worker_loop();
  void deadline_loop();
  Tenant& tenant_locked(const std::string& name);

  Options opt_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;      ///< workers: backlog / shutdown
  std::condition_variable done_cv_;      ///< wait()/drain(): job terminal
  std::condition_variable deadline_cv_;  ///< deadline watcher period

  bool paused_ = false;
  bool stopping_ = false;
  std::int64_t next_id_ = 0;
  std::int64_t dispatch_seq_ = 0;  ///< JobRecord::dispatch_order source
  double global_vtime_ = 0.0;      ///< WFQ system virtual time

  std::vector<std::shared_ptr<Job>> jobs_;        ///< by id (== index)
  std::deque<std::shared_ptr<Job>> pending_;      ///< admission order
  std::map<std::string, Tenant> tenants_;
  std::size_t running_ = 0;
  std::int64_t unfinished_ = 0;  ///< admitted jobs not yet terminal

  ServiceCounters counters_;
  fs::WorkMeter total_meter_;
  fs::ExecutionReport total_exec_;

  std::vector<std::thread> workers_;
  std::thread deadline_watcher_;
};

}  // namespace h4d::svc
