#include "svc/job_manager.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>

#include "core/analysis.hpp"
#include "io/fault.hpp"

namespace h4d::svc {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Per-attempt seed salt: deterministic, but a retried attempt sees a
/// different fault schedule than the one that killed it (same spirit as the
/// injectors' own hash mixing).
std::uint64_t salt_seed(std::uint64_t seed, int attempt) {
  return seed ^ (static_cast<std::uint64_t>(attempt) * 0x9e3779b97f4a7c15ULL);
}

}  // namespace

std::string_view priority_name(JobPriority p) {
  switch (p) {
    case JobPriority::Low: return "low";
    case JobPriority::Normal: return "normal";
    case JobPriority::High: return "high";
  }
  return "?";
}

JobPriority priority_from_name(const std::string& name) {
  if (name == "low") return JobPriority::Low;
  if (name == "normal") return JobPriority::Normal;
  if (name == "high") return JobPriority::High;
  throw std::invalid_argument("unknown job priority: " + name +
                              " (expected low|normal|high)");
}

std::string_view reject_reason_name(RejectReason r) {
  switch (r) {
    case RejectReason::None: return "none";
    case RejectReason::QueueFull: return "queue_full";
    case RejectReason::QuotaExceeded: return "quota_exceeded";
    case RejectReason::DeadlineInfeasible: return "deadline_infeasible";
  }
  return "?";
}

std::string_view state_name(JobState s) {
  switch (s) {
    case JobState::Pending: return "pending";
    case JobState::Running: return "running";
    case JobState::Completed: return "completed";
    case JobState::Rejected: return "rejected";
    case JobState::Shed: return "shed";
    case JobState::Failed: return "failed";
  }
  return "?";
}

bool state_terminal(JobState s) {
  return s == JobState::Completed || s == JobState::Rejected ||
         s == JobState::Shed || s == JobState::Failed;
}

std::uint32_t result_checksum(const core::AnalysisResult& result) {
  std::uint32_t crc = 0;
  for (const auto& [feature, map] : result.maps) {
    const auto f = static_cast<std::uint32_t>(feature);
    crc = io::crc32(&f, sizeof f, crc);
    crc = io::crc32(map.data(), static_cast<std::size_t>(map.size()) * sizeof(float),
                    crc);
  }
  return crc;
}

struct JobManager::Tenant {
  double weight = 1.0;
  double vtime = 0.0;  ///< WFQ: virtual finish time of the last admission
  std::size_t pending = 0;
  std::size_t running = 0;
  TenantStats stats;
};

struct JobManager::Job {
  std::unique_ptr<JobSpec> spec;  ///< released once the job is terminal
  JobRecord rec;
  double vft = 0.0;  ///< WFQ virtual finish time (fixed at admission)
  Clock::time_point submitted_at;
  Clock::time_point ready_at;     ///< retry backoff gate
  Clock::time_point deadline_at;  ///< valid when has_deadline
  bool has_deadline = false;
  bool deadline_fired = false;
  bool dispatched_once = false;
  std::atomic<bool> cancel{false};
};

JobManager::JobManager(Options options) : opt_(std::move(options)) {
  if (opt_.workers < 1) opt_.workers = 1;
  if (opt_.max_pending == 0) opt_.max_pending = 1;
  if (opt_.tail.enabled()) {
    // Process-wide tail machinery: node latency reputation and the helper
    // pool are shared by every job (like the tile cache). Sized by the
    // largest node count a job may bring; LatencyTracker ignores nodes
    // beyond its size, so a generous bound is safe.
    if (!opt_.latency) opt_.latency = std::make_shared<io::LatencyTracker>(64);
    if (!opt_.io_pool) {
      opt_.io_pool =
          std::make_shared<io::SliceFetchPool>(std::max(1, opt_.tail.helper_threads));
    }
  }
  paused_ = opt_.start_paused;
  workers_.reserve(static_cast<std::size_t>(opt_.workers));
  for (int i = 0; i < opt_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  deadline_watcher_ = std::thread([this] { deadline_loop(); });
}

JobManager::~JobManager() { shutdown(); }

JobManager::Tenant& JobManager::tenant_locked(const std::string& name) {
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    Tenant t;
    const auto w = opt_.tenant_weights.find(name);
    t.weight = (w != opt_.tenant_weights.end() && w->second > 0.0) ? w->second : 1.0;
    t.stats.tenant = name;
    t.stats.weight = t.weight;
    it = tenants_.emplace(name, std::move(t)).first;
  }
  return it->second;
}

JobManager::SubmitResult JobManager::submit(JobSpec spec) {
  std::unique_lock lk(mu_);
  return admit_locked(lk, std::move(spec));
}

JobManager::SubmitResult JobManager::admit_locked(std::unique_lock<std::mutex>&,
                                                  JobSpec&& spec) {
  counters_.submitted++;
  Tenant& t = tenant_locked(spec.tenant);
  t.stats.submitted++;

  auto j = std::make_shared<Job>();
  j->rec.id = next_id_++;
  j->rec.tenant = spec.tenant;
  j->rec.priority = spec.priority;
  j->submitted_at = Clock::now();
  j->ready_at = j->submitted_at;

  auto reject = [&](RejectReason reason, std::int64_t& typed) -> SubmitResult {
    counters_.rejected++;
    typed++;
    t.stats.rejected++;
    j->rec.state = JobState::Rejected;
    j->rec.reject_reason = reason;
    jobs_.push_back(std::move(j));
    done_cv_.notify_all();
    return {jobs_.back()->rec.id, false, reason};
  };

  // 1. Deadline feasibility: if the cost estimate alone exceeds the budget,
  // admitting the job would only burn a worker before the watcher kills it.
  if (spec.deadline_s > 0.0 && spec.est_seconds > spec.deadline_s) {
    return reject(RejectReason::DeadlineInfeasible, counters_.rejected_deadline);
  }

  // 2. Tenant pending quota.
  if (opt_.tenant_max_pending > 0 && t.pending >= opt_.tenant_max_pending) {
    return reject(RejectReason::QuotaExceeded, counters_.rejected_quota);
  }

  // 3. Bounded queue: displace strictly lower-priority pending work (shed,
  // deterministically the lowest priority / latest virtual finish time), or
  // reject the newcomer.
  if (pending_.size() >= opt_.max_pending) {
    auto victim = pending_.end();
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if ((*it)->rec.priority >= spec.priority) continue;
      if (victim == pending_.end() ||
          (*it)->rec.priority < (*victim)->rec.priority ||
          ((*it)->rec.priority == (*victim)->rec.priority &&
           (*it)->vft > (*victim)->vft)) {
        victim = it;
      }
    }
    if (victim == pending_.end()) {
      return reject(RejectReason::QueueFull, counters_.rejected_queue_full);
    }
    std::shared_ptr<Job> shed_job = *victim;
    pending_.erase(victim);
    tenant_locked(shed_job->rec.tenant).pending--;
    shed_job->rec.error = "shed: displaced by higher-priority job " +
                          std::to_string(j->rec.id);
    finish_locked(*shed_job, JobState::Shed);
  }

  // 4. Overload degradation: past the watermark, low-priority jobs run with
  // coarser quantization — declared accuracy loss instead of rejection.
  if (opt_.degrade_watermark > 0 && pending_.size() >= opt_.degrade_watermark &&
      spec.priority == JobPriority::Low &&
      spec.config.engine.num_levels > opt_.degraded_levels) {
    spec.config.engine.num_levels = opt_.degraded_levels;
    j->rec.degraded = true;
    counters_.degraded++;
  }

  // Checkpoint namespacing: one manifest per job, stamped with the job tag,
  // so no job can ever resume (and prune) another job's progress.
  if (!opt_.checkpoint_dir.empty()) {
    spec.config.checkpoint_path =
        opt_.checkpoint_dir / ("job_" + std::to_string(j->rec.id) + ".ckpt");
    spec.config.job_tag = "job-" + std::to_string(j->rec.id);
  }

  // WFQ virtual finish time: start no earlier than the system clock or the
  // tenant's own backlog, advance by cost over weight.
  const double cost = spec.est_seconds > 0.0 ? spec.est_seconds : 1.0;
  t.vtime = std::max(t.vtime, global_vtime_) + cost / t.weight;
  j->vft = t.vtime;

  if (spec.deadline_s > 0.0) {
    j->has_deadline = true;
    j->deadline_at = j->submitted_at +
                     std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(spec.deadline_s));
  }

  j->spec = std::make_unique<JobSpec>(std::move(spec));
  counters_.admitted++;
  unfinished_++;
  t.pending++;
  pending_.push_back(j);
  jobs_.push_back(j);
  work_cv_.notify_one();
  if (j->has_deadline) deadline_cv_.notify_all();
  return {j->rec.id, true, RejectReason::None};
}

void JobManager::finish_locked(Job& j, JobState state) {
  j.rec.state = state;
  // Only the record outlives the job (snapshot() reports every job). The
  // spec is needed to run and retry it; a long-lived manager would
  // otherwise keep every finished job's whole configuration.
  j.spec.reset();
  Tenant& t = tenant_locked(j.rec.tenant);
  switch (state) {
    case JobState::Completed:
      counters_.completed++;
      t.stats.completed++;
      break;
    case JobState::Failed:
      counters_.failed++;
      t.stats.failed++;
      break;
    case JobState::Shed:
      counters_.shed++;
      t.stats.shed++;
      break;
    default:
      break;
  }
  unfinished_--;
  done_cv_.notify_all();
  work_cv_.notify_all();  // a finish can unblock a running-quota-limited job
}

std::shared_ptr<JobManager::Job> JobManager::pop_ready_locked(
    std::unique_lock<std::mutex>&) {
  if (paused_) return nullptr;
  const auto now = Clock::now();
  auto best = pending_.end();
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    Job& j = **it;
    if (j.ready_at > now) continue;  // retry backoff not elapsed
    if (opt_.tenant_max_running > 0 &&
        tenant_locked(j.rec.tenant).running >= opt_.tenant_max_running) {
      continue;
    }
    if (best == pending_.end() || j.rec.priority > (*best)->rec.priority ||
        (j.rec.priority == (*best)->rec.priority &&
         (j.vft < (*best)->vft ||
          (j.vft == (*best)->vft && j.rec.id < (*best)->rec.id)))) {
      best = it;
    }
  }
  if (best == pending_.end()) return nullptr;
  std::shared_ptr<Job> j = *best;
  pending_.erase(best);
  tenant_locked(j->rec.tenant).pending--;
  global_vtime_ = std::max(global_vtime_, j->vft);
  return j;
}

void JobManager::worker_loop() {
  std::unique_lock lk(mu_);
  for (;;) {
    if (stopping_) return;
    std::shared_ptr<Job> j = pop_ready_locked(lk);
    if (!j) {
      // Sleep until notified, or until the earliest retry backoff elapses.
      std::optional<Clock::time_point> until;
      if (!paused_) {
        for (const auto& p : pending_) {
          if (p->ready_at > Clock::now() && (!until || p->ready_at < *until)) {
            until = p->ready_at;
          }
        }
      }
      if (until) {
        work_cv_.wait_until(lk, *until);
      } else {
        work_cv_.wait(lk);
      }
      continue;
    }
    j->rec.state = JobState::Running;
    j->rec.attempts++;
    if (!j->dispatched_once) {
      j->dispatched_once = true;
      j->rec.dispatch_order = dispatch_seq_++;
      j->rec.queued_seconds = seconds_between(j->submitted_at, Clock::now());
    }
    tenant_locked(j->rec.tenant).running++;
    running_++;
    lk.unlock();
    run_job(j);
    lk.lock();
  }
}

void JobManager::run_job(const std::shared_ptr<Job>& j) {
  // Per-attempt configuration: wire this job's cancel token into whichever
  // executor runs it, and salt fault seeds so a retried attempt faces a
  // fresh (but deterministic) fault schedule.
  core::PipelineConfig config = j->spec->config;
  // The manager's shared tile cache, accounted to this job's tenant. Under
  // fault injection PipelineParams::make swaps in a private instance — a
  // deterministic drill must not be perturbed by slices other jobs cached.
  if (opt_.tile_cache) {
    config.tile_cache = opt_.tile_cache;
    config.cache = opt_.tile_cache->config();
    config.cache_tenant = j->rec.tenant;
  }
  // The manager's shared tail layer (per-node latency reputation + helper
  // pool), applied uniformly to every job it runs.
  if (opt_.tail.enabled()) {
    config.tail = opt_.tail;
    config.latency = opt_.latency;
    config.io_pool = opt_.io_pool;
  }
  fs::ThreadedOptions topts = j->spec->threaded;
  sim::SimOptions sopts = j->spec->sim;
  topts.cancel = &j->cancel;
  sopts.cancel = &j->cancel;
  const int attempt = j->rec.attempts;
  if (attempt > 1) {
    if (config.faults.enabled()) {
      config.faults.seed = salt_seed(config.faults.seed, attempt);
    }
    if (sopts.failures.enabled()) {
      sopts.failures.seed = salt_seed(sopts.failures.seed, attempt);
    }
    // A retry re-runs from scratch: results are collected in memory, so a
    // pruned work list would leave holes in the maps. The manifest is
    // truncated by the fresh run.
    config.resume = false;
  }

  const auto started = Clock::now();
  try {
    core::AnalysisResult result = j->spec->simulate
                                      ? core::analyze_simulated(config, sopts)
                                      : core::analyze_threaded(config, topts);
    const double wall = seconds_between(started, Clock::now());
    fs::WorkMeter meter;
    for (const auto& c : result.stats.copies) meter += c.meter;

    std::unique_lock lk(mu_);
    running_--;
    tenant_locked(j->rec.tenant).running--;
    tenant_locked(j->rec.tenant).stats.busy_seconds += wall;
    j->rec.run_seconds += wall;
    j->rec.meter = meter;
    total_meter_ += meter;
    total_exec_ += result.stats.exec;
    j->rec.result_crc = result_checksum(result);
    if (j->spec->keep_result) j->rec.maps = std::move(result.maps);
    finish_locked(*j, JobState::Completed);
  } catch (const fs::CancelledError& e) {
    const double wall = seconds_between(started, Clock::now());
    std::unique_lock lk(mu_);
    running_--;
    tenant_locked(j->rec.tenant).running--;
    tenant_locked(j->rec.tenant).stats.busy_seconds += wall;
    j->rec.run_seconds += wall;
    j->rec.cancelled = true;
    counters_.cancelled++;
    j->rec.error = e.what();
    // Cancellation is never retried: the deadline (or the caller) decided
    // this job is over. Its checkpoint manifest stays resumable.
    finish_locked(*j, JobState::Failed);
  } catch (const std::exception& e) {
    const double wall = seconds_between(started, Clock::now());
    std::unique_lock lk(mu_);
    running_--;
    tenant_locked(j->rec.tenant).running--;
    tenant_locked(j->rec.tenant).stats.busy_seconds += wall;
    j->rec.run_seconds += wall;
    j->rec.error = e.what();
    if (attempt <= j->spec->max_retries && !j->cancel.load()) {
      counters_.retried++;
      const double backoff =
          j->spec->retry_backoff_s * static_cast<double>(1 << (attempt - 1));
      j->ready_at = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(backoff));
      j->rec.state = JobState::Pending;
      tenant_locked(j->rec.tenant).pending++;
      pending_.push_back(j);
      work_cv_.notify_all();
    } else {
      finish_locked(*j, JobState::Failed);
    }
  }
}

void JobManager::deadline_loop() {
  std::unique_lock lk(mu_);
  while (!stopping_) {
    const auto now = Clock::now();
    for (const auto& j : jobs_) {
      if (!j->has_deadline || j->deadline_fired || state_terminal(j->rec.state)) {
        continue;
      }
      if (now < j->deadline_at) continue;
      j->deadline_fired = true;
      j->rec.deadline_missed = true;
      counters_.deadline_missed++;
      if (j->rec.state == JobState::Pending) {
        // Expired before a worker ever picked it up: fail it in place.
        auto it = std::find(pending_.begin(), pending_.end(), j);
        if (it != pending_.end()) {
          pending_.erase(it);
          tenant_locked(j->rec.tenant).pending--;
        }
        j->rec.error = "deadline expired before dispatch";
        finish_locked(*j, JobState::Failed);
      } else if (j->rec.state == JobState::Running) {
        // Cooperative cancel: the executor observes the token, closes every
        // stream, drains in-flight buffers, and throws CancelledError.
        j->cancel.store(true, std::memory_order_release);
      }
    }
    const auto poll = std::chrono::duration<double, std::milli>(
        opt_.deadline_poll_ms > 0.0 ? opt_.deadline_poll_ms : 2.0);
    deadline_cv_.wait_for(lk, poll, [this] { return stopping_; });
  }
}

void JobManager::start() {
  std::lock_guard lk(mu_);
  paused_ = false;
  work_cv_.notify_all();
}

bool JobManager::cancel(std::int64_t id) {
  std::unique_lock lk(mu_);
  if (id < 0 || static_cast<std::size_t>(id) >= jobs_.size()) return false;
  auto j = jobs_[static_cast<std::size_t>(id)];
  if (state_terminal(j->rec.state)) return false;
  if (j->rec.state == JobState::Pending) {
    auto it = std::find(pending_.begin(), pending_.end(), j);
    if (it != pending_.end()) {
      pending_.erase(it);
      tenant_locked(j->rec.tenant).pending--;
    }
    j->rec.error = "cancelled while pending";
    finish_locked(*j, JobState::Shed);
    return true;
  }
  j->cancel.store(true, std::memory_order_release);
  return true;
}

JobRecord JobManager::wait(std::int64_t id) {
  std::unique_lock lk(mu_);
  if (id < 0 || static_cast<std::size_t>(id) >= jobs_.size()) {
    throw std::out_of_range("unknown job id " + std::to_string(id));
  }
  auto j = jobs_[static_cast<std::size_t>(id)];
  done_cv_.wait(lk, [&] { return state_terminal(j->rec.state); });
  return j->rec;
}

void JobManager::drain() {
  start();
  std::unique_lock lk(mu_);
  done_cv_.wait(lk, [this] { return unfinished_ == 0; });
}

void JobManager::shutdown() {
  drain();
  {
    std::lock_guard lk(mu_);
    if (stopping_) return;
    stopping_ = true;
    work_cv_.notify_all();
    deadline_cv_.notify_all();
    done_cv_.notify_all();
  }
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  if (deadline_watcher_.joinable()) deadline_watcher_.join();
}

JobRecord JobManager::job(std::int64_t id) const {
  std::lock_guard lk(mu_);
  if (id < 0 || static_cast<std::size_t>(id) >= jobs_.size()) {
    throw std::out_of_range("unknown job id " + std::to_string(id));
  }
  return jobs_[static_cast<std::size_t>(id)]->rec;
}

ServiceStats JobManager::snapshot() const {
  std::lock_guard lk(mu_);
  ServiceStats s;
  s.counters = counters_;
  s.meter = total_meter_;
  s.exec = total_exec_;
  s.tenants.reserve(tenants_.size());
  for (const auto& [name, t] : tenants_) s.tenants.push_back(t.stats);
  s.jobs.reserve(jobs_.size());
  for (const auto& j : jobs_) s.jobs.push_back(j->rec);
  if (opt_.tile_cache) {
    const io::TileCacheStats cs = opt_.tile_cache->stats();
    s.cache = core::cache_report(opt_.tile_cache->config());
    s.cache.lookups = cs.lookups;
    s.cache.hits = cs.hits;
    s.cache.misses = cs.misses;
    s.cache.bytes_read_disk = total_meter_.disk_bytes_read;
    s.cache.bytes_served_cache = cs.bytes_served;
    s.cache.prefetch_issued = cs.prefetch_issued;
    s.cache.prefetch_useful = cs.prefetch_useful;
    s.cache.evictions = cs.evictions;
    s.cache.resident_bytes = cs.resident_bytes;
    // Fold each tenant's cache slice into its TenantStats row (tenants the
    // cache saw but the manager never admitted a job for are skipped).
    for (const io::TenantCacheStats& tc : opt_.tile_cache->tenant_stats()) {
      for (TenantStats& row : s.tenants) {
        if (row.tenant != tc.tenant) continue;
        row.cache_hits = tc.hits;
        row.cache_misses = tc.misses;
        row.cache_bytes_served = tc.bytes_served;
        row.cache_resident_bytes = tc.resident_bytes;
      }
    }
  }
  if (opt_.tail.enabled() && opt_.latency) {
    // No replica set spans jobs, so no eviction rows; the service-wide
    // tracker is sized generously, so silent all-zero node rows are noise.
    s.tail = core::tail_report(opt_.tail, *opt_.latency, /*replicas=*/nullptr,
                               /*skip_idle_nodes=*/true);
  }
  return s;
}

std::size_t JobManager::pending_count() const {
  std::lock_guard lk(mu_);
  return pending_.size();
}

}  // namespace h4d::svc
