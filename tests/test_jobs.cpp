// Multi-tenant JobManager: typed admission rejection, quotas, weighted fair
// queueing, priority shedding, deadlines (pending expiry and cooperative
// mid-run cancellation), retry with salted fault seeds, degraded admission,
// byte-identity of accepted jobs against solo runs, checkpoint-manifest
// ownership, and the accounting identity
//   submitted == completed + rejected + shed + failed.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "io/dataset.hpp"
#include "io/manifest.hpp"
#include "io/phantom.hpp"
#include "json_lite.hpp"
#include "svc/job_manager.hpp"
#include "svc/jobs_metrics.hpp"
#include "svc/workload.hpp"

namespace h4d::svc {
namespace {

namespace fsys = std::filesystem;

struct JobsFixture : ::testing::Test {
  void SetUp() override {
    root_ = fsys::temp_directory_path() /
            ("h4d_jobs_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fsys::remove_all(root_);
    fsys::create_directories(root_);

    io::PhantomConfig pcfg;
    pcfg.dims = {20, 20, 6, 4};
    pcfg.num_tumors = 2;
    pcfg.seed = 7;
    const io::Phantom phantom = io::generate_phantom(pcfg);
    ds_ = root_ / "ds";
    io::DiskDataset::create(ds_, phantom.volume, /*nodes=*/2, /*replicas=*/1);
  }
  void TearDown() override { fsys::remove_all(root_); }

  /// A small, fast job against the fixture dataset.
  JobSpec small_job() const {
    JobSpec spec;
    spec.config.dataset_root = ds_;
    spec.config.engine.roi_dims = {5, 5, 3, 3};
    spec.config.engine.num_levels = 8;
    spec.config.engine.features = haralick::FeatureSet::paper_eval();
    spec.config.texture_chunk = {20, 20, 6, 4};
    spec.config.rfr_copies = 2;
    spec.config.variant = core::Variant::HMP;
    spec.config.hmp_copies = 2;
    return spec;
  }

  fsys::path root_;
  fsys::path ds_;
};

// --- typed admission rejection --------------------------------------------

TEST_F(JobsFixture, TypedRejectionsAndAccountingIdentity) {
  JobManager::Options opt;
  opt.workers = 1;
  opt.max_pending = 2;
  opt.tenant_max_pending = 2;
  opt.start_paused = true;
  JobManager mgr(opt);

  // Deadline infeasible: the estimate alone exceeds the budget.
  JobSpec infeasible = small_job();
  infeasible.deadline_s = 0.1;
  infeasible.est_seconds = 10.0;
  const auto r0 = mgr.submit(infeasible);
  EXPECT_FALSE(r0.admitted);
  EXPECT_EQ(r0.reason, RejectReason::DeadlineInfeasible);
  EXPECT_EQ(mgr.job(r0.id).state, JobState::Rejected);

  // Fill the queue, then exceed the tenant quota.
  JobSpec a = small_job();
  a.tenant = "alice";
  EXPECT_TRUE(mgr.submit(a).admitted);
  EXPECT_TRUE(mgr.submit(a).admitted);
  const auto r3 = mgr.submit(a);
  EXPECT_FALSE(r3.admitted);
  EXPECT_EQ(r3.reason, RejectReason::QuotaExceeded);

  // Queue full and the newcomer does not outrank anyone: rejected.
  JobSpec b = small_job();
  b.tenant = "bob";
  const auto r4 = mgr.submit(b);
  EXPECT_FALSE(r4.admitted);
  EXPECT_EQ(r4.reason, RejectReason::QueueFull);

  mgr.drain();
  mgr.shutdown();
  const ServiceStats s = mgr.snapshot();
  EXPECT_EQ(s.counters.submitted, 5);
  EXPECT_EQ(s.counters.rejected, 3);
  EXPECT_EQ(s.counters.rejected_deadline, 1);
  EXPECT_EQ(s.counters.rejected_quota, 1);
  EXPECT_EQ(s.counters.rejected_queue_full, 1);
  EXPECT_EQ(s.counters.completed, 2);
  EXPECT_EQ(s.counters.submitted, s.counters.completed + s.counters.rejected +
                                      s.counters.shed + s.counters.failed);
}

// --- priority shedding ----------------------------------------------------

TEST_F(JobsFixture, ShedsLowestPriorityDeterministically) {
  JobManager::Options opt;
  opt.workers = 1;
  opt.max_pending = 3;
  opt.start_paused = true;
  JobManager mgr(opt);

  JobSpec low = small_job();
  low.priority = JobPriority::Low;
  JobSpec normal = small_job();
  normal.priority = JobPriority::Normal;
  JobSpec high = small_job();
  high.priority = JobPriority::High;

  const auto low0 = mgr.submit(low);      // id 0
  const auto norm1 = mgr.submit(normal);  // id 1
  const auto low2 = mgr.submit(low);      // id 2
  ASSERT_EQ(mgr.pending_count(), 3u);

  // A high-priority submit displaces the *latest* low-priority job (largest
  // WFQ virtual finish time) — deterministic, not arbitrary.
  const auto high3 = mgr.submit(high);
  EXPECT_TRUE(high3.admitted);
  EXPECT_EQ(mgr.job(low2.id).state, JobState::Shed);
  EXPECT_EQ(mgr.job(low0.id).state, JobState::Pending);

  // Another high displaces the remaining low.
  const auto high4 = mgr.submit(high);
  EXPECT_TRUE(high4.admitted);
  EXPECT_EQ(mgr.job(low0.id).state, JobState::Shed);

  // Low cannot displace normal or high: rejected, not shed.
  const auto low5 = mgr.submit(low);
  EXPECT_FALSE(low5.admitted);
  EXPECT_EQ(low5.reason, RejectReason::QueueFull);
  EXPECT_EQ(mgr.job(norm1.id).state, JobState::Pending);

  mgr.drain();
  mgr.shutdown();
  const ServiceStats s = mgr.snapshot();
  EXPECT_EQ(s.counters.shed, 2);
  EXPECT_EQ(s.counters.completed, 3);  // normal + two highs
  EXPECT_EQ(s.counters.submitted, s.counters.completed + s.counters.rejected +
                                      s.counters.shed + s.counters.failed);
}

// --- weighted fair queueing -----------------------------------------------

TEST_F(JobsFixture, DispatchOrderFollowsPriorityThenVirtualFinishTime) {
  JobManager::Options opt;
  opt.workers = 1;  // serial dispatch: the order is exactly pop order
  opt.max_pending = 16;
  opt.tenant_weights = {{"heavy", 2.0}, {"light", 1.0}};
  opt.start_paused = true;
  JobManager mgr(opt);

  // Alternating submissions, equal cost. WFQ virtual finish times:
  //   light: 1.0, 2.0   heavy (weight 2): 0.5, 1.0
  JobSpec l = small_job();
  l.tenant = "light";
  l.est_seconds = 1.0;
  JobSpec h = small_job();
  h.tenant = "heavy";
  h.est_seconds = 1.0;
  JobSpec hi = small_job();
  hi.tenant = "light";
  hi.est_seconds = 1.0;
  hi.priority = JobPriority::High;

  const auto l0 = mgr.submit(l);   // vft 1.0
  const auto h1 = mgr.submit(h);   // vft 0.5
  const auto l2 = mgr.submit(l);   // vft 2.0
  const auto h3 = mgr.submit(h);   // vft 1.0
  const auto p4 = mgr.submit(hi);  // High: ahead of every Normal

  mgr.drain();
  mgr.shutdown();

  // High first; then by vft ascending, ties by submission order:
  // h1 (0.5), l0 (1.0, id 0), h3 (1.0, id 3), l2 (2.0).
  EXPECT_EQ(mgr.job(p4.id).dispatch_order, 0);
  EXPECT_EQ(mgr.job(h1.id).dispatch_order, 1);
  EXPECT_EQ(mgr.job(l0.id).dispatch_order, 2);
  EXPECT_EQ(mgr.job(h3.id).dispatch_order, 3);
  EXPECT_EQ(mgr.job(l2.id).dispatch_order, 4);
}

// --- deadlines ------------------------------------------------------------

TEST_F(JobsFixture, PendingJobPastDeadlineFailsWithoutRunning) {
  JobManager::Options opt;
  opt.workers = 1;
  opt.start_paused = true;  // never dispatched
  JobManager mgr(opt);

  JobSpec spec = small_job();
  spec.deadline_s = 0.03;
  const auto r = mgr.submit(spec);
  ASSERT_TRUE(r.admitted);
  const JobRecord rec = mgr.wait(r.id);
  EXPECT_EQ(rec.state, JobState::Failed);
  EXPECT_TRUE(rec.deadline_missed);
  EXPECT_FALSE(rec.cancelled);
  EXPECT_EQ(rec.attempts, 0);
  mgr.shutdown();
  const ServiceStats s = mgr.snapshot();
  EXPECT_EQ(s.counters.deadline_missed, 1);
  EXPECT_EQ(s.counters.failed, 1);
}

TEST_F(JobsFixture, RunningJobIsCancelledCooperativelyAtDeadline) {
  JobManager::Options opt;
  opt.workers = 1;
  opt.checkpoint_dir = root_ / "ckpt";
  JobManager mgr(opt);

  // A deliberately slow job with a deadline far below its runtime: every
  // read stalls for a real (capped) sleep, so the run outlives the deadline
  // on any machine and the watcher must cancel it mid-run.
  JobSpec spec = small_job();
  spec.config.engine.num_levels = 64;
  spec.config.engine.features = haralick::FeatureSet::all();
  spec.config.texture_chunk = {10, 10, 4, 3};
  spec.config.faults.seed = 11;
  spec.config.faults.p_stall = 1.0;
  spec.config.faults.stall_ms = 25.0;
  spec.config.faults.really_sleep = true;
  spec.deadline_s = 0.15;
  const auto r = mgr.submit(spec);
  ASSERT_TRUE(r.admitted);
  const JobRecord rec = mgr.wait(r.id);
  EXPECT_EQ(rec.state, JobState::Failed);
  EXPECT_TRUE(rec.deadline_missed);
  EXPECT_TRUE(rec.cancelled);
  // No hang past deadline + grace: the cancel poll period bounds the
  // overshoot (generous margin for slow CI machines).
  EXPECT_LT(rec.run_seconds, 10.0);

  // The job's namespaced manifest survived the cancellation, readable and
  // ownership-stamped: the cancelled run is resumable, not damaged.
  const fsys::path ckpt = opt.checkpoint_dir / ("job_" + std::to_string(r.id) + ".ckpt");
  EXPECT_TRUE(fsys::exists(ckpt));
  EXPECT_FALSE(io::ChunkManifest::load_owner(ckpt).empty());

  mgr.shutdown();
  const ServiceStats s = mgr.snapshot();
  EXPECT_EQ(s.counters.cancelled, 1);
  EXPECT_EQ(s.counters.deadline_missed, 1);
}

// --- retries --------------------------------------------------------------

TEST_F(JobsFixture, FailedJobRetriesWithBackoffThenFails) {
  JobManager::Options opt;
  opt.workers = 1;
  JobManager mgr(opt);

  // Every slice open fails deterministically; the pipeline throws on every
  // attempt, so the job burns its retries and fails.
  JobSpec spec = small_job();
  spec.config.faults.seed = 11;
  spec.config.faults.p_fail_open = 1.0;
  spec.max_retries = 2;
  spec.retry_backoff_s = 0.01;
  const auto r = mgr.submit(spec);
  ASSERT_TRUE(r.admitted);
  const JobRecord rec = mgr.wait(r.id);
  EXPECT_EQ(rec.state, JobState::Failed);
  EXPECT_EQ(rec.attempts, 3);  // initial + 2 retries
  EXPECT_FALSE(rec.error.empty());
  mgr.shutdown();
  EXPECT_EQ(mgr.snapshot().counters.retried, 2);
}

// --- degraded admission ---------------------------------------------------

TEST_F(JobsFixture, OverloadDegradesLowPriorityQuantization) {
  JobManager::Options opt;
  opt.workers = 1;
  opt.degrade_watermark = 1;
  opt.degraded_levels = 8;
  opt.start_paused = true;
  JobManager mgr(opt);

  JobSpec filler = small_job();
  EXPECT_TRUE(mgr.submit(filler).admitted);  // backlog reaches the watermark

  JobSpec low = small_job();
  low.priority = JobPriority::Low;
  low.config.engine.num_levels = 32;
  const auto r = mgr.submit(low);
  ASSERT_TRUE(r.admitted);
  EXPECT_TRUE(mgr.job(r.id).degraded);

  // Normal priority is never degraded.
  JobSpec normal = small_job();
  normal.config.engine.num_levels = 32;
  const auto rn = mgr.submit(normal);
  EXPECT_FALSE(mgr.job(rn.id).degraded);

  mgr.drain();
  mgr.shutdown();
  const ServiceStats s = mgr.snapshot();
  EXPECT_EQ(s.counters.degraded, 1);
  EXPECT_EQ(s.counters.completed, 3);
}

// --- byte-identity against solo runs --------------------------------------

TEST_F(JobsFixture, AcceptedJobsAreByteIdenticalToSoloRuns) {
  // Solo reference run.
  JobSpec ref = small_job();
  const core::AnalysisResult solo = core::analyze_threaded(ref.config);
  const std::uint32_t want = result_checksum(solo);
  ASSERT_NE(want, 0u);

  JobManager::Options opt;
  opt.workers = 2;
  JobManager mgr(opt);
  // Same configuration as a threaded job amid unrelated concurrent jobs.
  JobSpec other = small_job();
  other.config.engine.num_levels = 16;
  mgr.submit(other);
  const auto rt = mgr.submit(small_job());
  mgr.submit(other);
  mgr.drain();
  mgr.shutdown();
  EXPECT_EQ(mgr.job(rt.id).state, JobState::Completed);
  EXPECT_EQ(mgr.job(rt.id).result_crc, want);
}

TEST_F(JobsFixture, SimulatedJobsMatchThreadedResults) {
  JobSpec ref = small_job();
  const core::AnalysisResult solo = core::analyze_threaded(ref.config);
  const std::uint32_t want = result_checksum(solo);

  JobManager::Options opt;
  opt.workers = 1;
  JobManager mgr(opt);
  JobSpec sim_spec = small_job();
  sim_spec.simulate = true;
  sim_spec.config.rfr_nodes = {0, 1};
  sim_spec.config.iic_nodes = {2};
  sim_spec.config.uso_nodes = {3};
  sim_spec.config.hmp_nodes = {4, 5};
  sim_spec.sim.cluster = sim::make_piii_cluster(8);
  const auto r = mgr.submit(sim_spec);
  mgr.drain();
  mgr.shutdown();
  EXPECT_EQ(mgr.job(r.id).state, JobState::Completed);
  EXPECT_EQ(mgr.job(r.id).result_crc, want);  // sim is bit-identical
}

// --- cancel API -----------------------------------------------------------

TEST_F(JobsFixture, CancelPendingShedsAndUnknownIsFalse) {
  JobManager::Options opt;
  opt.workers = 1;
  opt.start_paused = true;
  JobManager mgr(opt);
  const auto r = mgr.submit(small_job());
  EXPECT_TRUE(mgr.cancel(r.id));
  EXPECT_EQ(mgr.job(r.id).state, JobState::Shed);
  EXPECT_FALSE(mgr.cancel(r.id));   // already terminal
  EXPECT_FALSE(mgr.cancel(999));    // unknown
  mgr.shutdown();
}

// --- checkpoint-manifest ownership (satellite of this layer) ---------------

TEST_F(JobsFixture, ManifestOwnershipRefusesForeignResume) {
  core::PipelineConfig cfg;
  cfg.dataset_root = ds_;
  cfg.engine.roi_dims = {5, 5, 3, 3};
  cfg.engine.num_levels = 8;
  cfg.engine.features = haralick::FeatureSet::paper_eval();
  cfg.texture_chunk = {20, 20, 6, 4};
  cfg.rfr_copies = 2;
  cfg.checkpoint_path = root_ / "owned.ckpt";
  cfg.job_tag = "job-1";
  { auto params = core::make_params(cfg); }  // stamps the ownership header
  ASSERT_FALSE(io::ChunkManifest::load_owner(cfg.checkpoint_path).empty());

  // A different job resuming the same file must be refused...
  core::PipelineConfig other = cfg;
  other.job_tag = "job-2";
  other.resume = true;
  EXPECT_THROW({ auto p = core::make_params(other); }, std::runtime_error);

  // ...and so must the same job with a different chunk grid.
  core::PipelineConfig regrid = cfg;
  regrid.texture_chunk = {10, 10, 6, 4};
  regrid.resume = true;
  EXPECT_THROW({ auto p = core::make_params(regrid); }, std::runtime_error);

  // The rightful owner resumes fine; legacy headerless manifests also load.
  core::PipelineConfig same = cfg;
  same.resume = true;
  EXPECT_NO_THROW({ auto p = core::make_params(same); });
}

// --- workload generator ---------------------------------------------------

TEST_F(JobsFixture, WorkloadIsDeterministicPerSeed) {
  WorkloadConfig wc;
  wc.jobs = 50;
  wc.tenants = 3;
  wc.seed = 42;
  wc.arrival_ms = 5.0;
  wc.base = small_job();
  const auto a = make_workload(wc);
  const auto b = make_workload(wc);
  ASSERT_EQ(a.size(), 50u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].spec.tenant, b[i].spec.tenant);
    EXPECT_EQ(a[i].spec.priority, b[i].spec.priority);
    EXPECT_EQ(a[i].spec.config.engine.num_levels, b[i].spec.config.engine.num_levels);
    EXPECT_DOUBLE_EQ(a[i].arrival_s, b[i].arrival_s);
  }
  wc.seed = 43;
  const auto c = make_workload(wc);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_diff = any_diff || a[i].spec.tenant != c[i].spec.tenant ||
               a[i].spec.config.engine.num_levels != c[i].spec.config.engine.num_levels;
  }
  EXPECT_TRUE(any_diff);
}

// --- overload soak + metrics export ---------------------------------------

TEST_F(JobsFixture, OverloadSoakHoldsAccountingIdentityAndExportsMetrics) {
  WorkloadConfig wc;
  wc.jobs = 60;
  wc.tenants = 4;
  wc.seed = 9;
  wc.deadline_fraction = 0.2;
  wc.deadline_s = 5.0;
  wc.base = small_job();
  const auto workload = make_workload(wc);

  JobManager::Options opt;
  opt.workers = 2;
  opt.max_pending = 8;  // flood at far above the sustainable rate
  opt.degrade_watermark = 4;
  JobManager mgr(opt);
  for (const auto& wj : workload) mgr.submit(wj.spec);
  mgr.drain();
  mgr.shutdown();

  const ServiceStats s = mgr.snapshot();
  EXPECT_EQ(s.counters.submitted, 60);
  EXPECT_EQ(s.counters.submitted, s.counters.completed + s.counters.rejected +
                                      s.counters.shed + s.counters.failed);
  EXPECT_EQ(s.counters.rejected, s.counters.rejected_queue_full +
                                     s.counters.rejected_quota +
                                     s.counters.rejected_deadline);
  EXPECT_GT(s.counters.rejected + s.counters.shed, 0);  // overload really bit
  EXPECT_GT(s.counters.completed, 0);

  // Per-job rows agree with the counters.
  std::int64_t completed = 0, rejected = 0, shed = 0, failed = 0;
  for (const auto& j : s.jobs) {
    ASSERT_TRUE(state_terminal(j.state)) << "job " << j.id << " not terminal";
    completed += j.state == JobState::Completed;
    rejected += j.state == JobState::Rejected;
    shed += j.state == JobState::Shed;
    failed += j.state == JobState::Failed;
  }
  EXPECT_EQ(completed, s.counters.completed);
  EXPECT_EQ(rejected, s.counters.rejected);
  EXPECT_EQ(shed, s.counters.shed);
  EXPECT_EQ(failed, s.counters.failed);

  // The export is well-formed enough to contain the schema and counters
  // (full validation: tools/check_metrics.py in CI).
  const fsys::path mpath = root_ / "jobs.json";
  write_jobs_metrics_file(mpath, s);
  std::ifstream in(mpath);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("h4d-jobs-v1"), std::string::npos);
  EXPECT_NE(json.find("\"submitted\": 60"), std::string::npos);
  EXPECT_NE(json.find("\"per_job\""), std::string::npos);
}

TEST(JobsMetrics, TenantNamesWithControlBytesRoundTrip) {
  // Quotes, a backslash, a newline and byte 0x01.
  const std::string tenant = std::string("a\"b\\c\nd") + '\x01' + "e";
  ServiceStats s;
  TenantStats t;
  t.tenant = tenant;
  t.weight = std::nan("");
  s.tenants.push_back(t);
  JobRecord j;
  j.id = 3;
  j.tenant = tenant;
  j.run_seconds = 0.25;
  s.jobs.push_back(j);

  std::ostringstream os;
  write_jobs_metrics_object(os, s);
  namespace json = h4d::testing::json;
  json::Value doc;
  ASSERT_NO_THROW(doc = json::parse(os.str())) << os.str();
  EXPECT_EQ(doc.at("schema").str(), "h4d-jobs-v1");
  EXPECT_EQ(doc.at("tenants").array.at(0).at("tenant").str(), tenant);
  EXPECT_EQ(doc.at("tenants").array.at(0).at("weight").num(), 0.0);
  EXPECT_EQ(doc.at("per_job").array.at(0).at("tenant").str(), tenant);
  EXPECT_EQ(doc.at("per_job").array.at(0).at("id").num(), 3.0);
  // Floating-point fields use the h4d-metrics-v1 number format.
  EXPECT_NE(os.str().find("\"run_seconds\": 0.250000000"), std::string::npos) << os.str();
}

}  // namespace
}  // namespace h4d::svc
