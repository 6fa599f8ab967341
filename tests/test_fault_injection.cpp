// Resilience layer: deterministic fault injection, retry/backoff, graceful
// degradation, and end-to-end pipeline behavior under injected storage
// faults (retry must be bit-identical to a fault-free run; skip_and_fill
// must complete with an exact damage inventory).
#include "io/fault.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <random>
#include <set>

#include "core/analysis.hpp"
#include "io/dataset.hpp"
#include "io/phantom.hpp"
#include "io/resilient_reader.hpp"
#include "nd/chunking.hpp"

namespace h4d::io {
namespace {

namespace fsys = std::filesystem;

TEST(Crc32, KnownAnswer) {
  // The canonical CRC-32 check value.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Crc32, Chainable) {
  const char* s = "haralick4d";
  const std::uint32_t whole = crc32(s, 10);
  const std::uint32_t part = crc32(s, 4);
  EXPECT_EQ(crc32(s + 4, 6, part), whole);
}

TEST(FaultConfig, ParseRoundTrip) {
  const FaultConfig cfg =
      FaultConfig::parse("seed=42,open=0.1,read=0.2,corrupt=0.05,stall=0.01,max_transient=3");
  EXPECT_EQ(cfg.seed, 42u);
  EXPECT_DOUBLE_EQ(cfg.p_fail_open, 0.1);
  EXPECT_DOUBLE_EQ(cfg.p_short_read, 0.2);
  EXPECT_DOUBLE_EQ(cfg.p_corrupt, 0.05);
  EXPECT_DOUBLE_EQ(cfg.p_stall, 0.01);
  EXPECT_EQ(cfg.max_transient_per_slice, 3);
  EXPECT_TRUE(cfg.enabled());
  EXPECT_FALSE(FaultConfig::parse("").enabled());
  EXPECT_THROW(FaultConfig::parse("open=2.0"), std::runtime_error);
  EXPECT_THROW(FaultConfig::parse("bogus=1"), std::runtime_error);
  EXPECT_THROW(FaultConfig::parse("open"), std::runtime_error);
}

TEST(FaultConfig, ParseStallCap) {
  const FaultConfig cfg = FaultConfig::parse("stall=0.5,stall_ms=3,stall_cap=2");
  EXPECT_DOUBLE_EQ(cfg.stall_ms, 3.0);
  EXPECT_DOUBLE_EQ(cfg.stall_cap_ms, 2.0);
}

// A NaN or negative duration/budget would silently disable the stall cap or
// poison the deterministic schedule, so parse rejects them with the same
// typed error as a non-number.
TEST(FaultConfig, ParseRejectsNegativeAndNaNValues) {
  for (const char* bad : {"stall_ms=-1", "stall_ms=nan", "stall_ms=x",
                          "stall_cap=-0.5", "stall_cap=nan",
                          "max_transient=-2", "max_transient=many"}) {
    EXPECT_THROW(FaultConfig::parse(bad), std::runtime_error) << bad;
  }
  try {
    FaultConfig::parse("stall_ms=-1");
    FAIL() << "expected a typed parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad fault spec value for stall_ms"),
              std::string::npos)
        << e.what();
  }
}

TEST(FaultConfig, ParseTailKeysRoundTrip) {
  const FaultConfig cfg = FaultConfig::parse(
      "stall=1,stall_ms=2,stall_dist=pareto,pareto_alpha=1.2,slow_nodes=0:16;2:4");
  EXPECT_EQ(cfg.stall_dist, StallDist::Pareto);
  EXPECT_DOUBLE_EQ(cfg.pareto_alpha, 1.2);
  ASSERT_EQ(cfg.slow_nodes.size(), 2u);
  EXPECT_DOUBLE_EQ(cfg.slow_nodes.at(0), 16.0);
  EXPECT_DOUBLE_EQ(cfg.slow_nodes.at(2), 4.0);
  // str() round-trips the tail shape (the defaults elide it).
  const FaultConfig again = FaultConfig::parse(cfg.str());
  EXPECT_EQ(again.stall_dist, StallDist::Pareto);
  EXPECT_DOUBLE_EQ(again.pareto_alpha, 1.2);
  EXPECT_EQ(again.slow_nodes, cfg.slow_nodes);
  EXPECT_EQ(FaultConfig::parse("").stall_dist, StallDist::Fixed);
  for (const char* bad : {"stall_dist=bogus", "pareto_alpha=0", "pareto_alpha=-1",
                          "pareto_alpha=nan", "slow_nodes=0", "slow_nodes=-1:2",
                          "slow_nodes=0:-2", "slow_nodes=0:nan", "slow_nodes=a:b"}) {
    EXPECT_THROW(FaultConfig::parse(bad), std::runtime_error) << bad;
  }
}

TEST(FaultInjector, StallSleepIsCappedAndCounted) {
  // A mis-typed stall_ms=60000 must not block the process for a minute per
  // fault: the real sleep is clipped to stall_cap_ms, and the clip counted.
  FaultConfig cfg;
  cfg.seed = 1;
  cfg.p_stall = 1.0;
  cfg.stall_ms = 60000.0;
  cfg.stall_cap_ms = 5.0;
  FaultInjector inj(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  const AttemptPlan plan = inj.plan_attempt(0, 0);
  EXPECT_TRUE(plan.stall);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2));
  EXPECT_EQ(inj.stats().stalls.load(), 1);
  EXPECT_EQ(inj.stats().stalls_capped.load(), 1);
}

TEST(FaultInjector, StallsBelowCapAreNotCounted) {
  FaultConfig cfg;
  cfg.p_stall = 1.0;
  cfg.stall_ms = 1.0;  // well under the 25 ms default cap
  FaultInjector inj(cfg);
  EXPECT_TRUE(inj.plan_attempt(0, 0).stall);
  EXPECT_EQ(inj.stats().stalls.load(), 1);
  EXPECT_EQ(inj.stats().stalls_capped.load(), 0);
}

TEST(FaultInjector, SeededDecisionsAreDeterministic) {
  FaultConfig cfg;
  cfg.seed = 7;
  cfg.p_fail_open = 0.3;
  cfg.p_short_read = 0.3;
  cfg.p_corrupt = 0.5;
  cfg.really_sleep = false;

  FaultInjector a(cfg), b(cfg);
  for (std::int64_t t = 0; t < 8; ++t) {
    for (std::int64_t z = 0; z < 8; ++z) {
      for (int attempt = 0; attempt < 3; ++attempt) {
        const AttemptPlan pa = a.plan_attempt(t, z);
        const AttemptPlan pb = b.plan_attempt(t, z);
        EXPECT_EQ(pa.fail_open, pb.fail_open) << t << "," << z << "#" << attempt;
        EXPECT_EQ(pa.short_read, pb.short_read) << t << "," << z << "#" << attempt;
      }
      EXPECT_EQ(a.is_slice_corrupted(t, z), b.is_slice_corrupted(t, z));
    }
  }
}

TEST(FaultInjector, DifferentSeedsGiveDifferentSchedules) {
  FaultConfig ca, cb;
  ca.p_corrupt = cb.p_corrupt = 0.5;
  ca.seed = 1;
  cb.seed = 2;
  const FaultInjector a(ca), b(cb);
  int differing = 0;
  for (std::int64_t s = 0; s < 256; ++s) {
    if (a.is_slice_corrupted(0, s) != b.is_slice_corrupted(0, s)) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultInjector, CorruptionIsStickyAcrossAttempts) {
  FaultConfig cfg;
  cfg.seed = 11;
  cfg.p_corrupt = 0.5;
  FaultInjector inj(cfg);
  for (std::int64_t z = 0; z < 32; ++z) {
    const bool first = inj.is_slice_corrupted(0, z);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(inj.is_slice_corrupted(0, z), first);
  }
}

TEST(FaultInjector, CorruptionChangesBytesDeterministically) {
  FaultConfig cfg;
  cfg.seed = 3;
  cfg.p_corrupt = 1.0;
  FaultInjector inj(cfg), inj2(cfg);
  std::vector<std::uint8_t> buf(64, 0xEE), buf2(64, 0xEE);
  inj.apply_corruption(1, 2, buf.data(), buf.size());
  inj2.apply_corruption(1, 2, buf2.data(), buf2.size());
  EXPECT_EQ(buf, buf2);  // same damage on every read
  EXPECT_NE(buf, std::vector<std::uint8_t>(64, 0xEE));  // guaranteed damage
}

TEST(FaultInjector, TransientFaultsStopAfterBudget) {
  FaultConfig cfg;
  cfg.seed = 5;
  cfg.p_fail_open = 1.0;  // every attempt would fail...
  cfg.max_transient_per_slice = 2;  // ...but only twice per slice
  FaultInjector inj(cfg);
  EXPECT_TRUE(inj.plan_attempt(0, 0).fail_open);
  EXPECT_TRUE(inj.plan_attempt(0, 0).fail_open);
  EXPECT_FALSE(inj.plan_attempt(0, 0).fail_open);
  EXPECT_FALSE(inj.plan_attempt(0, 0).fail_open);
  EXPECT_EQ(inj.attempts(0, 0), 4);
  // Other slices have their own budget.
  EXPECT_TRUE(inj.plan_attempt(0, 1).fail_open);
}

// The modeled Pareto stall length is a pure hash of (seed, slice, attempt):
// two injectors with the same config agree exactly, and the per-node slow
// multiplier scales the modeled duration without changing any decision.
TEST(FaultInjector, ParetoStallsAreDeterministicAndNodeScaled) {
  FaultConfig cfg;
  cfg.seed = 21;
  cfg.p_stall = 1.0;
  cfg.stall_ms = 2.0;
  cfg.stall_dist = StallDist::Pareto;
  cfg.pareto_alpha = 1.5;
  cfg.slow_nodes[1] = 16.0;
  cfg.really_sleep = false;
  FaultInjector a(cfg), b(cfg);
  bool saw_tail = false;
  for (std::int64_t z = 0; z < 32; ++z) {
    const AttemptPlan pa = a.plan_attempt(0, z, /*node=*/0);
    const AttemptPlan pb = b.plan_attempt(0, z, /*node=*/0);
    ASSERT_TRUE(pa.stall);
    EXPECT_DOUBLE_EQ(pa.stall_ms, pb.stall_ms) << "z=" << z;
    EXPECT_GE(pa.stall_ms, cfg.stall_ms);  // Pareto multiplier is >= 1
    if (pa.stall_ms > 4.0 * cfg.stall_ms) saw_tail = true;
    // Same (slice, attempt) on the slow node: exactly 16x the modeled stall.
    const AttemptPlan pslow = b.plan_attempt(0, z, /*node=*/1);
    EXPECT_DOUBLE_EQ(pslow.stall_ms, 16.0 * a.plan_attempt(0, z, 0).stall_ms);
  }
  EXPECT_TRUE(saw_tail) << "heavy tail must produce outliers";
}

TEST(RetryPolicy, BackoffIsExponentialAndBounded) {
  RetryPolicy p;
  p.backoff_base_ms = 2.0;
  p.backoff_factor = 3.0;
  p.backoff_max_ms = 20.0;
  EXPECT_DOUBLE_EQ(p.backoff_ms(0), 2.0);
  EXPECT_DOUBLE_EQ(p.backoff_ms(1), 6.0);
  EXPECT_DOUBLE_EQ(p.backoff_ms(2), 18.0);
  EXPECT_DOUBLE_EQ(p.backoff_ms(3), 20.0);  // capped
  double prev = 0.0;
  for (int r = 0; r < 40; ++r) {
    const double ms = p.backoff_ms(r);
    EXPECT_GE(ms, prev);
    EXPECT_LE(ms, p.backoff_max_ms);
    prev = ms;
  }
}

// The total budget spans every attempt of one slice read: individual delays
// are clipped to whatever remains (flagged as clipped), and once the budget
// is spent every further delay is a counted zero.
TEST(RetryPolicy, TotalBackoffBudgetClipsDelays) {
  RetryPolicy p;
  p.backoff_base_ms = 4.0;
  p.backoff_factor = 2.0;
  p.backoff_max_ms = 64.0;
  p.total_backoff_cap_ms = 10.0;
  bool clipped = true;
  EXPECT_DOUBLE_EQ(p.capped_backoff_ms(0, 0.0, clipped), 4.0);
  EXPECT_FALSE(clipped);  // 4 fits in the remaining 10
  EXPECT_DOUBLE_EQ(p.capped_backoff_ms(1, 4.0, clipped), 6.0);
  EXPECT_TRUE(clipped);   // wanted 8, only 6 left
  EXPECT_DOUBLE_EQ(p.capped_backoff_ms(2, 10.0, clipped), 0.0);
  EXPECT_TRUE(clipped);   // budget exhausted: counted zero
  // Simulated retry sequence never sleeps past the budget in total.
  double spent = 0.0;
  for (int r = 0; r < 20; ++r) {
    bool c = false;
    spent += p.capped_backoff_ms(r, spent, c);
    EXPECT_LE(spent, p.total_backoff_cap_ms);
  }
  EXPECT_DOUBLE_EQ(spent, p.total_backoff_cap_ms);
}

class ResilientReadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fsys::temp_directory_path() /
            ("h4d_fault_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fsys::remove_all(root_);
    vol_ = Volume4<std::uint16_t>({6, 5, 4, 3});
    std::mt19937_64 rng(99);
    std::uniform_int_distribution<int> u(0, 3000);
    for (auto& x : vol_.storage()) x = static_cast<std::uint16_t>(u(rng));
  }
  void TearDown() override { fsys::remove_all(root_); }

  static ResilienceConfig fast_retry(DegradePolicy policy, int max_attempts = 4) {
    ResilienceConfig rc;
    rc.policy = policy;
    rc.retry.max_attempts = max_attempts;
    rc.retry.really_sleep = false;
    return rc;
  }

  fsys::path root_;
  Volume4<std::uint16_t> vol_{Vec4{1, 1, 1, 1}};
};

// bytes_read() counts only bytes that reached the caller: retried attempts
// and irrecoverable slices contribute nothing (the raw attempt traffic is
// attempted_bytes_read()). Pins the delivered-bytes semantics under faults.
TEST_F(ResilientReadTest, BytesReadCountsOnlyDeliveredBytes) {
  const DiskDataset ds = DiskDataset::create(root_, vol_, 1);
  const std::int64_t slice_bytes = 6 * 5 * 2;  // one 6x5 u16 slice

  {  // Healthy: delivered == attempted == one slice per read.
    ResilientReader reader(ds.node_reader(0), fast_retry(DegradePolicy::Retry));
    std::vector<std::uint16_t> out(6 * 5);
    for (const SliceRef& s : reader.slices()) {
      EXPECT_TRUE(reader.read_slice(s, out.data()));
    }
    const auto n = static_cast<std::int64_t>(reader.slices().size());
    EXPECT_EQ(reader.bytes_read(), n * slice_bytes);
    EXPECT_EQ(reader.attempted_bytes_read(), n * slice_bytes);
  }
  {  // Transient short reads: the failed attempts' bytes never reach the
     // caller, so delivered stays exactly one slice per slice while the raw
     // attempt traffic runs ahead. (This is the double-count regression pin:
     // retried slices must not count twice.)
    FaultConfig fc;
    fc.seed = 3;
    fc.p_short_read = 1.0;
    fc.max_transient_per_slice = 1;
    fc.really_sleep = false;
    FaultInjector inj(fc);
    ResilientReader reader(ds.node_reader(0), fast_retry(DegradePolicy::Retry), &inj);
    std::vector<std::uint16_t> out(6 * 5);
    for (const SliceRef& s : reader.slices()) {
      EXPECT_TRUE(reader.read_slice(s, out.data()));
    }
    const auto n = static_cast<std::int64_t>(reader.slices().size());
    EXPECT_GT(reader.report().read_retries, 0);
    EXPECT_EQ(reader.bytes_read(), n * slice_bytes);
    EXPECT_GE(reader.attempted_bytes_read(), n * slice_bytes);
  }
  {  // Irrecoverable (sticky corruption, no replica to fail over to): the
     // fill_value output delivers nothing; the wasted traffic still shows
     // in attempted_bytes_read().
    FaultConfig fc;
    fc.seed = 5;
    fc.p_corrupt = 1.0;
    fc.really_sleep = false;
    FaultInjector inj(fc);
    ResilienceConfig rc = fast_retry(DegradePolicy::SkipAndFill, 2);
    rc.fill_value = 99;
    ResilientReader reader(ds.node_reader(0), rc, &inj);
    std::vector<std::uint16_t> out(6 * 5);
    for (const SliceRef& s : reader.slices()) {
      EXPECT_FALSE(reader.read_slice(s, out.data()));
    }
    EXPECT_EQ(reader.bytes_read(), 0);
    EXPECT_GT(reader.attempted_bytes_read(), 0);
  }
}

TEST_F(ResilientReadTest, RetriesUntilSuccessAndReportsRecovery) {
  const DiskDataset ds = DiskDataset::create(root_, vol_, 1);

  FaultConfig fc;
  fc.seed = 1;
  fc.p_fail_open = 1.0;
  fc.max_transient_per_slice = 2;  // first two attempts of each slice fail
  fc.really_sleep = false;
  FaultInjector inj(fc);

  ResilientReader reader(ds.node_reader(0), fast_retry(DegradePolicy::Retry), &inj);
  const SliceRef& s = reader.slices().front();
  std::vector<std::uint16_t> out(6 * 5);
  EXPECT_TRUE(reader.read_slice(s, out.data()));
  for (std::int64_t y = 0; y < 5; ++y)
    for (std::int64_t x = 0; x < 6; ++x) {
      EXPECT_EQ(out[static_cast<std::size_t>(y * 6 + x)], vol_.at(x, y, s.z, s.t));
    }
  EXPECT_EQ(reader.report().read_retries, 2);
  EXPECT_EQ(reader.report().slices_recovered, 1);
  EXPECT_EQ(reader.report().slices_skipped, 0);
}

TEST_F(ResilientReadTest, FailFastDoesNotRetry) {
  const DiskDataset ds = DiskDataset::create(root_, vol_, 1);
  FaultConfig fc;
  fc.seed = 1;
  fc.p_fail_open = 1.0;
  FaultInjector inj(fc);
  ResilientReader reader(ds.node_reader(0), fast_retry(DegradePolicy::FailFast), &inj);
  const SliceRef s = reader.slices().front();
  std::vector<std::uint16_t> out(6 * 5);
  EXPECT_THROW(reader.read_slice(s, out.data()), std::runtime_error);
  EXPECT_EQ(inj.attempts(s.t, s.z), 1);  // exactly one attempt, no retries
  EXPECT_EQ(reader.report().read_retries, 0);
}

TEST_F(ResilientReadTest, RetryExhaustionPropagates) {
  const DiskDataset ds = DiskDataset::create(root_, vol_, 1);
  FaultConfig fc;
  fc.seed = 1;
  fc.p_fail_open = 1.0;  // unbounded transient budget: never recovers
  FaultInjector inj(fc);
  ResilientReader reader(ds.node_reader(0), fast_retry(DegradePolicy::Retry, 3), &inj);
  const SliceRef s = reader.slices().front();
  std::vector<std::uint16_t> out(6 * 5);
  try {
    reader.read_slice(s, out.data());
    FAIL() << "expected exhaustion";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("3 attempts"), std::string::npos) << e.what();
  }
  EXPECT_EQ(reader.report().read_retries, 2);
}

// Budget clips are counted in the report (bookkeeping, not a fault): with a
// 10 ms budget and 4/8/16/32/64 wanted delays, exactly the last four clip.
TEST_F(ResilientReadTest, BackoffBudgetClipsAreCountedInReport) {
  const DiskDataset ds = DiskDataset::create(root_, vol_, 1);
  FaultConfig fc;
  fc.seed = 2;
  fc.p_fail_open = 1.0;  // unbounded transient budget: never recovers
  fc.really_sleep = false;
  FaultInjector inj(fc);
  ResilienceConfig rc = fast_retry(DegradePolicy::SkipAndFill, 6);
  rc.retry.backoff_base_ms = 4.0;
  rc.retry.backoff_factor = 2.0;
  rc.retry.backoff_max_ms = 64.0;
  rc.retry.total_backoff_cap_ms = 10.0;
  ResilientReader reader(ds.node_reader(0), rc, &inj);
  const SliceRef& s = reader.slices().front();
  std::vector<std::uint16_t> out(6 * 5);
  EXPECT_FALSE(reader.read_slice(s, out.data()));
  EXPECT_EQ(reader.report().read_retries, 5);
  EXPECT_EQ(reader.report().backoffs_capped, 4);
  EXPECT_EQ(reader.report().slices_skipped, 1);
  // Clips are bookkeeping: a clean() report never depends on them.
  FaultReport r;
  r.backoffs_capped = 3;
  EXPECT_TRUE(r.clean());
}

TEST_F(ResilientReadTest, SkipAndFillProducesCompleteVolumeAndExactReport) {
  const DiskDataset ds = DiskDataset::create(root_, vol_, 2);

  FaultConfig fc;
  fc.seed = 17;
  fc.p_corrupt = 0.4;  // sticky: checksum verification must catch these
  fc.really_sleep = false;
  FaultInjector inj(fc);

  // The expected damage inventory is exactly the injector's sticky set.
  std::set<std::pair<std::int64_t, std::int64_t>> expected;
  for (std::int64_t t = 0; t < vol_.dims()[3]; ++t)
    for (std::int64_t z = 0; z < vol_.dims()[2]; ++z) {
      if (inj.is_slice_corrupted(t, z)) expected.insert({t, z});
    }
  ASSERT_FALSE(expected.empty()) << "seed must corrupt at least one slice";
  ASSERT_LT(expected.size(), static_cast<std::size_t>(vol_.dims()[2] * vol_.dims()[3]));

  ResilienceConfig rc = fast_retry(DegradePolicy::SkipAndFill, 2);
  rc.fill_value = 1234;
  FaultReport report;
  const Volume4<std::uint16_t> got =
      ds.read_region(Region4::whole(vol_.dims()), rc, &inj, &report);

  ASSERT_EQ(got.dims(), vol_.dims());  // complete volume despite the damage
  for (std::int64_t t = 0; t < vol_.dims()[3]; ++t)
    for (std::int64_t z = 0; z < vol_.dims()[2]; ++z) {
      const bool bad = expected.count({t, z}) != 0;
      for (std::int64_t y = 0; y < vol_.dims()[1]; ++y)
        for (std::int64_t x = 0; x < vol_.dims()[0]; ++x) {
          if (bad) {
            ASSERT_EQ(got.at(x, y, z, t), 1234) << "t=" << t << " z=" << z;
          } else {
            ASSERT_EQ(got.at(x, y, z, t), vol_.at(x, y, z, t)) << "t=" << t << " z=" << z;
          }
        }
    }

  std::set<std::pair<std::int64_t, std::int64_t>> reported;
  for (const SkippedSlice& s : report.skipped) reported.insert({s.t, s.z});
  EXPECT_EQ(reported, expected);
  EXPECT_EQ(report.slices_skipped, static_cast<std::int64_t>(expected.size()));
  EXPECT_EQ(static_cast<std::size_t>(report.slices_skipped), report.skipped.size());
  EXPECT_GE(report.checksum_failures, report.slices_skipped);
  EXPECT_FALSE(report.clean());
  EXPECT_NE(report.summary().find("skipped"), std::string::npos);
}

struct FaultE2E : ::testing::Test {
  void SetUp() override {
    root_ = fsys::temp_directory_path() /
            ("h4d_fault_e2e_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fsys::remove_all(root_);
    PhantomConfig pcfg;
    pcfg.dims = {16, 14, 5, 4};
    pcfg.num_tumors = 1;
    pcfg.seed = 13;
    phantom_ = generate_phantom(pcfg).volume;
    DiskDataset::create(root_, phantom_, 2);
  }
  void TearDown() override { fsys::remove_all(root_); }

  core::PipelineConfig config() const {
    core::PipelineConfig cfg;
    cfg.dataset_root = root_;
    cfg.engine.roi_dims = {5, 5, 3, 3};
    cfg.engine.num_levels = 16;
    cfg.engine.features = haralick::FeatureSet::paper_eval();
    cfg.texture_chunk = {10, 10, 4, 3};
    cfg.rfr_copies = 2;
    cfg.variant = core::Variant::HMP;
    cfg.hmp_copies = 2;
    cfg.resilience.retry.really_sleep = false;
    return cfg;
  }

  fsys::path root_;
  Volume4<std::uint16_t> phantom_{Vec4{1, 1, 1, 1}};
};

TEST_F(FaultE2E, RetryPolicyIsBitIdenticalToFaultFreeRun) {
  const core::AnalysisResult clean = core::analyze_threaded(config());
  ASSERT_TRUE(clean.faults.clean());

  core::PipelineConfig cfg = config();
  cfg.faults.seed = 29;
  cfg.faults.p_fail_open = 0.25;
  cfg.faults.p_short_read = 0.25;
  cfg.faults.max_transient_per_slice = 2;
  cfg.faults.really_sleep = false;
  cfg.resilience.policy = io::DegradePolicy::Retry;
  cfg.resilience.retry.max_attempts = 4;  // > transient budget: must recover
  const core::AnalysisResult faulty = core::analyze_threaded(cfg);

  EXPECT_GT(faulty.faults.read_retries, 0);
  EXPECT_GT(faulty.faults.slices_recovered, 0);
  EXPECT_EQ(faulty.faults.slices_skipped, 0);

  ASSERT_EQ(clean.maps.size(), faulty.maps.size());
  for (const auto& [feature, map] : clean.maps) {
    ASSERT_EQ(map.storage(), faulty.maps.at(feature).storage())
        << haralick::feature_name(feature);
  }

  // The retries surfaced in the executor's work meters too.
  std::int64_t metered_retries = 0;
  for (const auto& c : faulty.stats.copies) metered_retries += c.meter.read_retries;
  EXPECT_EQ(metered_retries, faulty.faults.read_retries);
}

TEST_F(FaultE2E, SkipAndFillCompletesWithExactDamageInventory) {
  core::PipelineConfig cfg = config();
  cfg.faults.seed = 47;
  cfg.faults.p_corrupt = 0.2;
  cfg.faults.really_sleep = false;
  cfg.resilience.policy = io::DegradePolicy::SkipAndFill;
  cfg.resilience.retry.max_attempts = 2;

  FaultInjector oracle(cfg.faults);
  std::set<std::pair<std::int64_t, std::int64_t>> expected;
  for (std::int64_t t = 0; t < phantom_.dims()[3]; ++t)
    for (std::int64_t z = 0; z < phantom_.dims()[2]; ++z) {
      if (oracle.is_slice_corrupted(t, z)) expected.insert({t, z});
    }
  ASSERT_FALSE(expected.empty()) << "seed must corrupt at least one slice";

  const core::AnalysisResult r = core::analyze_threaded(cfg);  // must complete
  std::set<std::pair<std::int64_t, std::int64_t>> reported;
  for (const SkippedSlice& s : r.faults.skipped) reported.insert({s.t, s.z});
  EXPECT_EQ(reported, expected);
  EXPECT_EQ(r.faults.slices_skipped, static_cast<std::int64_t>(expected.size()));
  EXPECT_GT(r.faults.checksum_failures, 0);

  std::int64_t metered_skips = 0, metered_checksum = 0;
  for (const auto& c : r.stats.copies) {
    metered_skips += c.meter.slices_skipped;
    metered_checksum += c.meter.checksum_failures;
  }
  EXPECT_EQ(metered_skips, r.faults.slices_skipped);
  EXPECT_EQ(metered_checksum, r.faults.checksum_failures);

  // Maps still cover every ROI origin (the run really did complete).
  const Region4 origins =
      roi_origin_region(phantom_.dims(), cfg.engine.roi_dims);
  for (const auto& [feature, map] : r.maps) {
    EXPECT_EQ(map.dims(), origins.size) << haralick::feature_name(feature);
  }
}

}  // namespace
}  // namespace h4d::io
