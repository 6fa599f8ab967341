// Tail-tolerant I/O (resilience layer, part 3): per-node latency tracking,
// adaptive per-read deadlines, the abandonable slice-fetch pool, hedged
// replica reads, and gray-failure (slow-node) eviction — capped by the
// end-to-end drill: one replica node injected heavy-tailed slow must not
// change a single output byte, and must be detected, hedged around, and
// evicted with reason `slow`.
#include "io/tail.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <random>

#include "core/analysis.hpp"
#include "io/dataset.hpp"
#include "io/fault.hpp"
#include "io/phantom.hpp"
#include "io/replica_set.hpp"
#include "io/resilient_reader.hpp"

namespace h4d::io {
namespace {

namespace fsys = std::filesystem;
using steady = std::chrono::steady_clock;

// --- LatencyTracker ---------------------------------------------------------

TEST(LatencyTracker, RecordsPerNodeStatistics) {
  LatencyTracker lt(2);
  for (int i = 0; i < 100; ++i) lt.record(0, 1.0);
  lt.record(0, 100.0);
  EXPECT_EQ(lt.reads(0), 101);
  EXPECT_EQ(lt.reads(1), 0);
  // Histogram buckets grow by 25%, so percentiles are read back with that
  // resolution: the p50 sits at the 1 ms bucket's upper edge, and the tail
  // quantile lands in the outlier's bucket.
  EXPECT_GE(lt.percentile_ms(0, 0.5), 1.0);
  EXPECT_LE(lt.percentile_ms(0, 0.5), 2.0);
  EXPECT_GT(lt.percentile_ms(0, 0.999), 50.0);
  EXPECT_GT(lt.ewma_ms(0), 0.0);
  EXPECT_EQ(lt.percentile_ms(1, 0.5), 0.0);  // no history
  const std::vector<NodeLatencyStats> snap = lt.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].node, 0);
  EXPECT_EQ(snap[0].reads, 101);
  EXPECT_GT(snap[0].p99_ms, 0.0);
  EXPECT_EQ(snap[1].reads, 0);
  // Out-of-range nodes and negative/NaN durations are ignored, not UB.
  lt.record(7, 1.0);
  lt.record(-1, 1.0);
  lt.record(0, -3.0);
  EXPECT_EQ(lt.snapshot().size(), 2u);
  EXPECT_EQ(lt.reads(0), 101);
}

TEST(LatencyTracker, AdaptiveDeadlineClampsAndWarmsUp) {
  LatencyTracker lt(1);
  TailConfig off;
  EXPECT_DOUBLE_EQ(lt.deadline_for(0, off), 0.0);  // deadlines disabled

  TailConfig cfg;
  cfg.deadline_enabled = true;  // auto: clamp(3 x p99, 5, 500)
  // Cold node: the ceiling applies — a zero p99 must not abandon healthy
  // reads.
  EXPECT_DOUBLE_EQ(lt.deadline_for(0, cfg), cfg.deadline_ceiling_ms);
  for (int i = 0; i < 100; ++i) lt.record(0, 10.0);
  // Warm: 3 x p99 with p99 in the 10 ms bucket (~10.6 ms upper edge).
  EXPECT_GT(lt.deadline_for(0, cfg), 25.0);
  EXPECT_LT(lt.deadline_for(0, cfg), 45.0);
  // A pinned deadline bypasses the statistics entirely.
  cfg.deadline_ms = 42.0;
  EXPECT_DOUBLE_EQ(lt.deadline_for(0, cfg), 42.0);
  cfg.deadline_ms = 0.0;
  // Floor: a very fast node still gets deadline_floor_ms of grace.
  LatencyTracker fast(1);
  for (int i = 0; i < 20; ++i) fast.record(0, 0.01);
  EXPECT_DOUBLE_EQ(fast.deadline_for(0, cfg), cfg.deadline_floor_ms);
  // Ceiling: a pathologically slow node cannot stretch deadlines past it.
  LatencyTracker slow(1);
  for (int i = 0; i < 20; ++i) slow.record(0, 10000.0);
  EXPECT_DOUBLE_EQ(slow.deadline_for(0, cfg), cfg.deadline_ceiling_ms);
  // Unknown node: ceiling (cold by definition).
  EXPECT_DOUBLE_EQ(lt.deadline_for(9, cfg), cfg.deadline_ceiling_ms);
}

TEST(LatencyTracker, HedgeDelayFloorsWhileCold) {
  TailConfig cfg;
  cfg.hedge_enabled = true;
  cfg.hedge_pct = 95.0;
  LatencyTracker lt(1);
  EXPECT_DOUBLE_EQ(lt.hedge_delay_for(0, cfg), cfg.hedge_floor_ms);  // cold
  for (int i = 0; i < 100; ++i) lt.record(0, 8.0);
  const double d = lt.hedge_delay_for(0, cfg);
  EXPECT_GE(d, 8.0);  // p95 of an 8 ms history, bucket-rounded up
  EXPECT_LE(d, 11.0);
  // A sub-millisecond history floors at hedge_floor_ms: hedging on noise
  // would double every read.
  LatencyTracker fast(1);
  for (int i = 0; i < 100; ++i) fast.record(0, 0.01);
  EXPECT_DOUBLE_EQ(fast.hedge_delay_for(0, cfg), cfg.hedge_floor_ms);
}

TEST(LatencyTracker, BreachStreakTriggersAtSlowAfterAndResets) {
  LatencyTracker lt(2);
  EXPECT_FALSE(lt.note_breach(0, 3));
  EXPECT_FALSE(lt.note_breach(0, 3));
  EXPECT_TRUE(lt.note_breach(0, 3));   // third consecutive breach: evict
  EXPECT_FALSE(lt.note_breach(0, 3));  // streak restarted after the verdict
  lt.note_on_time(0);                  // an on-time read clears the streak
  EXPECT_FALSE(lt.note_breach(0, 3));
  EXPECT_FALSE(lt.note_breach(0, 3));
  EXPECT_TRUE(lt.note_breach(0, 3));
  // Every breach counts globally and per node, streak verdicts or not.
  EXPECT_EQ(lt.breaches.load(), 7);
  EXPECT_EQ(lt.snapshot()[0].breaches, 7);
  EXPECT_EQ(lt.snapshot()[1].breaches, 0);
  // Nodes have independent streaks; out-of-range nodes are ignored.
  EXPECT_FALSE(lt.note_breach(1, 2));
  EXPECT_TRUE(lt.note_breach(1, 2));
  EXPECT_FALSE(lt.note_breach(-1, 1));
  EXPECT_FALSE(lt.note_breach(5, 1));
}

TEST(LatencyTracker, HedgeInflightCapIsGlobal) {
  LatencyTracker lt(1);
  EXPECT_TRUE(lt.try_begin_hedge(2));
  EXPECT_TRUE(lt.try_begin_hedge(2));
  EXPECT_FALSE(lt.try_begin_hedge(2));  // cap reached
  lt.end_hedge();
  EXPECT_TRUE(lt.try_begin_hedge(2));
  lt.end_hedge();
  lt.end_hedge();
  // A cap below 1 still admits one hedge at a time (never locks out).
  EXPECT_TRUE(lt.try_begin_hedge(0));
  EXPECT_FALSE(lt.try_begin_hedge(0));
  lt.end_hedge();
}

// --- SliceFetchPool ---------------------------------------------------------

class SliceFetchPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fsys::temp_directory_path() /
            ("h4d_tail_pool_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fsys::remove_all(root_);
    vol_ = Volume4<std::uint16_t>({6, 5, 4, 3});
    std::mt19937_64 rng(7);
    std::uniform_int_distribution<int> u(0, 3000);
    for (auto& x : vol_.storage()) x = static_cast<std::uint16_t>(u(rng));
  }
  void TearDown() override { fsys::remove_all(root_); }

  static SliceFetchPool::Request request(const StorageNodeReader& reader,
                                         const DatasetMeta& meta, const SliceRef& slice) {
    SliceFetchPool::Request req;
    req.node_dir = reader.node_dir();
    req.meta = meta;
    req.node = 0;
    req.slice = slice;
    req.verify = true;
    return req;
  }

  static void wait_all(const std::shared_ptr<FetchEvent>& event,
                       std::initializer_list<std::shared_ptr<FetchTicket>> tickets) {
    int seen = 0;
    const auto give_up = steady::now() + std::chrono::seconds(10);
    for (;;) {
      bool all = true;
      for (const auto& t : tickets) all = all && t->done();
      if (all) return;
      ASSERT_LT(steady::now(), give_up) << "pooled fetch never completed";
      seen = event->wait_until(steady::now() + std::chrono::milliseconds(50), seen);
    }
  }

  fsys::path root_;
  Volume4<std::uint16_t> vol_{Vec4{1, 1, 1, 1}};
};

TEST_F(SliceFetchPoolTest, FetchesAndVerifiesWholeSlices) {
  const DiskDataset ds = DiskDataset::create(root_, vol_, 1);
  const StorageNodeReader reader = ds.node_reader(0);
  SliceFetchPool pool(2);
  auto event = std::make_shared<FetchEvent>();
  const SliceRef slice = reader.slices().front();
  auto ticket = pool.submit(request(reader, ds.meta(), slice), event);
  wait_all(event, {ticket});
  FetchResult& r = ticket->result();
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.crc_failed);
  EXPECT_EQ(r.bytes_read, ds.meta().slice_bytes());
  EXPECT_GE(r.service_ms, 0.0);
  ASSERT_EQ(r.bytes.size(), static_cast<std::size_t>(ds.meta().slice_bytes()));
  const auto* px = reinterpret_cast<const std::uint16_t*>(r.bytes.data());
  for (std::int64_t y = 0; y < 5; ++y)
    for (std::int64_t x = 0; x < 6; ++x) {
      ASSERT_EQ(px[y * 6 + x], vol_.at(x, y, slice.z, slice.t));
    }
}

TEST_F(SliceFetchPoolTest, ReportsCrcFailuresAsSuch) {
  const DiskDataset ds = DiskDataset::create(root_, vol_, 1);
  const StorageNodeReader reader = ds.node_reader(0);
  const SliceRef slice = reader.slices().front();
  {  // Flip one byte of the slice file on disk behind the index's CRC.
    std::fstream f(reader.node_dir() / slice.filename,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x5A);
    f.seekp(0);
    f.write(&c, 1);
  }
  SliceFetchPool pool(1);
  auto event = std::make_shared<FetchEvent>();
  auto ticket = pool.submit(request(reader, ds.meta(), slice), event);
  wait_all(event, {ticket});
  FetchResult& r = ticket->result();
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.crc_failed);  // typed: the hedge race must not count this a win
  EXPECT_NE(r.error.find("checksum mismatch"), std::string::npos) << r.error;
  EXPECT_GT(r.bytes_read, 0);  // the raw attempt traffic still shows
}

TEST_F(SliceFetchPoolTest, AbandonedTicketsAreCancelledBeforeStart) {
  const DiskDataset ds = DiskDataset::create(root_, vol_, 1);
  const StorageNodeReader reader = ds.node_reader(0);
  // One worker, and the first request stalls it for ~50 ms: the second
  // request is still queued when it is abandoned, so it must complete as
  // cancelled without touching disk.
  FaultConfig fc;
  fc.p_stall = 1.0;
  fc.stall_ms = 50.0;
  fc.stall_cap_ms = 50.0;
  FaultInjector inj(fc);
  SliceFetchPool pool(1);
  auto event = std::make_shared<FetchEvent>();
  SliceFetchPool::Request slow = request(reader, ds.meta(), reader.slices()[0]);
  slow.injector = &inj;
  SliceFetchPool::Request queued = request(reader, ds.meta(), reader.slices()[1]);
  auto t1 = pool.submit(slow, event);
  auto t2 = pool.submit(queued, event);
  t2->abandon();
  EXPECT_TRUE(t2->abandoned());
  wait_all(event, {t1, t2});
  EXPECT_TRUE(t1->result().ok) << t1->result().error;  // a stall only delays
  EXPECT_FALSE(t2->result().ok);
  EXPECT_EQ(t2->result().error, "abandoned before start");
  EXPECT_EQ(t2->result().bytes_read, 0);
}

TEST_F(SliceFetchPoolTest, FailedFetchesCarryTheReason) {
  const DiskDataset ds = DiskDataset::create(root_, vol_, 1);
  const StorageNodeReader reader = ds.node_reader(0);
  SliceFetchPool pool(1);
  SliceFetchPool::Request req = request(reader, ds.meta(), reader.slices().front());
  req.node_dir = root_ / "nonexistent_node";
  auto event = std::make_shared<FetchEvent>();
  auto ticket = pool.submit(req, event);
  wait_all(event, {ticket});
  EXPECT_FALSE(ticket->result().ok);
  EXPECT_FALSE(ticket->result().crc_failed);
  EXPECT_FALSE(ticket->result().error.empty());
}

// --- ResilientReader tail path ----------------------------------------------

class TailReadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fsys::temp_directory_path() /
            ("h4d_tail_read_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fsys::remove_all(root_);
    vol_ = Volume4<std::uint16_t>({6, 5, 4, 3});
    std::mt19937_64 rng(23);
    std::uniform_int_distribution<int> u(0, 3000);
    for (auto& x : vol_.storage()) x = static_cast<std::uint16_t>(u(rng));
  }
  void TearDown() override { fsys::remove_all(root_); }

  void expect_slice_matches(const SliceRef& s, const std::vector<std::uint16_t>& out) {
    for (std::int64_t y = 0; y < 5; ++y)
      for (std::int64_t x = 0; x < 6; ++x) {
        ASSERT_EQ(out[static_cast<std::size_t>(y * 6 + x)], vol_.at(x, y, s.z, s.t))
            << "t=" << s.t << " z=" << s.z;
      }
  }

  fsys::path root_;
  Volume4<std::uint16_t> vol_{Vec4{1, 1, 1, 1}};
};

TEST_F(TailReadTest, HedgedReadsWinAgainstAGrayPrimaryAndEvictIt) {
  const DiskDataset ds = DiskDataset::create(root_, vol_, 2, 2);
  ReplicaSet replicas(root_, ds.meta(), {});
  LatencyTracker tracker(2);
  // Node 0 is gray: every primary read stalls ~10 ms (alive, just slow), so
  // the hedge to node 1 wins the race every time. The injector is declared
  // before the pool: a lost primary fetch may still be running on a pool
  // thread, and the pool's destructor joins it before the injector dies.
  FaultConfig fc;
  fc.seed = 9;
  fc.p_stall = 1.0;
  fc.stall_ms = 10.0;
  fc.stall_cap_ms = 25.0;
  FaultInjector inj(fc);
  SliceFetchPool pool(2);
  TailConfig tail;
  tail.hedge_enabled = true;
  tail.hedge_pct = 90.0;
  tail.hedge_floor_ms = 0.5;

  ResilienceConfig rc;
  rc.policy = DegradePolicy::Retry;
  rc.retry.really_sleep = false;
  ResilientReader reader(ds.node_reader(0), rc, &inj, nullptr, &replicas);
  reader.attach_tail(tail, &tracker, &pool);

  std::vector<std::uint16_t> out(6 * 5);
  for (const SliceRef& s : reader.slices()) {
    ASSERT_TRUE(reader.read_slice_region(s, 0, 0, 6, 5, out.data()));
    expect_slice_matches(s, out);
  }

  EXPECT_GT(reader.tail_hedges_issued(), 0);
  EXPECT_GT(reader.tail_hedges_won(), 0);
  EXPECT_LE(reader.tail_hedges_won(), reader.tail_hedges_issued());
  // The per-reader counters and the shared tracker agree exactly (one
  // reader: the deltas are the totals).
  EXPECT_EQ(tracker.hedges_issued.load(), reader.tail_hedges_issued());
  EXPECT_EQ(tracker.hedges_won.load(), reader.tail_hedges_won());
  EXPECT_EQ(tracker.hedges_abandoned.load(), reader.tail_hedges_abandoned());
  EXPECT_EQ(tracker.reads_abandoned.load(), 0);  // deadlines were off
  // Three consecutive lost hedges evicted node 0 as slow, through the same
  // probation machinery as failure evictions.
  EXPECT_EQ(reader.tail_slow_evictions(), 1);
  EXPECT_EQ(tracker.evictions_slow.load(), 1);
  EXPECT_TRUE(replicas.node_evicted(0));
  EXPECT_EQ(replicas.evictions_slow(), 1);
  const std::vector<EvictionEvent> events = replicas.eviction_events();
  ASSERT_GE(events.size(), 1u);
  EXPECT_EQ(events[0].node, 0);
  EXPECT_EQ(events[0].reason, EvictReason::Slow);
  // Node 1 won the hedges: its latency history carries the reads.
  EXPECT_GT(tracker.reads(1), 0);
}

TEST_F(TailReadTest, DeadlineExpiryAbandonsAndFallsBackSynchronously) {
  const DiskDataset ds = DiskDataset::create(root_, vol_, 1);
  LatencyTracker tracker(1);
  // Every pooled read stalls ~20 ms and blows the 5 ms deadline; the
  // abandoned read is replaced by the synchronous fallback, which delivers
  // the same bytes (a stall only delays). The abandoned fetch keeps using
  // the injector, so the injector outlives the pool that runs it.
  FaultConfig fc;
  fc.seed = 4;
  fc.p_stall = 1.0;
  fc.stall_ms = 20.0;
  fc.stall_cap_ms = 25.0;
  FaultInjector inj(fc);
  SliceFetchPool pool(2);
  TailConfig tail;
  tail.deadline_enabled = true;
  tail.deadline_ms = 5.0;  // pinned, far below the injected stall

  ResilienceConfig rc;
  rc.policy = DegradePolicy::Retry;
  rc.retry.really_sleep = false;
  ResilientReader reader(ds.node_reader(0), rc, &inj);
  reader.attach_tail(tail, &tracker, &pool);

  std::vector<std::uint16_t> out(6 * 5);
  for (const SliceRef& s : reader.slices()) {
    ASSERT_TRUE(reader.read_slice_region(s, 0, 0, 6, 5, out.data()));
    expect_slice_matches(s, out);
  }
  EXPECT_GT(reader.tail_reads_abandoned(), 0);
  EXPECT_EQ(tracker.reads_abandoned.load(), reader.tail_reads_abandoned());
  EXPECT_GT(reader.tail_breaches(), 0);
  EXPECT_EQ(reader.tail_hedges_issued(), 0);  // hedging was off
  // Without a replica set there is nothing to evict — abandonment alone
  // must not fabricate evictions.
  EXPECT_EQ(reader.tail_slow_evictions(), 0);
  EXPECT_EQ(reader.report().nodes_evicted, 0);
}

TEST_F(TailReadTest, TailLayerOffByDefaultTouchesNothing) {
  const DiskDataset ds = DiskDataset::create(root_, vol_, 1);
  LatencyTracker tracker(1);
  SliceFetchPool pool(1);
  ResilienceConfig rc;
  rc.policy = DegradePolicy::Retry;
  ResilientReader reader(ds.node_reader(0), rc);
  reader.attach_tail(TailConfig{}, &tracker, &pool);  // enabled() == false
  std::vector<std::uint16_t> out(6 * 5);
  for (const SliceRef& s : reader.slices()) {
    ASSERT_TRUE(reader.read_slice_region(s, 0, 0, 6, 5, out.data()));
  }
  EXPECT_EQ(tracker.hedges_issued.load(), 0);
  EXPECT_EQ(tracker.reads_abandoned.load(), 0);
  EXPECT_EQ(tracker.reads(0), 0);  // no pooled reads happened at all
}

// --- Gray-failure end-to-end drill ------------------------------------------

struct TailE2E : ::testing::Test {
  void SetUp() override {
    root_ = fsys::temp_directory_path() /
            ("h4d_tail_e2e_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fsys::remove_all(root_);
    PhantomConfig pcfg;
    pcfg.dims = {16, 14, 5, 4};
    pcfg.num_tumors = 1;
    pcfg.seed = 13;
    phantom_ = generate_phantom(pcfg).volume;
    DiskDataset::create(root_, phantom_, 2, 2);  // 2 nodes, r = 2
  }
  void TearDown() override { fsys::remove_all(root_); }

  core::PipelineConfig config() const {
    core::PipelineConfig cfg;
    cfg.dataset_root = root_;
    cfg.engine.roi_dims = {5, 5, 3, 3};
    cfg.engine.num_levels = 16;
    cfg.engine.features = haralick::FeatureSet::paper_eval();
    cfg.texture_chunk = {10, 10, 4, 3};
    cfg.rfr_copies = 2;  // one per storage node
    cfg.variant = core::Variant::HMP;
    cfg.hmp_copies = 2;
    cfg.resilience.retry.really_sleep = false;
    return cfg;
  }

  fsys::path root_;
  Volume4<std::uint16_t> phantom_{Vec4{1, 1, 1, 1}};
};

TEST_F(TailE2E, GrayNodeIsHedgedAroundEvictedAndByteIdentical) {
  const auto clean_t0 = steady::now();
  const core::AnalysisResult clean = core::analyze_threaded(config());
  const double clean_s =
      std::chrono::duration<double>(steady::now() - clean_t0).count();
  ASSERT_TRUE(clean.faults.clean());
  EXPECT_FALSE(clean.stats.tail.present);  // tail layer off: no section

  // Same run, but node 0 is gray: every read it serves stalls with a
  // heavy-tailed (Pareto) duration scaled 32x on that node. Stalls only
  // delay — no read fails — so any output difference would be a tail-layer
  // bug.
  core::PipelineConfig cfg = config();
  cfg.faults.seed = 31;
  cfg.faults.p_stall = 1.0;
  cfg.faults.stall_ms = 0.2;
  cfg.faults.stall_cap_ms = 25.0;
  cfg.faults.stall_dist = StallDist::Pareto;
  cfg.faults.pareto_alpha = 1.5;
  cfg.faults.slow_nodes[0] = 32.0;
  cfg.tail.hedge_enabled = true;
  cfg.tail.hedge_pct = 90.0;
  cfg.tail.hedge_floor_ms = 0.5;
  cfg.tail.deadline_enabled = true;  // adaptive deadlines ride along
  cfg.tail.slow_after = 3;

  const auto gray_t0 = steady::now();
  const core::AnalysisResult gray = core::analyze_threaded(cfg);
  const double gray_s =
      std::chrono::duration<double>(steady::now() - gray_t0).count();

  // 1. Byte-identical output: hedge winners are CRC-verified whole slices,
  //    the same bytes any replica serves.
  ASSERT_EQ(clean.maps.size(), gray.maps.size());
  for (const auto& [feature, map] : clean.maps) {
    ASSERT_EQ(map.storage(), gray.maps.at(feature).storage())
        << haralick::feature_name(feature);
  }

  // 2. The tail layer engaged: hedges were issued and won against the gray
  //    node, and the io_tail report carries them.
  const fs::TailReport& tail = gray.stats.tail;
  ASSERT_TRUE(tail.present);
  EXPECT_TRUE(tail.hedge_enabled);
  EXPECT_EQ(tail.deadline_mode, "auto");
  EXPECT_GT(tail.hedges_issued, 0);
  EXPECT_GT(tail.hedges_won, 0);
  EXPECT_LE(tail.hedges_won, tail.hedges_issued);
  EXPECT_GT(tail.reads, 0);

  // 3. The gray node was evicted with the typed reason `slow`.
  bool slow_evicted = false;
  for (const fs::TailEvictionRow& e : tail.evictions) {
    if (e.node == 0 && e.reason == "slow") slow_evicted = true;
  }
  EXPECT_TRUE(slow_evicted) << "node 0 must be evicted as slow";
  EXPECT_GT(tail.evictions_slow, 0);

  // 4. The work meters' deltas sum to the tracker's exact totals.
  std::int64_t metered_issued = 0, metered_won = 0, metered_breaches = 0;
  for (const auto& c : gray.stats.copies) {
    metered_issued += c.meter.hedges_issued;
    metered_won += c.meter.hedges_won;
    metered_breaches += c.meter.tail_breaches;
  }
  EXPECT_EQ(metered_issued, tail.hedges_issued);
  EXPECT_EQ(metered_won, tail.hedges_won);
  EXPECT_EQ(metered_breaches, tail.breaches);

  // 5. Tail tolerance bounded the damage: the gray run finishes within ~2x
  //    the clean run (generous absolute slack for loaded CI machines; an
  //    unhedged run would eat the full 32x stall on every node-0 read).
  EXPECT_LE(gray_s, 2.0 * clean_s + 1.0)
      << "gray " << gray_s << "s vs clean " << clean_s << "s";
}

}  // namespace
}  // namespace h4d::io
