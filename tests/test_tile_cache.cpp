// Shared out-of-core slice cache: budget enforcement, deterministic LRU
// eviction, corrupt-slice exclusion under fault injection, byte-identity
// of cached runs, and a concurrent stress (TSan tier).
#include "io/tile_cache.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <random>
#include <set>
#include <thread>

#include "core/analysis.hpp"
#include "io/dataset.hpp"
#include "io/fault.hpp"
#include "io/phantom.hpp"
#include "io/resilient_reader.hpp"

namespace h4d::io {
namespace {

namespace fsys = std::filesystem;

/// A standalone meta (no disk) for direct-cache tests: W x H u16 slices.
DatasetMeta make_meta(std::int64_t w, std::int64_t h, std::int64_t nz,
                      std::int64_t nt) {
  DatasetMeta meta;
  meta.dims = {w, h, nz, nt};
  meta.dtype = Dtype::U16;
  meta.value_max = 65535.0;
  return meta;
}

/// Slice bytes with a per-element signature of (t, z, x, y), so a served
/// slice can be checked against what was inserted.
std::vector<std::uint8_t> make_slice(const DatasetMeta& meta, std::int64_t t,
                                     std::int64_t z) {
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(meta.slice_bytes()));
  auto* px = reinterpret_cast<std::uint16_t*>(bytes.data());
  for (std::int64_t y = 0; y < meta.dims[1]; ++y)
    for (std::int64_t x = 0; x < meta.dims[0]; ++x) {
      px[y * meta.dims[0] + x] =
          static_cast<std::uint16_t>(1000 * t + 100 * z + 10 * y + x);
    }
  return bytes;
}

TEST(TileCache, ServesExactBytesOnFullHitAndCountsProbes) {
  const DatasetMeta meta = make_meta(32, 24, 2, 2);
  TileCacheConfig cfg;
  cfg.budget_bytes = 1 << 20;
  TileCache cache(cfg);
  const std::uint64_t ds = TileCache::dataset_key("/x", meta);
  const int tenant = cache.tenant_id("");

  std::vector<std::uint16_t> out(32 * 24, 0xFFFF);
  // Nothing resident: one probe, one miss.
  EXPECT_FALSE(cache.read_slice(ds, meta, 0, 0, out.data(), tenant));
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().bytes_served, 0);

  const auto bytes = make_slice(meta, 0, 0);
  cache.insert_slice(ds, meta, 0, 0, bytes.data(), false, tenant);
  EXPECT_TRUE(cache.contains(ds, 0, 0));
  EXPECT_FALSE(cache.contains(ds, 0, 1));

  // One probe, one hit, every byte right.
  EXPECT_TRUE(cache.read_slice(ds, meta, 0, 0, out.data(), tenant));
  const auto* px = reinterpret_cast<const std::uint16_t*>(bytes.data());
  for (std::int64_t i = 0; i < 32 * 24; ++i) ASSERT_EQ(out[i], px[i]) << i;

  const TileCacheStats totals = cache.stats();
  EXPECT_EQ(totals.lookups, totals.hits + totals.misses);
  EXPECT_EQ(totals.hits, 1);
  EXPECT_EQ(totals.misses, 1);
  EXPECT_EQ(totals.bytes_served, 32 * 24 * 2);
}

TEST(TileCache, BudgetIsEnforcedAndEvictionsCounted) {
  const DatasetMeta meta = make_meta(16, 16, 8, 4);  // 512-byte slices
  TileCacheConfig cfg;
  cfg.budget_bytes = 4 * 512;  // room for exactly 4 slices
  TileCache cache(cfg);
  const std::uint64_t ds = TileCache::dataset_key("/x", meta);
  const int tenant = cache.tenant_id("");

  for (std::int64_t t = 0; t < 4; ++t)
    for (std::int64_t z = 0; z < 8; ++z) {
      const auto bytes = make_slice(meta, t, z);
      cache.insert_slice(ds, meta, t, z, bytes.data(), false, tenant);
      EXPECT_LE(cache.resident_bytes(), cfg.budget_bytes);
    }
  const TileCacheStats s = cache.stats();
  EXPECT_EQ(s.resident_slices, 4);
  EXPECT_EQ(s.resident_bytes, 4 * 512);
  EXPECT_EQ(s.evictions, 32 - 4);

  // A slice larger than the whole budget is skipped, not force-fitted.
  const DatasetMeta big = make_meta(128, 128, 1, 1);
  TileCacheConfig tiny;
  tiny.budget_bytes = 1024;  // < one 128x128x2 slice
  TileCache small(tiny);
  const auto bytes = make_slice(big, 0, 0);
  small.insert_slice(TileCache::dataset_key("/y", big), big, 0, 0, bytes.data(), false,
                     small.tenant_id(""));
  EXPECT_EQ(small.resident_bytes(), 0);
}

TEST(TileCache, WholeBudgetHoldsOneLargeSlice) {
  // A 512x512 u16 slice is 512 KiB: half of a 1 MiB budget. One lock over
  // one budget caches it; an eighth of the budget per shard would not.
  const DatasetMeta meta = make_meta(512, 512, 1, 1);
  TileCacheConfig cfg;
  cfg.budget_bytes = 1 << 20;
  TileCache cache(cfg);
  const std::uint64_t ds = TileCache::dataset_key("/big", meta);
  const int tenant = cache.tenant_id("");

  const auto bytes = make_slice(meta, 0, 0);
  cache.insert_slice(ds, meta, 0, 0, bytes.data(), false, tenant);
  EXPECT_TRUE(cache.contains(ds, 0, 0));
  EXPECT_EQ(cache.resident_bytes(), 512 * 512 * 2);

  std::vector<std::uint16_t> out(512 * 512, 0);
  ASSERT_TRUE(cache.read_slice(ds, meta, 0, 0, out.data(), tenant));
  const auto* px = reinterpret_cast<const std::uint16_t*>(bytes.data());
  for (std::int64_t i = 0; i < 512 * 512; ++i) ASSERT_EQ(out[i], px[i]) << i;
}

/// Which slices survive after inserting 0..n-1 into a k-slice-capacity
/// cache, touching `touched` in order between the fill and
/// the overflow inserts.
std::set<std::int64_t> survivors(const std::vector<std::int64_t>& touched) {
  const DatasetMeta meta = make_meta(16, 16, 8, 1);
  TileCacheConfig cfg;
  cfg.budget_bytes = 4 * 512;
  TileCache cache(cfg);
  const std::uint64_t ds = TileCache::dataset_key("/x", meta);
  const int tenant = cache.tenant_id("");

  for (std::int64_t z = 0; z < 4; ++z) {
    const auto bytes = make_slice(meta, 0, z);
    cache.insert_slice(ds, meta, 0, z, bytes.data(), false, tenant);
  }
  std::vector<std::uint16_t> out(16 * 16);
  for (const std::int64_t z : touched) {
    EXPECT_TRUE(cache.read_slice(ds, meta, 0, z, out.data(), tenant));
  }
  for (std::int64_t z = 4; z < 6; ++z) {  // two inserts => two evictions
    const auto bytes = make_slice(meta, 0, z);
    cache.insert_slice(ds, meta, 0, z, bytes.data(), false, tenant);
  }
  std::set<std::int64_t> alive;
  for (std::int64_t z = 0; z < 8; ++z) {
    if (cache.contains(ds, 0, z)) alive.insert(z);
  }
  return alive;
}

TEST(TileCache, LruEvictsLeastRecentlyUsedDeterministically) {
  // Fill 0,1,2,3; touch 0 and 1; insert 4,5 => victims are 2 then 3.
  const std::set<std::int64_t> alive = survivors({0, 1});
  EXPECT_EQ(alive, (std::set<std::int64_t>{0, 1, 4, 5}));
  // Repeatability: the same sequence gives the same survivors.
  EXPECT_EQ(survivors({0, 1}), alive);
  // Touch order, not insert order, decides: touching 3, 2, 1, 0 makes 3 and
  // 2 the least recently used.
  EXPECT_EQ(survivors({3, 2, 1, 0}), (std::set<std::int64_t>{0, 1, 4, 5}));
}

TEST(TileCache, PerTenantAccountingSumsToGlobal) {
  const DatasetMeta meta = make_meta(16, 16, 4, 1);
  TileCacheConfig cfg;
  cfg.budget_bytes = 1 << 20;
  TileCache cache(cfg);
  const std::uint64_t ds = TileCache::dataset_key("/x", meta);
  const int alice = cache.tenant_id("alice");
  const int bob = cache.tenant_id("bob");
  EXPECT_NE(alice, bob);
  EXPECT_EQ(alice, cache.tenant_id("alice"));  // interning is stable

  const auto b0 = make_slice(meta, 0, 0);
  const auto b1 = make_slice(meta, 0, 1);
  cache.insert_slice(ds, meta, 0, 0, b0.data(), false, alice);
  cache.insert_slice(ds, meta, 0, 1, b1.data(), false, bob);
  std::vector<std::uint16_t> out(16 * 16);
  EXPECT_TRUE(cache.read_slice(ds, meta, 0, 0, out.data(), alice));
  EXPECT_TRUE(cache.read_slice(ds, meta, 0, 1, out.data(), alice));
  EXPECT_FALSE(cache.read_slice(ds, meta, 0, 2, out.data(), bob));

  std::int64_t hits = 0, misses = 0, resident = 0;
  for (const TenantCacheStats& t : cache.tenant_stats()) {
    hits += t.hits;
    misses += t.misses;
    resident += t.resident_bytes;
    if (t.tenant == "alice") {
      EXPECT_EQ(t.hits, 2);
      EXPECT_EQ(t.resident_bytes, 512);  // alice filled slice 0
    }
    if (t.tenant == "bob") {
      EXPECT_EQ(t.misses, 1);
      EXPECT_EQ(t.resident_bytes, 512);
    }
  }
  const TileCacheStats g = cache.stats();
  EXPECT_EQ(hits, g.hits);
  EXPECT_EQ(misses, g.misses);
  EXPECT_EQ(resident, g.resident_bytes);
}

TEST(TileCache, DrainUnmeteredConservesTotals) {
  const DatasetMeta meta = make_meta(16, 16, 8, 1);
  TileCacheConfig cfg;
  cfg.budget_bytes = 2 * 512;
  TileCache cache(cfg);
  const std::uint64_t ds = TileCache::dataset_key("/x", meta);
  const int tenant = cache.tenant_id("");
  for (std::int64_t z = 0; z < 6; ++z) {
    const auto bytes = make_slice(meta, 0, z);
    cache.insert_slice(ds, meta, 0, z, bytes.data(), /*prefetched=*/z % 2 == 0,
                       tenant);
  }
  std::int64_t ev = 0, pi = 0, pu = 0;
  cache.drain_unmetered(ev, pi, pu);
  EXPECT_EQ(ev, cache.stats().evictions);
  EXPECT_EQ(pi, cache.stats().prefetch_issued);
  // A second drain yields nothing: the counters land exactly once.
  std::int64_t ev2 = 0, pi2 = 0, pu2 = 0;
  cache.drain_unmetered(ev2, pi2, pu2);
  EXPECT_EQ(ev2 + pi2 + pu2, 0);
  EXPECT_LE(cache.stats().prefetch_useful, cache.stats().prefetch_issued);
  (void)pu;
}

class TileCacheDiskTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fsys::temp_directory_path() /
            ("h4d_tile_cache_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fsys::remove_all(root_);
    vol_ = Volume4<std::uint16_t>({12, 10, 6, 4});
    std::mt19937_64 rng(4242);
    std::uniform_int_distribution<int> u(0, 4000);
    for (auto& x : vol_.storage()) x = static_cast<std::uint16_t>(u(rng));
  }
  void TearDown() override { fsys::remove_all(root_); }

  fsys::path root_;
  Volume4<std::uint16_t> vol_{Vec4{1, 1, 1, 1}};
};

TEST_F(TileCacheDiskTest, CorruptSlicesAreNeverCached) {
  const DiskDataset ds = DiskDataset::create(root_, vol_, 1);

  FaultConfig fc;
  fc.seed = 17;
  fc.p_corrupt = 0.4;  // sticky per-slice corruption
  fc.really_sleep = false;
  FaultInjector inj(fc);
  std::set<std::int64_t> corrupt;
  for (std::int64_t t = 0; t < vol_.dims()[3]; ++t)
    for (std::int64_t z = 0; z < vol_.dims()[2]; ++z) {
      if (inj.is_slice_corrupted(t, z)) corrupt.insert(t * vol_.dims()[2] + z);
    }
  ASSERT_FALSE(corrupt.empty());
  ASSERT_LT(corrupt.size(), static_cast<std::size_t>(vol_.dims()[2] * vol_.dims()[3]));

  TileCacheConfig ccfg;
  ccfg.budget_bytes = 1 << 20;
  TileCache cache(ccfg);
  const std::uint64_t key = TileCache::dataset_key(root_.string(), ds.meta());

  ResilienceConfig rc;
  rc.policy = DegradePolicy::SkipAndFill;
  rc.retry.max_attempts = 2;
  rc.retry.really_sleep = false;
  rc.fill_value = 777;
  ResilientReader reader(ds.node_reader(0), rc, &inj);
  reader.attach_cache(&cache, key, cache.tenant_id(""));

  std::vector<std::uint16_t> out(12 * 10);
  for (const SliceRef& s : reader.slices()) {
    const bool ok = reader.read_slice(s, out.data());
    const bool bad = corrupt.count(s.t * vol_.dims()[2] + s.z) != 0;
    EXPECT_EQ(ok, !bad) << "t=" << s.t << " z=" << s.z;
    // The cache holds exactly the verified slices; a corrupt slice must
    // never appear, not even after the skip-and-fill completed.
    EXPECT_EQ(cache.contains(key, s.t, s.z), !bad)
        << "t=" << s.t << " z=" << s.z;
  }
  EXPECT_GT(cache.stats().resident_slices, 0);
}

TEST_F(TileCacheDiskTest, CachedRereadIsByteIdenticalAndTouchesNoDisk) {
  const DiskDataset ds = DiskDataset::create(root_, vol_, 1);
  TileCacheConfig ccfg;
  ccfg.budget_bytes = 1 << 20;
  TileCache cache(ccfg);
  const std::uint64_t key = TileCache::dataset_key(root_.string(), ds.meta());

  ResilienceConfig rc;
  rc.retry.really_sleep = false;

  std::vector<std::uint16_t> cold(12 * 10), warm(12 * 10);
  std::int64_t cold_bytes = 0;
  {
    ResilientReader reader(ds.node_reader(0), rc);
    reader.attach_cache(&cache, key, cache.tenant_id(""));
    for (const SliceRef& s : reader.slices()) {
      EXPECT_TRUE(reader.read_slice(s, cold.data()));
    }
    cold_bytes = reader.bytes_read();
    EXPECT_GT(cold_bytes, 0);
  }
  {
    ResilientReader reader(ds.node_reader(0), rc);
    reader.attach_cache(&cache, key, cache.tenant_id(""));
    for (const SliceRef& s : reader.slices()) {
      EXPECT_TRUE(reader.read_slice(s, warm.data()));
      for (std::int64_t y = 0; y < 10; ++y)
        for (std::int64_t x = 0; x < 12; ++x) {
          ASSERT_EQ(warm[y * 12 + x], vol_.at(x, y, s.z, s.t));
        }
    }
    EXPECT_EQ(reader.bytes_read(), 0);  // fully served from cache
    EXPECT_GT(reader.counters().cache_bytes_served, 0);
    EXPECT_EQ(reader.counters().cache_misses, 0);
  }
}

TEST(TileCacheStress, ConcurrentReadersAndWritersKeepBudgetAndIdentity) {
  const DatasetMeta meta = make_meta(32, 32, 16, 4);
  TileCacheConfig cfg;
  cfg.budget_bytes = 48 * 1024;  // forces steady eviction under load
  TileCache cache(cfg);
  const std::uint64_t ds = TileCache::dataset_key("/x", meta);

  constexpr int kThreads = 6;
  constexpr int kIters = 300;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      const int tenant = cache.tenant_id("t" + std::to_string(i % 3));
      std::mt19937_64 rng(static_cast<std::uint64_t>(i) * 7919 + 1);
      std::vector<std::uint16_t> out(32 * 32);
      for (int iter = 0; iter < kIters; ++iter) {
        const auto t = static_cast<std::int64_t>(rng() % 4);
        const auto z = static_cast<std::int64_t>(rng() % 16);
        if (cache.read_slice(ds, meta, t, z, out.data(), tenant)) {
          // Served bytes must carry the slice's signature: stale or torn
          // entries would break here.
          const auto expect = make_slice(meta, t, z);
          const auto* px = reinterpret_cast<const std::uint16_t*>(expect.data());
          for (std::int64_t k = 0; k < 32 * 32; ++k) ASSERT_EQ(out[k], px[k]);
        } else {
          const auto bytes = make_slice(meta, t, z);
          cache.insert_slice(ds, meta, t, z, bytes.data(), iter % 2 == 0, tenant);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  const TileCacheStats s = cache.stats();
  EXPECT_LE(cache.resident_bytes(), cfg.budget_bytes);
  EXPECT_EQ(s.lookups, s.hits + s.misses);
  EXPECT_LE(s.prefetch_useful, s.prefetch_issued);
  std::int64_t tenant_resident = 0;
  for (const TenantCacheStats& t : cache.tenant_stats()) {
    tenant_resident += t.resident_bytes;
  }
  EXPECT_EQ(tenant_resident, s.resident_bytes);
}

/// End-to-end: an analysis with the cache (and prefetch) on must produce
/// byte-identical feature maps, with the cache counters conserved in the
/// run's meters and metrics report.
class CacheE2E : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fsys::temp_directory_path() /
            ("h4d_cache_e2e_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fsys::remove_all(root_);
    PhantomConfig pcfg;
    pcfg.dims = {16, 14, 5, 4};
    pcfg.num_tumors = 1;
    pcfg.seed = 13;
    phantom_ = generate_phantom(pcfg).volume;
    DiskDataset::create(root_, phantom_, 2, 2);
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

  static void expect_identical(const core::AnalysisResult& a,
                               const core::AnalysisResult& b) {
    ASSERT_EQ(a.maps.size(), b.maps.size());
    for (const auto& [feature, map] : a.maps) {
      ASSERT_EQ(map.storage(), b.maps.at(feature).storage())
          << haralick::feature_name(feature);
    }
  }

  fsys::path root_;
  Volume4<std::uint16_t> phantom_{Vec4{1, 1, 1, 1}};
};

TEST_F(CacheE2E, CacheOnIsByteIdenticalAndReportsCounters) {
  const core::AnalysisResult off = core::analyze_threaded(config());

  core::PipelineConfig cfg = config();
  cfg.cache.budget_bytes = 4 << 20;
  cfg.cache.prefetch_depth = 2;
  const core::AnalysisResult on = core::analyze_threaded(cfg);
  expect_identical(off, on);

  ASSERT_TRUE(on.stats.cache.present);
  EXPECT_FALSE(off.stats.cache.present);
  const fs::CacheReport& c = on.stats.cache;
  EXPECT_EQ(c.lookups, c.hits + c.misses);
  EXPECT_LE(c.prefetch_useful, c.prefetch_issued);
  EXPECT_GT(c.lookups, 0);
  // The report's counters are exactly the meter sums (conservation).
  std::int64_t hits = 0, misses = 0, served = 0, issued = 0;
  for (const auto& copy : on.stats.copies) {
    hits += copy.meter.cache_hits;
    misses += copy.meter.cache_misses;
    served += copy.meter.cache_bytes_served;
    issued += copy.meter.prefetch_issued;
  }
  EXPECT_EQ(c.hits, hits);
  EXPECT_EQ(c.misses, misses);
  EXPECT_EQ(c.bytes_served_cache, served);
  EXPECT_EQ(c.prefetch_issued, issued);
}

TEST_F(CacheE2E, SecondRunThroughSharedCacheSkipsDisk) {
  core::PipelineConfig cfg = config();
  cfg.cache.budget_bytes = 8 << 20;
  cfg.cache.prefetch_depth = 0;  // isolate demand caching
  cfg.tile_cache = std::make_shared<TileCache>(cfg.cache);

  const core::AnalysisResult cold = core::analyze_threaded(cfg);
  const core::AnalysisResult warm = core::analyze_threaded(cfg);
  expect_identical(cold, warm);

  ASSERT_TRUE(warm.stats.cache.present);
  EXPECT_LT(warm.stats.cache.bytes_read_disk, cold.stats.cache.bytes_read_disk / 2);
  EXPECT_GT(warm.stats.cache.hits, 0);
  const double rate = static_cast<double>(warm.stats.cache.hits) /
                      static_cast<double>(warm.stats.cache.lookups);
  EXPECT_GE(rate, 0.6);
}

TEST_F(CacheE2E, DegradedReplicaRunWithCacheStaysByteIdentical) {
  const core::AnalysisResult healthy = core::analyze_threaded(config());

  core::PipelineConfig cfg = config();
  cfg.dead_nodes = {0};
  cfg.cache.budget_bytes = 4 << 20;
  cfg.cache.prefetch_depth = 2;
  const core::AnalysisResult degraded = core::analyze_threaded(cfg);
  expect_identical(healthy, degraded);
  ASSERT_TRUE(degraded.stats.cache.present);
}

TEST_F(CacheE2E, FaultedRunWithCacheMatchesFaultedRunWithout) {
  core::PipelineConfig cfg = config();
  cfg.faults.seed = 47;
  cfg.faults.p_corrupt = 0.2;
  cfg.faults.really_sleep = false;
  cfg.resilience.policy = io::DegradePolicy::SkipAndFill;
  cfg.resilience.retry.max_attempts = 2;
  const core::AnalysisResult off = core::analyze_threaded(cfg);
  // With replicas=2 the corrupt primaries fail over, so the drill shows up
  // as checksum failures (not skips) — what matters is that faults fired.
  ASSERT_GT(off.faults.checksum_failures, 0);

  cfg.cache.budget_bytes = 4 << 20;
  cfg.cache.prefetch_depth = 2;  // must be ignored under injection
  const core::AnalysisResult on = core::analyze_threaded(cfg);
  expect_identical(off, on);
  EXPECT_EQ(on.faults.slices_skipped, off.faults.slices_skipped);
  EXPECT_EQ(on.faults.checksum_failures, off.faults.checksum_failures);
  ASSERT_TRUE(on.stats.cache.present);
  EXPECT_EQ(on.stats.cache.prefetch_issued, 0);  // prefetch off under faults
}

TEST_F(CacheE2E, ResumedRunWithCacheStaysByteIdentical) {
  const core::AnalysisResult reference = core::analyze_threaded(config());

  const fsys::path ckpt = root_ / "cache.ckpt";
  core::PipelineConfig cfg = config();
  cfg.checkpoint_path = ckpt;
  cfg.cache.budget_bytes = 4 << 20;
  cfg.cache.prefetch_depth = 2;
  const core::AnalysisResult first = core::analyze_threaded(cfg);
  expect_identical(reference, first);

  // Resume over the completed manifest: everything prunes. Collected maps
  // would hold none of the pruned chunks' values, so analyze_threaded
  // refuses; the USO output resumes through the cache and emits nothing.
  cfg.resume = true;
  EXPECT_THROW(core::analyze_threaded(cfg), std::invalid_argument);
  cfg.output = core::OutputMode::Unstitched;
  const filters::ParamsPtr params = core::make_params(cfg);
  ASSERT_TRUE(params->tile_cache);
  const fs::RunStats resumed = fs::run_threaded(core::build_pipeline(cfg, params, nullptr));
  std::int64_t resumed_chunks = 0;
  std::int64_t written = 0;
  std::int64_t lookups = 0;
  std::int64_t disk_read = 0;
  for (const auto& copy : resumed.copies) {
    resumed_chunks += copy.meter.chunks_resumed;
    written += copy.meter.disk_bytes_written;
    lookups += copy.meter.cache_hits + copy.meter.cache_misses;
    disk_read += copy.meter.disk_bytes_read;
  }
  EXPECT_GT(resumed_chunks, 0);
  EXPECT_EQ(resumed_chunks, params->chunks_resumed);
  EXPECT_EQ(written, 0);
  // No remaining chunk needs any slice, so none is read.
  EXPECT_EQ(lookups, 0);
  EXPECT_EQ(disk_read, 0);
}

}  // namespace
}  // namespace h4d::io
