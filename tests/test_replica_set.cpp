// Replica placement properties, node-health state machine, and degraded-mode
// reads: the guarantees DESIGN.md sec. 12 promises for r >= 2 datasets.
#include "io/replica_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <thread>

#include "io/dataset.hpp"
#include "io/resilient_reader.hpp"

namespace h4d::io {
namespace {

namespace fsys = std::filesystem;

DatasetMeta make_meta(Vec4 dims, int nodes, int replicas) {
  DatasetMeta m;
  m.dims = dims;
  m.storage_nodes = nodes;
  m.replicas = replicas;
  m.value_max = 4000.0;
  return m;
}

// --- Placement properties (pure DatasetMeta arithmetic) ---------------------

TEST(ReplicaPlacement, ReplicasOfASliceLandOnDistinctNodes) {
  std::mt19937 rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    const int nodes = 1 + static_cast<int>(rng() % 8);
    const int r = 1 + static_cast<int>(rng() % 4);
    const Vec4 dims{4, 4, 1 + static_cast<std::int64_t>(rng() % 7),
                    1 + static_cast<std::int64_t>(rng() % 5)};
    const DatasetMeta m = make_meta(dims, nodes, r);
    ASSERT_EQ(m.replica_count(), std::min(r, nodes));
    for (std::int64_t t = 0; t < dims[3]; ++t) {
      for (std::int64_t z = 0; z < dims[2]; ++z) {
        std::set<int> placed;
        for (int rank = 0; rank < m.replica_count(); ++rank) {
          const int node = m.replica_node(z, t, rank);
          ASSERT_GE(node, 0);
          ASSERT_LT(node, nodes);
          placed.insert(node);
          // replica_rank is the inverse of replica_node.
          ASSERT_EQ(m.replica_rank(z, t, node), rank)
              << "nodes=" << nodes << " r=" << r << " z=" << z << " t=" << t;
        }
        ASSERT_EQ(placed.size(), static_cast<std::size_t>(m.replica_count()));
        // Nodes holding no copy report rank -1.
        for (int node = 0; node < nodes; ++node) {
          if (!placed.count(node)) {
            ASSERT_EQ(m.replica_rank(z, t, node), -1);
          }
        }
      }
    }
  }
}

TEST(ReplicaPlacement, RotatedRoundRobinBalancesCopiesAcrossNodes) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    const int nodes = 2 + static_cast<int>(rng() % 6);
    const int r = 1 + static_cast<int>(rng() % nodes);
    const Vec4 dims{2, 2, 3 + static_cast<std::int64_t>(rng() % 6),
                    2 + static_cast<std::int64_t>(rng() % 4)};
    const DatasetMeta m = make_meta(dims, nodes, r);
    std::vector<std::int64_t> copies(static_cast<std::size_t>(nodes), 0);
    for (std::int64_t t = 0; t < dims[3]; ++t) {
      for (std::int64_t z = 0; z < dims[2]; ++z) {
        for (int rank = 0; rank < m.replica_count(); ++rank) {
          ++copies[static_cast<std::size_t>(m.replica_node(z, t, rank))];
        }
      }
    }
    // Rotated round-robin keeps every node within one rotation of the mean:
    // max - min <= r (tight: each rank's round-robin differs by at most 1).
    const auto [lo, hi] = std::minmax_element(copies.begin(), copies.end());
    EXPECT_LE(*hi - *lo, m.replica_count())
        << "nodes=" << nodes << " r=" << r << " dims=" << dims.str();
    std::int64_t total = 0;
    for (const std::int64_t c : copies) total += c;
    EXPECT_EQ(total, m.num_slices() * m.replica_count());
  }
}

TEST(ReplicaPlacement, RankZeroMatchesUnreplicatedRoundRobin) {
  const DatasetMeta r1 = make_meta({4, 4, 5, 3}, 4, 1);
  const DatasetMeta r3 = make_meta({4, 4, 5, 3}, 4, 3);
  for (std::int64_t t = 0; t < 3; ++t) {
    for (std::int64_t z = 0; z < 5; ++z) {
      EXPECT_EQ(r3.node_of_slice(z, t), r1.node_of_slice(z, t));
    }
  }
}

// --- ReplicaSet fixtures ----------------------------------------------------

class ReplicaSetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fsys::temp_directory_path() /
            ("h4d_replica_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fsys::remove_all(root_);
    fsys::create_directories(root_);
  }
  void TearDown() override { fsys::remove_all(root_); }

  static Volume4<std::uint16_t> sample_volume(Vec4 dims, unsigned seed = 3) {
    Volume4<std::uint16_t> v(dims);
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int> u(0, 4000);
    for (auto& x : v.storage()) x = static_cast<std::uint16_t>(u(rng));
    return v;
  }

  void make_node_dirs(int nodes) {
    for (int n = 0; n < nodes; ++n) fsys::create_directories(root_ / node_dir_name(n));
  }

  fsys::path root_;
};

TEST_F(ReplicaSetTest, StaticDeadNodesNeverOwnReads) {
  const DatasetMeta m = make_meta({4, 4, 4, 3}, 3, 2);
  make_node_dirs(3);
  ReplicaSet rs(root_, m, {1});
  EXPECT_TRUE(rs.node_dead(1));
  EXPECT_FALSE(rs.node_dead(0));
  EXPECT_EQ(rs.first_alive_node(), 0);
  for (std::int64_t t = 0; t < 3; ++t) {
    for (std::int64_t z = 0; z < 4; ++z) {
      const int owner = rs.read_owner(z, t);
      ASSERT_NE(owner, 1);
      // The owner must actually hold a copy of the slice.
      ASSERT_GE(m.replica_rank(z, t, owner), 0);
      // A slice whose primary is alive keeps its primary.
      if (m.node_of_slice(z, t) != 1) {
        EXPECT_EQ(owner, m.node_of_slice(z, t));
      }
    }
  }
}

TEST_F(ReplicaSetTest, OutOfRangeDeadNodeThrows) {
  const DatasetMeta m = make_meta({4, 4, 2, 1}, 2, 1);
  make_node_dirs(2);
  EXPECT_THROW(ReplicaSet(root_, m, {2}), std::exception);
  EXPECT_THROW(ReplicaSet(root_, m, {-1}), std::exception);
}

TEST_F(ReplicaSetTest, MissingNodeDirsAreDetected) {
  const DatasetMeta m = make_meta({4, 4, 3, 2}, 3, 2);
  make_node_dirs(3);
  fsys::remove_all(root_ / node_dir_name(2));
  EXPECT_EQ(ReplicaSet::missing_node_dirs(root_, m), std::vector<int>{2});
}

TEST_F(ReplicaSetTest, ReplicaOrderPutsPreferredNodeFirst) {
  const DatasetMeta m = make_meta({4, 4, 6, 1}, 3, 3);
  make_node_dirs(3);
  ReplicaSet rs(root_, m, {});
  // Slice 0 has replicas on 0, 1, 2 (ranks 0, 1, 2).
  EXPECT_EQ(rs.replica_order(0, 0, 1), (std::vector<int>{1, 0, 2}));
  EXPECT_EQ(rs.replica_order(0, 0, 0), (std::vector<int>{0, 1, 2}));
  // A preferred node that holds no copy is ignored (r=2 subset).
  const DatasetMeta m2 = make_meta({4, 4, 6, 1}, 3, 2);
  ReplicaSet rs2(root_, m2, {});
  EXPECT_EQ(rs2.replica_order(0, 0, 2), (std::vector<int>{0, 1}));
}

TEST_F(ReplicaSetTest, EvictionAfterConsecutiveFailuresAndProbation) {
  const DatasetMeta m = make_meta({4, 4, 6, 1}, 3, 2);
  make_node_dirs(3);
  ReplicaHealthConfig health;
  health.evict_after = 3;
  health.probation_ms = 1e9;  // effectively forever for this test
  ReplicaSet rs(root_, m, {}, health);

  EXPECT_FALSE(rs.note_failure(0));
  EXPECT_FALSE(rs.note_failure(0));
  EXPECT_FALSE(rs.node_evicted(0));
  EXPECT_TRUE(rs.note_failure(0));  // third strike evicts
  EXPECT_TRUE(rs.node_evicted(0));
  EXPECT_EQ(rs.evictions(), 1);
  // Evicted node drops out of replica orders (slice 0: replicas 0 and 1).
  EXPECT_EQ(rs.replica_order(0, 0, 0), std::vector<int>{1});
  // ... but static ownership is unchanged: evictions do not move read_owner.
  EXPECT_EQ(rs.read_owner(0, 0), 0);
  // A success (e.g. a probe read) re-admits and resets the streak.
  rs.note_success(0);
  EXPECT_FALSE(rs.node_evicted(0));
  EXPECT_EQ(rs.replica_order(0, 0, 0), (std::vector<int>{0, 1}));
  EXPECT_FALSE(rs.note_failure(0));  // streak restarted, not at 2/3
}

TEST_F(ReplicaSetTest, ExpiredProbationOffersTheNodeForAProbe) {
  const DatasetMeta m = make_meta({4, 4, 6, 1}, 2, 2);
  make_node_dirs(2);
  ReplicaHealthConfig health;
  health.evict_after = 1;
  health.probation_ms = 0.0;  // probation expires immediately
  ReplicaSet rs(root_, m, {}, health);
  EXPECT_TRUE(rs.note_failure(1));
  // Probation of 0 ms has already elapsed: the node is offered again.
  EXPECT_EQ(rs.replica_order(0, 0, 0), (std::vector<int>{0, 1}));
}

TEST_F(ReplicaSetTest, AllEvictedCandidatesForcesAProbe) {
  const DatasetMeta m = make_meta({4, 4, 6, 1}, 2, 2);
  make_node_dirs(2);
  ReplicaHealthConfig health;
  health.evict_after = 1;
  health.probation_ms = 1e9;
  ReplicaSet rs(root_, m, {}, health);
  rs.note_failure(0);
  rs.note_failure(1);
  EXPECT_TRUE(rs.node_evicted(0));
  EXPECT_TRUE(rs.node_evicted(1));
  // Rather than returning no candidates, every replica is offered (forced
  // probe) so the slice still gets an attempt.
  EXPECT_EQ(rs.replica_order(0, 0, 0), (std::vector<int>{0, 1}));
  // A failed forced probe restarts that node's probation clock but the
  // forced-probe guarantee still offers every replica on the next read, and
  // no new eviction event is recorded for an already-evicted node.
  EXPECT_FALSE(rs.note_failure(0));
  EXPECT_EQ(rs.replica_order(0, 0, 0), (std::vector<int>{0, 1}));
  EXPECT_EQ(rs.evictions(), 2);
  EXPECT_EQ(rs.eviction_events().size(), 2u);
}

TEST_F(ReplicaSetTest, FailedProbeRestartsTheProbationClock) {
  const DatasetMeta m = make_meta({4, 4, 6, 1}, 2, 2);
  make_node_dirs(2);
  ReplicaHealthConfig health;
  health.evict_after = 1;
  health.probation_ms = 300.0;
  ReplicaSet rs(root_, m, {}, health);
  EXPECT_TRUE(rs.note_failure(1));
  EXPECT_EQ(rs.replica_order(0, 0, 0), std::vector<int>{0});  // in probation
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  // Probation expired: the node is offered for a probe read.
  EXPECT_EQ(rs.replica_order(0, 0, 0), (std::vector<int>{0, 1}));
  // The probe fails: the probation clock restarts from now — the node drops
  // back out of the order without a second eviction event.
  EXPECT_FALSE(rs.note_failure(1));
  EXPECT_TRUE(rs.node_evicted(1));
  EXPECT_EQ(rs.evictions(), 1);
  EXPECT_EQ(rs.replica_order(0, 0, 0), std::vector<int>{0});
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_EQ(rs.replica_order(0, 0, 0), (std::vector<int>{0, 1}));
  rs.note_success(1);  // a probe that succeeds re-admits immediately
  EXPECT_FALSE(rs.node_evicted(1));
  EXPECT_EQ(rs.replica_order(0, 0, 0), (std::vector<int>{0, 1}));
}

TEST_F(ReplicaSetTest, SlowNodesEvictWithTypedReason) {
  const DatasetMeta m = make_meta({4, 4, 6, 1}, 3, 2);
  make_node_dirs(3);
  ReplicaHealthConfig health;
  health.evict_after = 3;
  health.probation_ms = 1e9;
  ReplicaSet rs(root_, m, {}, health);
  // Breach verdicts are pre-aggregated by the caller (the latency tracker's
  // consecutive-breach streak), so one note_slow call evicts.
  EXPECT_TRUE(rs.note_slow(2));
  EXPECT_TRUE(rs.node_evicted(2));
  EXPECT_EQ(rs.evictions(), 1);
  EXPECT_EQ(rs.evictions_slow(), 1);
  EXPECT_FALSE(rs.note_slow(2));   // already evicted: probation restart only
  EXPECT_FALSE(rs.note_slow(-1));  // out of range is ignored
  EXPECT_FALSE(rs.note_slow(3));
  EXPECT_EQ(rs.evictions_slow(), 1);
  // Failure evictions and slow evictions share the event log, in order,
  // each with its typed reason.
  rs.note_failure(0);
  rs.note_failure(0);
  EXPECT_TRUE(rs.note_failure(0));
  const std::vector<EvictionEvent> events = rs.eviction_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].node, 2);
  EXPECT_EQ(events[0].reason, EvictReason::Slow);
  EXPECT_EQ(events[1].node, 0);
  EXPECT_EQ(events[1].reason, EvictReason::Failure);
  EXPECT_EQ(evict_reason_name(EvictReason::Slow), "slow");
  EXPECT_EQ(evict_reason_name(EvictReason::Failure), "failure");
  EXPECT_EQ(rs.evictions(), 2);
  EXPECT_EQ(rs.evictions_slow(), 1);
  // A slow-evicted node re-admits through the same probe path as a failed one.
  rs.note_success(2);
  EXPECT_FALSE(rs.node_evicted(2));
}

// --- Degraded-mode reads through DiskDataset --------------------------------

TEST_F(ReplicaSetTest, ReplicatedDatasetSurvivesAnySingleNodeLoss) {
  const auto vol = sample_volume({6, 5, 4, 3});
  DiskDataset::create(root_, vol, 3, 2);
  for (int lost = 0; lost < 3; ++lost) {
    const fsys::path backup = root_.string() + "_backup";
    fsys::remove_all(backup);
    fsys::copy(root_, backup, fsys::copy_options::recursive);
    fsys::remove_all(root_ / node_dir_name(lost));

    const DiskDataset ds = DiskDataset::open(root_);
    const auto back = ds.read_all();
    EXPECT_EQ(back.storage(), vol.storage()) << "lost node " << lost;

    fsys::remove_all(root_);
    fsys::rename(backup, root_);
  }
}

TEST_F(ReplicaSetTest, UnreplicatedDatasetStillFailsOnNodeLoss) {
  const auto vol = sample_volume({6, 5, 4, 3});
  DiskDataset::create(root_, vol, 3, 1);
  fsys::remove_all(root_ / node_dir_name(1));
  const DiskDataset ds = DiskDataset::open(root_);
  EXPECT_THROW(ds.read_all(), std::exception);
}

TEST_F(ReplicaSetTest, ReadRegionReadsNothingFromADeadNode) {
  // As in a pipeline run, a declared dead node's slices come straight from
  // their surviving replicas: no read is tried on it and none fails over.
  const auto vol = sample_volume({6, 5, 4, 3});
  DiskDataset::create(root_, vol, 3, 2);
  for (const auto& e : fsys::directory_iterator(root_ / node_dir_name(0))) {
    if (e.path().extension() == ".raw") fsys::remove(e.path());
  }
  const DiskDataset ds = DiskDataset::open(root_);
  FaultReport report;
  const auto back = ds.read_region(Region4::whole(vol.dims()), ResilienceConfig{}, nullptr,
                                   &report, {0});
  EXPECT_EQ(back.storage(), vol.storage());
  EXPECT_EQ(report.replica_failovers, 0);
}

TEST_F(ReplicaSetTest, ReadRegionRefusesSlicesNoReplicaCovers) {
  const auto vol = sample_volume({6, 5, 4, 3});
  DiskDataset::create(root_, vol, 3, 1);
  const DiskDataset ds = DiskDataset::open(root_);
  try {
    ds.read_region(Region4::whole(vol.dims()), ResilienceConfig{}, nullptr, nullptr, {1});
    FAIL() << "expected an uncovered-slice error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("no surviving replica"), std::string::npos)
        << e.what();
  }
}

// --- Meta format versioning -------------------------------------------------

TEST_F(ReplicaSetTest, V1MetaWithoutVersionKeyLoadsAsUnreplicated) {
  std::ofstream f(root_ / "dataset.meta");
  f << "dims 8 8 2 1\n"
    << "dtype u16\n"
    << "range 0 100\n"
    << "storage_nodes 2\n";
  f.close();
  const DatasetMeta m = DatasetMeta::load(root_);
  EXPECT_EQ(m.replicas, 1);
  EXPECT_EQ(m.replica_count(), 1);
  EXPECT_EQ(m.storage_nodes, 2);
}

TEST_F(ReplicaSetTest, FutureMetaVersionIsRejected) {
  std::ofstream f(root_ / "dataset.meta");
  f << "version 3\n"
    << "dims 8 8 2 1\n"
    << "dtype u16\n"
    << "range 0 100\n"
    << "storage_nodes 2\n"
    << "replicas 1\n";
  f.close();
  EXPECT_THROW(DatasetMeta::load(root_), std::exception);
}

TEST_F(ReplicaSetTest, ReplicatedCreateRoundTripsMetaAndIndexes) {
  const auto vol = sample_volume({4, 4, 3, 2});
  DiskDataset::create(root_, vol, 3, 2);
  const DiskDataset ds = DiskDataset::open(root_);
  EXPECT_EQ(ds.meta().replicas, 2);
  // Every node's index lists exactly the copies placed on it, with checksums.
  for (int n = 0; n < 3; ++n) {
    const StorageNodeReader reader = ds.node_reader(n);
    std::size_t expected = 0;
    for (std::int64_t t = 0; t < 2; ++t) {
      for (std::int64_t z = 0; z < 3; ++z) {
        if (ds.meta().replica_rank(z, t, n) >= 0) ++expected;
      }
    }
    EXPECT_EQ(reader.slices().size(), expected) << "node " << n;
    for (const SliceRef& s : reader.slices()) {
      EXPECT_TRUE(s.has_crc);
      EXPECT_GE(ds.meta().replica_rank(s.z, s.t, n), 0);
    }
  }
}

}  // namespace
}  // namespace h4d::io
