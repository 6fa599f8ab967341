// Scrub/repair round trips: damage a replicated dataset in controlled ways,
// check the scrub inventory names the damage, and check repair restores a
// CRC-clean dataset with the original bytes.
#include "io/scrub.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "io/dataset.hpp"
#include "json_lite.hpp"

namespace h4d::io {
namespace {

namespace fsys = std::filesystem;

class ScrubRepairTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fsys::temp_directory_path() /
            ("h4d_scrub_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fsys::remove_all(root_);
    vol_ = Volume4<std::uint16_t>({6, 5, 4, 3});
    std::mt19937_64 rng(19);
    std::uniform_int_distribution<int> u(0, 4000);
    for (auto& x : vol_.storage()) x = static_cast<std::uint16_t>(u(rng));
  }
  void TearDown() override { fsys::remove_all(root_); }

  void create(int nodes, int replicas) { DiskDataset::create(root_, vol_, nodes, replicas); }

  fsys::path slice_path(int node, std::int64_t t, std::int64_t z) const {
    return root_ / node_dir_name(node) / slice_filename(t, z);
  }

  void flip_byte(const fsys::path& p, std::int64_t offset) {
    std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open()) << p;
    f.seekg(offset);
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x5a);
    f.seekp(offset);
    f.write(&c, 1);
  }

  // Rewrite a node's index without the CRC column (pre-checksum format).
  void strip_checksums(int node) {
    const fsys::path index = root_ / node_dir_name(node) / kIndexFileName;
    std::ifstream in(index);
    ASSERT_TRUE(in.is_open()) << index;
    std::ostringstream kept;
    std::int64_t t = 0, z = 0;
    std::string filename, crc;
    while (in >> t >> z >> filename) {
      std::getline(in, crc);  // drop the rest of the line
      kept << t << ' ' << z << ' ' << filename << '\n';
    }
    in.close();
    std::ofstream out(index, std::ios::trunc);
    out << kept.str();
  }

  void expect_intact() {
    const auto back = DiskDataset::open(root_).read_all();
    EXPECT_EQ(back.storage(), vol_.storage());
  }

  fsys::path root_;
  Volume4<std::uint16_t> vol_{Vec4{1, 1, 1, 1}};
};

TEST_F(ScrubRepairTest, CleanDatasetScrubsClean) {
  create(3, 2);
  const ScrubReport r = scrub_dataset(root_);
  EXPECT_TRUE(r.clean()) << r.summary();
  EXPECT_EQ(r.slices_checked, 12);
  EXPECT_EQ(r.copies_expected, 24);
  EXPECT_EQ(r.copies_verified, 24);
  EXPECT_EQ(r.copies_unverified, 0);
}

TEST_F(ScrubRepairTest, BitFlipIsDetectedAndRepaired) {
  create(3, 2);
  flip_byte(slice_path(0, 0, 0), 7);

  const ScrubReport before = scrub_dataset(root_);
  ASSERT_EQ(before.findings.size(), 1u) << before.summary();
  EXPECT_EQ(before.findings[0].kind, ScrubDefect::ChecksumMismatch);
  EXPECT_EQ(before.findings[0].t, 0);
  EXPECT_EQ(before.findings[0].z, 0);
  EXPECT_EQ(before.findings[0].node, 0);
  EXPECT_EQ(before.copies_verified, 23);

  const RepairReport repair = repair_dataset(root_);
  EXPECT_TRUE(repair.complete()) << repair.summary();
  EXPECT_EQ(repair.copies_recloned, 1);

  EXPECT_TRUE(scrub_dataset(root_).clean());
  expect_intact();
}

TEST_F(ScrubRepairTest, IndexNameOutsideTheNodeDirectoryIsNotFollowed) {
  create(3, 2);
  // Point node 0's entry for slice (0, 0) at node 1's replica: scrub must not
  // vouch for node 0's copy by reading another node's file.
  const fsys::path index = root_ / node_dir_name(0) / kIndexFileName;
  std::ifstream in(index);
  std::ostringstream rewritten;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("0 0 ", 0) == 0) {
      std::istringstream is(line);
      std::string t, z, name, crc;
      is >> t >> z >> name >> crc;
      line = "0 0 ../" + node_dir_name(1) + "/" + name + " " + crc;
    }
    rewritten << line << '\n';
  }
  in.close();
  std::ofstream(index, std::ios::trunc) << rewritten.str();

  const ScrubReport before = scrub_dataset(root_);
  ASSERT_EQ(before.findings.size(), 1u) << before.summary();
  EXPECT_EQ(before.findings[0].kind, ScrubDefect::IndexEntryMissing);
  EXPECT_EQ(before.findings[0].node, 0);

  EXPECT_TRUE(repair_dataset(root_).complete());
  EXPECT_TRUE(scrub_dataset(root_).clean());
  expect_intact();
}

TEST_F(ScrubRepairTest, TruncatedCopyIsDetectedAndRepaired) {
  create(3, 2);
  fsys::resize_file(slice_path(1, 1, 2), 10);

  const ScrubReport before = scrub_dataset(root_);
  ASSERT_EQ(before.findings.size(), 1u) << before.summary();
  EXPECT_EQ(before.findings[0].kind, ScrubDefect::SizeMismatch);

  EXPECT_TRUE(repair_dataset(root_).complete());
  EXPECT_TRUE(scrub_dataset(root_).clean());
  expect_intact();
}

TEST_F(ScrubRepairTest, DeletedCopyIsDetectedAndRepaired) {
  create(3, 2);
  // Slice (t=0, z=2) is global slice 2: rank-0 copy on node 2.
  ASSERT_TRUE(fsys::remove(slice_path(2, 0, 2)));

  const ScrubReport before = scrub_dataset(root_);
  ASSERT_EQ(before.findings.size(), 1u) << before.summary();
  EXPECT_EQ(before.findings[0].kind, ScrubDefect::MissingCopy);

  const RepairReport repair = repair_dataset(root_);
  EXPECT_TRUE(repair.complete());
  EXPECT_EQ(repair.copies_recloned, 1);
  EXPECT_TRUE(scrub_dataset(root_).clean());
  expect_intact();
}

TEST_F(ScrubRepairTest, LostNodeDirectoryIsRebuiltWithIndex) {
  create(3, 2);
  fsys::remove_all(root_ / node_dir_name(1));

  const ScrubReport before = scrub_dataset(root_);
  EXPECT_FALSE(before.clean());
  bool node_level = false;
  for (const ScrubFinding& f : before.findings) {
    if (f.kind == ScrubDefect::MissingNodeDir && f.node == 1) node_level = true;
  }
  EXPECT_TRUE(node_level) << before.summary();

  const RepairReport repair = repair_dataset(root_);
  EXPECT_TRUE(repair.complete()) << repair.summary();
  EXPECT_GE(repair.indexes_rebuilt, 1);
  EXPECT_GT(repair.copies_recloned, 0);

  const ScrubReport after = scrub_dataset(root_);
  EXPECT_TRUE(after.clean()) << after.summary();
  EXPECT_EQ(after.copies_verified, 24);
  expect_intact();
}

TEST_F(ScrubRepairTest, RepairIsIdempotent) {
  create(3, 2);
  // Slice (t=0, z=1) is global slice 1: replicas on nodes 1 and 2.
  ASSERT_TRUE(fsys::remove(slice_path(1, 0, 1)));
  EXPECT_TRUE(repair_dataset(root_).complete());
  const RepairReport second = repair_dataset(root_);
  EXPECT_TRUE(second.complete());
  EXPECT_EQ(second.copies_recloned, 0);
  EXPECT_EQ(second.indexes_rebuilt, 0);
}

TEST_F(ScrubRepairTest, UnreplicatedCorruptionIsUnrepairable) {
  create(3, 1);
  flip_byte(slice_path(0, 0, 0), 3);

  const RepairReport repair = repair_dataset(root_);
  EXPECT_FALSE(repair.complete());
  ASSERT_EQ(repair.unrepairable.size(), 1u);
  EXPECT_EQ(repair.unrepairable[0].t, 0);
  EXPECT_EQ(repair.unrepairable[0].z, 0);
  // The damaged copy is never laundered into a "repaired" state: the scrub
  // still reports the mismatch.
  EXPECT_FALSE(scrub_dataset(root_).clean());
}

TEST_F(ScrubRepairTest, ScrubJsonInventoryIsWellFormed) {
  create(2, 2);
  flip_byte(slice_path(0, 1, 1), 0);
  const ScrubReport r = scrub_dataset(root_);
  std::ostringstream os;
  r.write_json(os);
  testing::json::Value doc;
  ASSERT_NO_THROW(doc = testing::json::Parser(os.str()).parse());
  EXPECT_EQ(doc.at("schema").str(), "h4d-scrub-v1");
  EXPECT_EQ(doc.at("slices_checked").num(), 12.0);
  EXPECT_EQ(doc.at("clean").boolean, false);
  const auto& findings = doc.at("findings").array;
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].at("kind").str(), "checksum_mismatch");
  EXPECT_EQ(findings[0].at("t").num(), 1.0);
  EXPECT_EQ(findings[0].at("z").num(), 1.0);
}

TEST_F(ScrubRepairTest, AddChecksumsBackfillsPreChecksumIndexes) {
  create(3, 2);
  for (int n = 0; n < 3; ++n) strip_checksums(n);

  const ScrubReport before = scrub_dataset(root_);
  EXPECT_TRUE(before.clean()) << before.summary();  // whole, just unverifiable
  EXPECT_EQ(before.copies_verified, 0);
  EXPECT_EQ(before.copies_unverified, 24);

  const ChecksumMigrationReport mig = add_checksums(root_);
  EXPECT_EQ(mig.entries_backfilled, 24);
  EXPECT_EQ(mig.slices_divergent, 0);

  const ScrubReport after = scrub_dataset(root_);
  EXPECT_TRUE(after.clean());
  EXPECT_EQ(after.copies_verified, 24);
  EXPECT_EQ(after.copies_unverified, 0);
  expect_intact();

  // Idempotent: nothing left to backfill.
  EXPECT_EQ(add_checksums(root_).entries_backfilled, 0);
}

TEST_F(ScrubRepairTest, AddChecksumsSkipsDivergentSlices) {
  create(2, 2);
  for (int n = 0; n < 2; ++n) strip_checksums(n);
  flip_byte(slice_path(0, 0, 0), 5);  // replicas now disagree, no CRC arbitrates

  const ChecksumMigrationReport mig = add_checksums(root_);
  EXPECT_EQ(mig.slices_divergent, 1);
  // 12 slices, 2 copies each; the divergent slice's 2 entries are skipped.
  EXPECT_EQ(mig.entries_backfilled, 22);
}

}  // namespace
}  // namespace h4d::io
