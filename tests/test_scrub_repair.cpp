// Scrub/repair round trips: damage a replicated dataset in controlled ways,
// check the scrub inventory names the damage, and check repair restores a
// CRC-clean dataset with the original bytes.
#include "io/scrub.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
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

  std::string index_text(int node) const {
    std::ifstream in(root_ / node_dir_name(node) / kIndexFileName);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }
  void write_index_text(int node, const std::string& text) {
    std::ofstream(root_ / node_dir_name(node) / kIndexFileName, std::ios::trunc) << text;
  }

  // Node 0's index is one the pipeline's reader refuses: scrub reports it
  // once with the reader's message, and repair rewrites it so every node
  // reads again and a second scrub is clean.
  void expect_rejected_index_is_repaired(const std::string& reader_says) {
    const DiskDataset ds = DiskDataset::open(root_);
    EXPECT_THROW(ds.node_reader(0), std::runtime_error);
    const ScrubReport before = scrub_dataset(root_);
    EXPECT_FALSE(before.clean());
    ASSERT_EQ(before.findings.size(), 1u) << before.summary();
    EXPECT_EQ(before.findings[0].kind, ScrubDefect::MalformedIndex);
    EXPECT_EQ(before.findings[0].node, 0);
    EXPECT_NE(before.findings[0].detail.find(reader_says), std::string::npos)
        << before.findings[0].detail;

    const RepairReport repair = repair_dataset(root_);
    EXPECT_TRUE(repair.complete()) << repair.summary();
    EXPECT_EQ(repair.indexes_rebuilt, 1);
    for (int n = 0; n < ds.num_nodes(); ++n) EXPECT_NO_THROW(ds.node_reader(n)) << n;
    const ScrubReport after = scrub_dataset(root_);
    EXPECT_TRUE(after.clean()) << after.summary();
    EXPECT_EQ(after.copies_verified, after.copies_expected);
    expect_intact();
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
  // vouch for node 0's copy by reading another node's file. The reader
  // rejects the whole index, so scrub reports it once and repair rewrites it.
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
  EXPECT_EQ(before.findings[0].kind, ScrubDefect::MalformedIndex);
  EXPECT_EQ(before.findings[0].node, 0);
  EXPECT_NE(before.findings[0].detail.find("is not a file in the node directory"),
            std::string::npos)
      << before.findings[0].detail;

  EXPECT_TRUE(repair_dataset(root_).complete());
  EXPECT_TRUE(scrub_dataset(root_).clean());
  expect_intact();
}

TEST_F(ScrubRepairTest, ChecksumThatIsNotHexIsAMalformedIndex) {
  create(2, 1);
  std::string text = index_text(0);
  const std::size_t eol = text.find('\n');
  const std::size_t crc = text.rfind(' ', eol) + 1;
  text.replace(crc, eol - crc, "zz");
  write_index_text(0, text);
  expect_rejected_index_is_repaired("index checksum 'zz' is not a CRC-32 in hex");
}

TEST_F(ScrubRepairTest, SliceOutsideTheVolumeIsAMalformedIndex) {
  create(2, 1);
  write_index_text(0, index_text(0) + "9 9 slice_t9_z9.raw 1234\n");
  expect_rejected_index_is_repaired("index slice (t=9, z=9) outside the volume");
}

TEST_F(ScrubRepairTest, SliceListedTwiceIsAMalformedIndex) {
  create(2, 1);
  // A stray file, listed without a checksum for slice (0, 0) ahead of that
  // slice's own CRC'd line: the index names the slice twice, and the reader,
  // scrub and repair agree that an index lists each slice once. The stray
  // bytes differ from the slice's, and with one replica no other copy can
  // outvote them, so only the CRC the second line carries tells them apart.
  fsys::copy_file(slice_path(0, 0, 0), root_ / node_dir_name(0) / "other.raw");
  flip_byte(root_ / node_dir_name(0) / "other.raw", 3);
  write_index_text(0, "0 0 other.raw\n" + index_text(0));
  const DiskDataset ds = DiskDataset::open(root_);
  EXPECT_THROW(ds.node_reader(0), std::runtime_error);
  const ScrubReport before = scrub_dataset(root_);
  ASSERT_EQ(before.findings.size(), 1u) << before.summary();
  EXPECT_EQ(before.findings[0].kind, ScrubDefect::MalformedIndex);
  EXPECT_EQ(before.findings[0].node, 0);
  const std::string& detail = before.findings[0].detail;
  EXPECT_NE(detail.find("index lists slice (t=0, z=0) again (first on line 1)"),
            std::string::npos)
      << detail;
  EXPECT_NE(detail.find(std::string(kIndexFileName) + ":2: 0 0 "), std::string::npos) << detail;
  EXPECT_EQ(before.copies_verified, 12);

  // The checksummed line stands; repair writes the index with one line per
  // slice and never trades a CRC for a line without one.
  const RepairReport repair = repair_dataset(root_);
  EXPECT_TRUE(repair.complete()) << repair.summary();
  EXPECT_EQ(repair.indexes_rebuilt, 1);
  const ScrubReport after = scrub_dataset(root_);
  EXPECT_TRUE(after.clean()) << after.summary();
  EXPECT_EQ(after.copies_verified, 12);
  EXPECT_EQ(after.copies_unverified, 0);
  const SliceRef s00 = ds.node_reader(0).slice_ref(0, 0);
  EXPECT_EQ(s00.filename, slice_filename(0, 0));
  EXPECT_TRUE(s00.has_crc);
  EXPECT_EQ(ds.node_reader(0).slices().size(), 6u);
  expect_intact();
}

TEST_F(ScrubRepairTest, IndexWithoutASliceLineIsReportedAndRestored) {
  create(3, 2);
  // Node 0's first line is its entry for slice (t=0, z=0).
  const std::string text = index_text(0);
  write_index_text(0, text.substr(text.find('\n') + 1));

  const ScrubReport before = scrub_dataset(root_);
  ASSERT_EQ(before.findings.size(), 1u) << before.summary();
  EXPECT_EQ(before.findings[0].kind, ScrubDefect::IndexEntryMissing);
  EXPECT_EQ(before.findings[0].node, 0);
  EXPECT_EQ(before.findings[0].t, 0);
  EXPECT_EQ(before.findings[0].z, 0);

  const RepairReport repair = repair_dataset(root_);
  EXPECT_TRUE(repair.complete()) << repair.summary();
  EXPECT_EQ(repair.indexes_rebuilt, 1);
  EXPECT_EQ(index_text(0), text);
  EXPECT_TRUE(scrub_dataset(root_).clean());
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

TEST_F(ScrubRepairTest, RejectedIndexLineKeepsTheOtherLinesChecksums) {
  create(3, 1);
  flip_byte(slice_path(0, 0, 0), 3);
  // A fifth token makes the appended copy of node 0's first line malformed;
  // the first line itself, and its CRC, still read.
  const std::string text = index_text(0);
  write_index_text(0, text + text.substr(0, text.find('\n')) + " extra\n");

  const ScrubReport before = scrub_dataset(root_);
  ASSERT_EQ(before.findings.size(), 2u) << before.summary();
  EXPECT_EQ(before.findings[0].kind, ScrubDefect::MalformedIndex);
  EXPECT_EQ(before.findings[0].node, 0);
  EXPECT_EQ(before.findings[1].kind, ScrubDefect::ChecksumMismatch);
  EXPECT_EQ(before.findings[1].t, 0);
  EXPECT_EQ(before.findings[1].z, 0);

  // The indexed CRC still convicts the only copy: repair must not rewrite
  // the index around the corrupt bytes.
  const RepairReport repair = repair_dataset(root_);
  EXPECT_FALSE(repair.complete());
  ASSERT_EQ(repair.unrepairable.size(), 1u) << repair.summary();
  EXPECT_EQ(repair.unrepairable[0].t, 0);
  EXPECT_EQ(repair.unrepairable[0].z, 0);
  const ScrubReport after = scrub_dataset(root_);
  ASSERT_EQ(after.findings.size(), 1u) << after.summary();
  EXPECT_EQ(after.findings[0].kind, ScrubDefect::ChecksumMismatch);
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

TEST_F(ScrubRepairTest, ScrubJsonRoundTripsControlBytesInFilenames) {
  create(2, 2);
  // Node 0's entry for slice (0, 0) names a missing node-local file whose
  // name holds byte 0x01.
  const std::string name = std::string("slice") + '\x01' + ".raw";
  const std::string text = index_text(0);
  const std::size_t eol = text.find('\n');
  write_index_text(0, "0 0 " + name + text.substr(text.rfind(' ', eol), std::string::npos));

  const ScrubReport r = scrub_dataset(root_);
  ASSERT_EQ(r.findings.size(), 1u) << r.summary();
  EXPECT_EQ(r.findings[0].kind, ScrubDefect::MissingCopy);
  const std::string path = (root_ / node_dir_name(0) / name).string();
  EXPECT_EQ(r.findings[0].detail, path);
  std::ostringstream os;
  r.write_json(os);
  testing::json::Value doc;
  ASSERT_NO_THROW(doc = testing::json::parse(os.str())) << os.str();
  EXPECT_EQ(doc.at("findings").array.at(0).at("detail").str(), path);
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
