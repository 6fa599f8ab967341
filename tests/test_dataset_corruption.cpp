// On-disk corruption detection: bytes flipped in a written slice file must
// be caught by the CRC-32 recorded in the node index — through read_region,
// through the degradation policies, and through the full pipeline. Also
// covers the legacy (checksum-free) index format and truncated slice files.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <vector>

#include "cli/cli.hpp"
#include "core/analysis.hpp"
#include "io/dataset.hpp"
#include "io/phantom.hpp"
#include "io/resilient_reader.hpp"

namespace h4d::io {
namespace {

namespace fsys = std::filesystem;

// Flip one byte of a file in place.
void flip_byte(const fsys::path& file, std::streamoff offset) {
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << file;
  f.seekg(offset);
  char c = 0;
  f.get(c);
  f.seekp(offset);
  f.put(static_cast<char>(c ^ 0x5A));
  ASSERT_TRUE(f.good());
}

// Rewrite a node index dropping the checksum column (the pre-checksum
// on-disk format).
void strip_crc_column(const fsys::path& index_file) {
  std::ifstream in(index_file);
  ASSERT_TRUE(in.is_open()) << index_file;
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream is(line);
    std::int64_t t = 0, z = 0;
    std::string name;
    ASSERT_TRUE(static_cast<bool>(is >> t >> z >> name)) << line;
    out << t << ' ' << z << ' ' << name << '\n';
  }
  in.close();
  std::ofstream rewritten(index_file, std::ios::trunc);
  rewritten << out.str();
}

// Open node 0's reader over an index holding `original` plus one `bad`
// line; it must throw a runtime_error naming the index file, the line
// number and the line.
void expect_index_line_rejected(const fsys::path& root, const std::string& original,
                                const std::string& bad) {
  const fsys::path index_file = root / "node_0" / "index.txt";
  {
    std::ofstream out(index_file, std::ios::trunc);
    out << original << bad << '\n';
  }
  const auto lines = std::count(original.begin(), original.end(), '\n');
  try {
    static_cast<void>(DiskDataset::open(root).node_reader(0));
    ADD_FAILURE() << "index line accepted: " << bad;
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(index_file.string() + ":" + std::to_string(lines + 1) + ": "),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find(bad), std::string::npos) << msg;
  }
}

std::string read_file(const fsys::path& file) {
  std::ifstream in(file);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class CorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fsys::temp_directory_path() /
            ("h4d_corrupt_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fsys::remove_all(root_);
    vol_ = Volume4<std::uint16_t>({7, 6, 4, 3});
    std::mt19937_64 rng(21);
    std::uniform_int_distribution<int> u(0, 4000);
    for (auto& x : vol_.storage()) x = static_cast<std::uint16_t>(u(rng));
  }
  void TearDown() override { fsys::remove_all(root_); }

  // Slice (t=0, z=0) is slice number 0: always on node_0.
  fsys::path slice00_path() const { return root_ / "node_0" / "slice_t0_z0.raw"; }

  fsys::path root_;
  Volume4<std::uint16_t> vol_{Vec4{1, 1, 1, 1}};
};

TEST_F(CorruptionTest, FlippedByteOnDiskIsCaughtByDefaultReadRegion) {
  const DiskDataset ds = DiskDataset::create(root_, vol_, 2);
  flip_byte(slice00_path(), 5);
  try {
    ds.read_region(Region4::whole(vol_.dims()));
    FAIL() << "expected ChecksumError";
  } catch (const ChecksumError& e) {
    EXPECT_EQ(e.t, 0);
    EXPECT_EQ(e.z, 0);
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos) << e.what();
  }
}

TEST_F(CorruptionTest, UncorruptedDatasetRoundTripsThroughVerifiedPath) {
  const DiskDataset ds = DiskDataset::create(root_, vol_, 2);
  const auto back = ds.read_region(Region4::whole(vol_.dims()));
  EXPECT_EQ(back.storage(), vol_.storage());
}

TEST_F(CorruptionTest, SkipAndFillIsolatesTheDamagedSlice) {
  const DiskDataset ds = DiskDataset::create(root_, vol_, 2);
  flip_byte(slice00_path(), 5);

  ResilienceConfig rc;
  rc.policy = DegradePolicy::SkipAndFill;
  rc.retry.max_attempts = 2;
  rc.retry.really_sleep = false;
  rc.fill_value = 777;
  FaultReport report;
  const auto got = ds.read_region(Region4::whole(vol_.dims()), rc, nullptr, &report);

  ASSERT_EQ(got.dims(), vol_.dims());
  for (std::int64_t t = 0; t < vol_.dims()[3]; ++t)
    for (std::int64_t z = 0; z < vol_.dims()[2]; ++z)
      for (std::int64_t y = 0; y < vol_.dims()[1]; ++y)
        for (std::int64_t x = 0; x < vol_.dims()[0]; ++x) {
          if (t == 0 && z == 0) {
            ASSERT_EQ(got.at(x, y, z, t), 777);
          } else {
            ASSERT_EQ(got.at(x, y, z, t), vol_.at(x, y, z, t))
                << "undamaged slice altered at t=" << t << " z=" << z;
          }
        }

  ASSERT_EQ(report.skipped.size(), 1u);
  EXPECT_EQ(report.skipped[0].t, 0);
  EXPECT_EQ(report.skipped[0].z, 0);
  EXPECT_EQ(report.slices_skipped, 1);
  EXPECT_GE(report.checksum_failures, 1);
}

TEST_F(CorruptionTest, VerificationCanBeDisabled) {
  const DiskDataset ds = DiskDataset::create(root_, vol_, 1);
  flip_byte(slice00_path(), 5);
  ResilienceConfig rc;  // FailFast, but...
  rc.verify_checksums = false;
  // ...without verification the flipped byte sails through undetected.
  const auto got = ds.read_region(Region4::whole(vol_.dims()), rc);
  EXPECT_NE(got.storage(), vol_.storage());
}

TEST_F(CorruptionTest, LegacyIndexWithoutChecksumsStillReads) {
  const DiskDataset ds = DiskDataset::create(root_, vol_, 2);
  strip_crc_column(root_ / "node_0" / "index.txt");
  strip_crc_column(root_ / "node_1" / "index.txt");

  const DiskDataset reopened = DiskDataset::open(root_);
  for (int n = 0; n < 2; ++n) {
    const StorageNodeReader reader = reopened.node_reader(n);
    for (const SliceRef& s : reader.slices()) {
      EXPECT_FALSE(s.has_crc);
    }
  }
  // Clean data still round-trips (verification is simply unavailable)...
  EXPECT_EQ(reopened.read_region(Region4::whole(vol_.dims())).storage(), vol_.storage());
  // ...and corruption is — by design — no longer detectable.
  flip_byte(slice00_path(), 5);
  EXPECT_NO_THROW(reopened.read_region(Region4::whole(vol_.dims())));
}

TEST_F(CorruptionTest, IndexFilenameOutsideNodeDirectoryIsRejected) {
  DiskDataset::create(root_, vol_, 1);
  const std::string original = read_file(root_ / "node_0" / "index.txt");
  // A relative escape and an absolute path (which replaces the whole joined
  // path) would both read a file outside the dataset.
  for (const char* bad : {"0 0 ../../../etc/passwd", "0 0 /etc/passwd", "0 0 ..",
                          "0 0 .", "0 0 sub/slice_t0_z0.raw"}) {
    expect_index_line_rejected(root_, original, bad);
  }
}

TEST_F(CorruptionTest, IndexSliceOutsideTheVolumeIsRejected) {
  DiskDataset::create(root_, vol_, 1);  // 3 time steps x 4 z slices
  const std::string original = read_file(root_ / "node_0" / "index.txt");
  for (const char* bad : {"3 0 slice_t3_z0.raw", "0 4 slice_t0_z4.raw",
                          "-1 0 slice_t0_z0.raw", "0 -1 slice_t0_z0.raw"}) {
    expect_index_line_rejected(root_, original, bad);
  }
}

TEST_F(CorruptionTest, IndexNonHexChecksumIsRejected) {
  DiskDataset::create(root_, vol_, 1);
  const std::string original = read_file(root_ / "node_0" / "index.txt");
  // "12zz" used to parse as 0x12; "xyz" threw a bare std::stoul error; nine
  // digits do not fit a CRC-32.
  for (const char* bad : {"0 0 slice_t0_z0.raw 12zz", "0 0 slice_t0_z0.raw xyz",
                          "0 0 slice_t0_z0.raw 123456789"}) {
    expect_index_line_rejected(root_, original, bad);
  }
}

TEST_F(CorruptionTest, MetaDimsOverflowingByteCountAreRejected) {
  DiskDataset::create(root_, vol_, 1);
  // 3037000500^2 exceeds INT64_MAX: slice_bytes() would overflow.
  {
    std::ofstream meta(root_ / "dataset.meta", std::ios::trunc);
    meta << "version 2\ndims 3037000500 3037000500 4 3\ndtype u16\nrange 0 4000\n"
         << "storage_nodes 1\nreplicas 1\n";
  }
  try {
    DatasetMeta::load(root_);
    FAIL() << "expected the overflowing dims to be rejected";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("corrupt dataset.meta"), std::string::npos) << msg;
    EXPECT_NE(msg.find("3037000500"), std::string::npos) << msg;
  }

  const std::string root = root_.string();
  const char* argv[] = {"h4d", "info", root.c_str()};
  std::ostringstream out, err;
  EXPECT_NE(cli::run(3, argv, out, err), 0);
  EXPECT_NE(err.str().find("corrupt dataset.meta"), std::string::npos) << err.str();
}

TEST_F(CorruptionTest, InfoReportsAMalformedIndexInsteadOfAMissingNode) {
  DiskDataset::create(root_, vol_, 2);
  const std::string root = root_.string();
  const char* argv[] = {"h4d", "info", root.c_str()};
  {
    std::ofstream index(root_ / "node_0" / "index.txt", std::ios::app);
    index << "garbage line here\n";
  }
  std::ostringstream out, err;
  EXPECT_NE(cli::run(3, argv, out, err), 0);
  EXPECT_NE(err.str().find("index.txt"), std::string::npos) << err.str();
  EXPECT_EQ(out.str().find("missing"), std::string::npos) << out.str();

  // A node whose index is gone is still reported as missing, and info
  // succeeds.
  fsys::remove_all(root_ / "node_0");
  std::ostringstream out2, err2;
  EXPECT_EQ(cli::run(3, argv, out2, err2), 0) << err2.str();
  EXPECT_NE(out2.str().find("node_0: missing"), std::string::npos) << out2.str();
  EXPECT_NE(out2.str().find("node_1: "), std::string::npos) << out2.str();
}

TEST_F(CorruptionTest, TruncatedSliceReportsExpectedVersusActual) {
  const DiskDataset ds = DiskDataset::create(root_, vol_, 1);
  const std::int64_t full = static_cast<std::int64_t>(fsys::file_size(slice00_path()));
  fsys::resize_file(slice00_path(), static_cast<std::uintmax_t>(full / 2));

  StorageNodeReader reader = ds.node_reader(0);
  const SliceRef* s = reader.find_slice(0, 0);
  ASSERT_NE(s, nullptr);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(full));
  try {
    reader.read_slice_bytes(*s, bytes.data());
    FAIL() << "expected SliceReadError";
  } catch (const SliceReadError& e) {
    EXPECT_EQ(e.t, 0);
    EXPECT_EQ(e.z, 0);
    EXPECT_EQ(e.expected_bytes, full);
    EXPECT_EQ(e.actual_bytes, full / 2);
    const std::string msg = e.what();
    EXPECT_NE(msg.find("expected"), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::to_string(full)), std::string::npos) << msg;
    EXPECT_NE(msg.find("t=0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("z=0"), std::string::npos) << msg;
  }
}

struct CorruptionE2E : ::testing::Test {
  void SetUp() override {
    root_ = fsys::temp_directory_path() /
            ("h4d_corrupt_e2e_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fsys::remove_all(root_);
    PhantomConfig pcfg;
    pcfg.dims = {16, 14, 5, 4};
    pcfg.num_tumors = 1;
    pcfg.seed = 11;
    phantom_ = generate_phantom(pcfg).volume;
    DiskDataset::create(root_, phantom_, 2);
    flip_byte(root_ / "node_0" / "slice_t0_z0.raw", 9);
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

TEST_F(CorruptionE2E, PipelineFailsFastOnCorruptionByDefault) {
  EXPECT_THROW(core::analyze_threaded(config()), std::runtime_error);
}

TEST_F(CorruptionE2E, PipelineCompletesUnderSkipAndFill) {
  core::PipelineConfig cfg = config();
  cfg.resilience.policy = io::DegradePolicy::SkipAndFill;
  cfg.resilience.retry.max_attempts = 2;

  const core::AnalysisResult r = core::analyze_threaded(cfg);
  ASSERT_EQ(r.faults.skipped.size(), 1u);
  EXPECT_EQ(r.faults.skipped[0].t, 0);
  EXPECT_EQ(r.faults.skipped[0].z, 0);
  EXPECT_EQ(r.faults.slices_skipped, 1);
  EXPECT_GE(r.faults.checksum_failures, 1);
  EXPECT_FALSE(r.faults.clean());
  // All feature maps were produced despite the damaged slice.
  EXPECT_EQ(r.maps.size(), 4u);  // paper_eval feature count
  for (const auto& [feature, map] : r.maps) {
    EXPECT_GT(map.size(), 0) << haralick::feature_name(feature);
  }
}

}  // namespace
}  // namespace h4d::io
