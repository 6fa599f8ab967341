#include "io/dataset.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>

namespace h4d::io {
namespace {

namespace fsys = std::filesystem;

class DatasetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fsys::temp_directory_path() /
            ("h4d_dataset_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fsys::remove_all(root_);
  }
  void TearDown() override { fsys::remove_all(root_); }

  static Volume4<std::uint16_t> sample_volume(Vec4 dims, unsigned seed = 7) {
    Volume4<std::uint16_t> v(dims);
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int> u(0, 4000);
    for (auto& x : v.storage()) x = static_cast<std::uint16_t>(u(rng));
    return v;
  }

  fsys::path root_;
};

TEST_F(DatasetTest, CreateAndReadAllRoundTrips) {
  const auto vol = sample_volume({8, 8, 4, 3});
  const DiskDataset ds = DiskDataset::create(root_, vol, 3);
  const auto back = ds.read_all();
  EXPECT_EQ(back.dims(), vol.dims());
  EXPECT_EQ(back.storage(), vol.storage());
}

TEST_F(DatasetTest, MetaPersistsRangeAndLayout) {
  auto vol = sample_volume({4, 4, 2, 2});
  vol.at(0, 0, 0, 0) = 17;
  vol.at(1, 0, 0, 0) = 3999;
  DiskDataset::create(root_, vol, 2);

  const DiskDataset ds = DiskDataset::open(root_);
  EXPECT_EQ(ds.meta().dims, Vec4(4, 4, 2, 2));
  EXPECT_EQ(ds.meta().storage_nodes, 2);
  EXPECT_EQ(ds.meta().dtype, Dtype::U16);
  double lo = 1e9, hi = -1;
  for (auto v : vol.storage()) {
    lo = std::min<double>(lo, v);
    hi = std::max<double>(hi, v);
  }
  EXPECT_DOUBLE_EQ(ds.meta().value_min, lo);
  EXPECT_DOUBLE_EQ(ds.meta().value_max, hi);
}

TEST_F(DatasetTest, RoundRobinSliceDistribution) {
  const auto vol = sample_volume({4, 4, 3, 4});  // 12 slices
  const DiskDataset ds = DiskDataset::create(root_, vol, 3);
  // Every node holds exactly 4 slices, and node_of_slice matches the index.
  for (int n = 0; n < 3; ++n) {
    const StorageNodeReader reader = ds.node_reader(n);
    EXPECT_EQ(reader.slices().size(), 4u) << "node " << n;
    for (const SliceRef& s : reader.slices()) {
      EXPECT_EQ(ds.meta().node_of_slice(s.z, s.t), n);
    }
  }
}

TEST_F(DatasetTest, NodeReaderRejectsForeignSlice) {
  const auto vol = sample_volume({4, 4, 2, 2});
  const DiskDataset ds = DiskDataset::create(root_, vol, 2);
  const StorageNodeReader reader0 = ds.node_reader(0);
  const StorageNodeReader reader1 = ds.node_reader(1);
  const SliceRef foreign = reader1.slices().front();
  std::vector<std::uint8_t> out(static_cast<std::size_t>(ds.meta().slice_bytes()));
  EXPECT_THROW(reader0.read_slice_bytes(foreign, out.data()), std::invalid_argument);
}

TEST_F(DatasetTest, ReadRegionMatchesMemory) {
  const auto vol = sample_volume({10, 9, 4, 5});
  const DiskDataset ds = DiskDataset::create(root_, vol, 4);
  const Region4 r{{2, 3, 1, 1}, {5, 4, 2, 3}};
  const auto sub = ds.read_region(r);
  for (std::int64_t t = 0; t < r.size[3]; ++t)
    for (std::int64_t z = 0; z < r.size[2]; ++z)
      for (std::int64_t y = 0; y < r.size[1]; ++y)
        for (std::int64_t x = 0; x < r.size[0]; ++x) {
          EXPECT_EQ(sub.at(x, y, z, t), vol.at(r.origin[0] + x, r.origin[1] + y,
                                               r.origin[2] + z, r.origin[3] + t));
        }
}

TEST_F(DatasetTest, ReadRegionRejectsOutOfBounds) {
  const auto vol = sample_volume({4, 4, 2, 2});
  const DiskDataset ds = DiskDataset::create(root_, vol, 1);
  EXPECT_THROW(ds.read_region(Region4{{0, 0, 0, 0}, {5, 4, 2, 2}}), std::invalid_argument);
  EXPECT_THROW(ds.read_region(Region4{{0, 0, 0, 0}, {0, 0, 0, 0}}), std::invalid_argument);
}

TEST_F(DatasetTest, SeekAccountingFullVsPartialRows) {
  const auto vol = sample_volume({16, 16, 2, 1});
  const DiskDataset ds = DiskDataset::create(root_, vol, 1);
  const StorageNodeReader reader = ds.node_reader(0);
  const SliceRef s = reader.slices().front();

  // The whole slice is the only read unit: one seek per read, and the
  // bytes are exactly the slice's, row-major.
  std::vector<std::uint8_t> out(static_cast<std::size_t>(ds.meta().slice_bytes()));
  reader.read_slice_bytes(s, out.data());
  EXPECT_EQ(reader.seeks_performed(), 1);
  EXPECT_EQ(reader.bytes_read(), ds.meta().slice_bytes());
  std::vector<std::uint16_t> px(16 * 16);
  widen_to_u16(ds.meta().dtype, out.data(), 16 * 16, px.data());
  for (std::int64_t y = 0; y < 16; ++y)
    for (std::int64_t x = 0; x < 16; ++x) {
      EXPECT_EQ(px[static_cast<std::size_t>(y * 16 + x)], vol.at(x, y, s.z, s.t));
    }
}

TEST_F(DatasetTest, CreateRejectsBadNodeCount) {
  const auto vol = sample_volume({4, 4, 1, 1});
  EXPECT_THROW(DiskDataset::create(root_, vol, 0), std::invalid_argument);
}

TEST_F(DatasetTest, OpenMissingDatasetThrows) {
  EXPECT_THROW(DiskDataset::open(root_ / "nope"), std::runtime_error);
}

TEST_F(DatasetTest, MoreNodesThanSlicesStillWorks) {
  const auto vol = sample_volume({4, 4, 1, 2});  // 2 slices, 5 nodes
  const DiskDataset ds = DiskDataset::create(root_, vol, 5);
  EXPECT_EQ(ds.read_all().storage(), vol.storage());
  EXPECT_TRUE(ds.node_reader(4).slices().empty());
}

TEST_F(DatasetTest, CheckSliceFilesRejectsDimsNoSliceFileBearsOut) {
  // dims that fit int64 but name 128 GB slices: every read would allocate
  // that much. The check refuses them with a typed error instead.
  const auto vol = sample_volume({8, 8, 4, 3});
  DiskDataset::create(root_, vol, 2);
  const std::int64_t real = DiskDataset::open(root_).meta().slice_bytes();
  {
    std::ofstream meta(root_ / "dataset.meta", std::ios::trunc);
    meta << "version 2\ndims 4000000000 16 4 3\ndtype u16\nrange 0 4000\n"
         << "storage_nodes 2\nreplicas 1\n";
  }
  const DiskDataset ds = DiskDataset::open(root_);
  try {
    ds.check_slice_files();
    FAIL() << "expected DatasetShapeError";
  } catch (const DatasetShapeError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("128000000000-byte slices"), std::string::npos) << msg;
    EXPECT_NE(msg.find("none of the 12 indexed slice files"), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::to_string(real) + " B"), std::string::npos) << msg;
  }
}

TEST_F(DatasetTest, MetaRejectsBadRangesNodeCountsAndUnreadableFields) {
  DiskDataset::create(root_, sample_volume({4, 4, 2, 2}), 2);
  const auto load_with = [&](const std::string& dtype, const std::string& range,
                             const std::string& nodes, const std::string& replicas) {
    {
      std::ofstream meta(root_ / "dataset.meta", std::ios::trunc);
      meta << "version 2\ndims 4 4 2 2\ndtype " << dtype << "\nrange " << range
           << "\nstorage_nodes " << nodes << "\nreplicas " << replicas << "\n";
    }
    return DatasetMeta::load(root_);
  };
  const auto expect_rejected = [&](const std::string& dtype, const std::string& range,
                                   const std::string& nodes, const std::string& replicas,
                                   const std::string& message) {
    try {
      load_with(dtype, range, nodes, replicas);
      ADD_FAILURE() << "expected a rejection naming '" << message << "'";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("corrupt dataset.meta"), std::string::npos) << msg;
      EXPECT_NE(msg.find(message), std::string::npos) << msg;
    }
  };
  // Inverted, negative, or past the dtype's largest value.
  expect_rejected("u16", "5 1", "2", "1", "range 5 1 is not 0 <= min <= max <= 65535 for u16");
  expect_rejected("u16", "-3 100", "2", "1", "for u16");
  expect_rejected("u16", "542 19342147483648", "2", "1", "for u16");
  expect_rejected("u16", "0 65536", "2", "1", "for u16");
  expect_rejected("u8", "0 256", "2", "1", "is not 0 <= min <= max <= 255 for u8");
  // Past the node bound, or not a number that fits the field.
  expect_rejected("u16", "0 100", "100000000", "1", "must each be at most 4096");
  expect_rejected("u16", "0 100", "2", "5000", "must each be at most 4096");
  expect_rejected("u16", "0 100", "2147483648", "1", "unreadable storage_nodes value");
  expect_rejected("u16", "0 100", "two", "1", "unreadable storage_nodes value");
  expect_rejected("u16", "0 100", "2", "1e3", "replicas");
  expect_rejected("u16", "0 x", "2", "1", "unreadable range value");

  // The bounds themselves are valid, and so is a constant volume's range.
  EXPECT_EQ(load_with("u16", "0 65535", "4096", "4096").storage_nodes, 4096);
  EXPECT_EQ(load_with("u8", "255 255", "2", "1").value_min, 255.0);
  EXPECT_EQ(load_with("u16", "7 7", "2", "1").value_max, 7.0);
}

TEST_F(DatasetTest, ConstantVolumeRoundTripsItsEmptyRange) {
  Volume4<std::uint16_t> flat({4, 4, 2, 2});
  for (auto& x : flat.storage()) x = 300;
  DiskDataset::create(root_, flat, 2);
  const DiskDataset ds = DiskDataset::open(root_);
  EXPECT_EQ(ds.meta().value_min, 300.0);
  EXPECT_EQ(ds.meta().value_max, 300.0);
  EXPECT_EQ(ds.read_all().storage(), flat.storage());
}

TEST_F(DatasetTest, CreateRejectsMoreNodesThanTheBound) {
  EXPECT_THROW(DiskDataset::create(root_, sample_volume({4, 4, 1, 1}), DatasetMeta::kMaxNodes + 1),
               std::invalid_argument);
  EXPECT_FALSE(fsys::exists(root_ / "dataset.meta"));
}

TEST_F(DatasetTest, CheckSliceFilesLeavesOneShortOrMissingSliceToTheReadPath) {
  // A single damaged file is a read-time fault (retries, replicas, scrub),
  // not a shape error: the check still passes.
  const auto vol = sample_volume({8, 8, 4, 3});
  const DiskDataset ds = DiskDataset::create(root_, vol, 2);
  const fsys::path node0 = ds.node_dir(0);
  const SliceRef first = ds.node_reader(0).slices().front();
  fsys::resize_file(node0 / first.filename, 3);
  EXPECT_NO_THROW(ds.check_slice_files());
  fsys::remove(node0 / first.filename);
  EXPECT_NO_THROW(ds.check_slice_files());
}

}  // namespace
}  // namespace h4d::io
