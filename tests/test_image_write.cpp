#include "io/image_write.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "io/durable_file.hpp"

namespace h4d::io {
namespace {

namespace fsys = std::filesystem;

class ImageWriteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fsys::temp_directory_path() /
           ("h4d_img_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fsys::remove_all(dir_);
    fsys::create_directories(dir_);
  }
  void TearDown() override { fsys::remove_all(dir_); }
  fsys::path dir_;
};

TEST_F(ImageWriteTest, PgmRoundTrips) {
  std::vector<std::uint8_t> img(6 * 4);
  for (std::size_t i = 0; i < img.size(); ++i) img[i] = static_cast<std::uint8_t>(i * 10);
  write_pgm(dir_ / "a.pgm", 6, 4, img.data());

  std::int64_t w = 0, h = 0;
  const auto back = read_pgm(dir_ / "a.pgm", w, h);
  EXPECT_EQ(w, 6);
  EXPECT_EQ(h, 4);
  EXPECT_EQ(back, img);
}

TEST_F(ImageWriteTest, PgmRejectsBadDims) {
  std::uint8_t px = 0;
  EXPECT_THROW(write_pgm(dir_ / "b.pgm", 0, 4, &px), std::invalid_argument);
}

TEST_F(ImageWriteTest, ReadPgmRejectsMissingFile) {
  std::int64_t w, h;
  EXPECT_THROW(read_pgm(dir_ / "missing.pgm", w, h), std::runtime_error);
}

TEST_F(ImageWriteTest, FeatureMapSeriesNormalizesToFullRange) {
  Volume4<float> map({4, 4, 2, 3});
  for (std::int64_t t = 0; t < 3; ++t)
    for (std::int64_t z = 0; z < 2; ++z)
      for (std::int64_t y = 0; y < 4; ++y)
        for (std::int64_t x = 0; x < 4; ++x)
          map.at(x, y, z, t) = static_cast<float>(x + y + z + t);

  const int n = write_feature_map_images(dir_, "contrast", map, 0.0f, 3 + 3 + 1 + 2);
  EXPECT_EQ(n, 6);  // z * t slices

  std::int64_t w, h;
  const auto img = read_pgm(dir_ / "contrast_t0_z0.pgm", w, h);
  EXPECT_EQ(img[0], 0);  // min -> black
  const auto last = read_pgm(dir_ / "contrast_t2_z1.pgm", w, h);
  EXPECT_EQ(last.back(), 255);  // max -> white
}

TEST_F(ImageWriteTest, FeatureMapConstantInputIsBlack) {
  Volume4<float> map({3, 3, 1, 1}, 5.0f);
  write_feature_map_images(dir_, "flat", map, 5.0f, 5.0f);
  std::int64_t w, h;
  const auto img = read_pgm(dir_ / "flat_t0_z0.pgm", w, h);
  for (auto px : img) EXPECT_EQ(px, 0);
}

TEST_F(ImageWriteTest, RampMapWritesNormalizedSeries) {
  // The paper's JIW stage as every map-producing path runs it: a map's own
  // min/max spans black to white, one <slug>_t<k>_z<k>.pgm per (z, t).
  Volume4<float> ramp({4, 4, 2, 2});
  for (std::size_t i = 0; i < ramp.storage().size(); ++i) {
    ramp.storage()[i] = static_cast<float>(i);
  }
  EXPECT_EQ(write_feature_map_images(dir_, "contrast", ramp, 0.0f, 63.0f), 4);

  std::vector<std::string> names;
  for (const auto& e : fsys::directory_iterator(dir_)) names.push_back(e.path().filename());
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"contrast_t0_z0.pgm", "contrast_t0_z1.pgm",
                                             "contrast_t1_z0.pgm", "contrast_t1_z1.pgm"}));
  std::int64_t w = 0, h = 0;
  EXPECT_EQ(read_pgm(dir_ / "contrast_t0_z0.pgm", w, h).front(), 0);
  EXPECT_EQ(w, 4);
  EXPECT_EQ(h, 4);
  EXPECT_EQ(read_pgm(dir_ / "contrast_t1_z1.pgm", w, h).back(), 255);

  const Volume4<float> flat({4, 4, 2, 2}, 3.5f);
  EXPECT_EQ(write_feature_map_images(dir_, "flat", flat, 3.5f, 3.5f), 4);
  for (const char* name : {"flat_t0_z0.pgm", "flat_t0_z1.pgm", "flat_t1_z0.pgm",
                           "flat_t1_z1.pgm"}) {
    for (auto px : read_pgm(dir_ / name, w, h)) EXPECT_EQ(px, 0) << name;
  }
}

/// The series as the per-pixel writer produced it: for each (t, z) the P5
/// header, then every pixel through map.at with the same division, clamp and
/// rounding.
std::vector<std::vector<std::uint8_t>> reference_series(const Volume4<float>& map, float vmin,
                                                        float vmax) {
  const Vec4 d = map.dims();
  const float range = vmax - vmin;
  const std::string header =
      "P5\n" + std::to_string(d[0]) + " " + std::to_string(d[1]) + "\n255\n";
  std::vector<std::vector<std::uint8_t>> files;
  for (std::int64_t t = 0; t < d[3]; ++t) {
    for (std::int64_t z = 0; z < d[2]; ++z) {
      std::vector<std::uint8_t> file(header.begin(), header.end());
      for (std::int64_t y = 0; y < d[1]; ++y) {
        for (std::int64_t x = 0; x < d[0]; ++x) {
          float v = range > 0.0f ? (map.at(x, y, z, t) - vmin) / range : 0.0f;
          v = std::clamp(v, 0.0f, 1.0f);
          file.push_back(static_cast<std::uint8_t>(v * 255.0f + 0.5f));
        }
      }
      files.push_back(std::move(file));
    }
  }
  return files;
}

std::vector<std::uint8_t> file_bytes(const fsys::path& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

std::string slice_name(const std::string& prefix, std::int64_t t, std::int64_t z) {
  return prefix + "_t" + std::to_string(t) + "_z" + std::to_string(z) + ".pgm";
}

/// Every regular file in `dir` whose name ends in ".tmp".
std::vector<std::string> tmp_files(const fsys::path& dir) {
  std::vector<std::string> out;
  for (const auto& e : fsys::directory_iterator(dir)) {
    const std::string name = e.path().filename();
    if (e.is_regular_file() && name.size() > 4 && name.ends_with(".tmp")) out.push_back(name);
  }
  return out;
}

Volume4<float> wavy_map(Vec4 dims, float scale) {
  Volume4<float> map(dims);
  for (std::size_t i = 0; i < map.storage().size(); ++i) {
    map.storage()[i] = scale * static_cast<float>((i * 37) % 101) - 20.0f;
  }
  return map;
}

TEST_F(ImageWriteTest, BatchedSeriesMatchesPerPixelReference) {
  const auto hw = static_cast<std::int64_t>(std::max(1u, std::thread::hardware_concurrency()));
  struct Case {
    std::string name;
    Vec4 dims;
    float vmin, vmax;
  };
  const std::vector<Case> cases = {
      // Slice count one past a multiple of the worker count.
      {"uneven", {5, 3, 2 * hw + 1, 1}, -20.0f, 80.0f},
      {"uneven_t", {4, 4, 3, hw + 1}, -20.0f, 80.0f},
      {"one_slice", {6, 5, 1, 1}, -20.0f, 80.0f},
      {"width_one", {1, 7, 3, 2}, -20.0f, 80.0f},
      // Values far outside [vmin, vmax] clamp to black and white.
      {"clamped", {7, 4, 2, 3}, 10.0f, 30.0f},
      // Range 0 (and a negative range) writes black.
      {"flat", {3, 3, 2, 2}, 5.0f, 5.0f},
      {"inverted", {3, 3, 2, 2}, 5.0f, 1.0f},
  };
  for (const Case& c : cases) {
    const Volume4<float> map = wavy_map(c.dims, 1.0f);
    const int n = write_feature_map_images(dir_, c.name, map, c.vmin, c.vmax);
    ASSERT_EQ(n, c.dims[2] * c.dims[3]) << c.name;
    const auto expected = reference_series(map, c.vmin, c.vmax);
    std::size_t k = 0;
    for (std::int64_t t = 0; t < c.dims[3]; ++t) {
      for (std::int64_t z = 0; z < c.dims[2]; ++z, ++k) {
        EXPECT_EQ(file_bytes(dir_ / slice_name(c.name, t, z)), expected[k])
            << c.name << " t" << t << " z" << z;
      }
    }
  }
  EXPECT_TRUE(tmp_files(dir_).empty());
}

TEST_F(ImageWriteTest, FailedBatchRenamesNothingAndLeavesNoTmp) {
  // An older series of 4 slices, then a 6-slice rewrite whose slice z=2
  // cannot be written: a directory sits at its .tmp path (a colliding path
  // fails as root too, where permission bits would not).
  const Volume4<float> old_map = wavy_map({4, 3, 4, 1}, 1.0f);
  ASSERT_EQ(write_feature_map_images(dir_, "f", old_map, -20.0f, 80.0f), 4);
  std::vector<std::vector<std::uint8_t>> before;
  for (std::int64_t z = 0; z < 4; ++z) before.push_back(file_bytes(dir_ / slice_name("f", 0, z)));

  const fsys::path blocker = dir_ / (slice_name("f", 0, 2) + ".tmp");
  fsys::create_directory(blocker);
  const Volume4<float> new_map = wavy_map({4, 3, 6, 1}, 0.5f);
  try {
    write_feature_map_images(dir_, "f", new_map, -20.0f, 80.0f);
    FAIL() << "expected WriteError";
  } catch (const WriteError& e) {
    EXPECT_EQ(e.path(), blocker);
    EXPECT_NE(e.errno_value(), 0);
  }
  EXPECT_TRUE(tmp_files(dir_).empty());
  EXPECT_TRUE(fsys::is_directory(blocker));  // not this call's to remove
  for (std::int64_t z = 0; z < 4; ++z) {
    EXPECT_EQ(file_bytes(dir_ / slice_name("f", 0, z)), before[static_cast<std::size_t>(z)])
        << "older slice z" << z << " was replaced";
  }
  for (std::int64_t z = 4; z < 6; ++z) {
    EXPECT_FALSE(fsys::exists(dir_ / slice_name("f", 0, z))) << "new slice z" << z;
  }

  // With the collision gone the same call succeeds and replaces the series.
  fsys::remove(blocker);
  ASSERT_EQ(write_feature_map_images(dir_, "f", new_map, -20.0f, 80.0f), 6);
  const auto expected = reference_series(new_map, -20.0f, 80.0f);
  for (std::int64_t z = 0; z < 6; ++z) {
    EXPECT_EQ(file_bytes(dir_ / slice_name("f", 0, z)), expected[static_cast<std::size_t>(z)]);
  }
}

TEST_F(ImageWriteTest, AtomicWriteFilesWritesEveryFileInOneBatch) {
  std::vector<std::string> payloads;
  std::vector<FileWrite> files;
  for (std::size_t i = 0; i < 11; ++i) payloads.push_back(std::string(i, 'a'));
  for (std::size_t i = 0; i < 11; ++i) {
    files.push_back({dir_ / ("f" + std::to_string(i)), payloads[i].data(), payloads[i].size()});
  }
  atomic_write_files(files);
  atomic_write_files({});  // an empty batch is a no-op
  for (std::size_t i = 0; i < 11; ++i) {
    const auto back = file_bytes(dir_ / ("f" + std::to_string(i)));
    EXPECT_EQ(std::string(back.begin(), back.end()), payloads[i]);
  }
  EXPECT_TRUE(tmp_files(dir_).empty());
}

TEST(CsvWriter, FormatsHeaderAndRows) {
  CsvWriter csv({"a", "b"});
  csv.add_row({"1", "x"});
  csv.add_row({"2", "y"});
  EXPECT_EQ(csv.str(), "a,b\n1,x\n2,y\n");
}

TEST(CsvWriter, RejectsBadShape) {
  EXPECT_THROW(CsvWriter({}), std::invalid_argument);
  CsvWriter csv({"a", "b"});
  EXPECT_THROW(csv.add_row({"only-one"}), std::invalid_argument);
}

TEST(CsvWriter, NumFormatting) {
  EXPECT_EQ(CsvWriter::num(1.5), "1.5");
  EXPECT_EQ(CsvWriter::num(42), "42");
}

// --- Durable write primitives (io/durable_file.hpp) -------------------------

using DurableFileTest = ImageWriteTest;

TEST_F(DurableFileTest, AtomicWriteRoundTripsAndLeavesNoTmp) {
  const std::string payload = "hello, durable world";
  atomic_write_file(dir_ / "f.bin", payload.data(), payload.size());
  std::ifstream f(dir_ / "f.bin", std::ios::binary);
  std::string back((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  EXPECT_EQ(back, payload);
  EXPECT_FALSE(fsys::exists(dir_ / "f.bin.tmp"));
}

TEST_F(DurableFileTest, AtomicWriteReplacesExistingFile) {
  const std::string a = "first version, longer";
  const std::string b = "second";
  atomic_write_file(dir_ / "f.bin", a.data(), a.size());
  atomic_write_file(dir_ / "f.bin", b.data(), b.size());
  std::ifstream f(dir_ / "f.bin", std::ios::binary);
  std::string back((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  EXPECT_EQ(back, b);
}

TEST_F(DurableFileTest, AtomicWriteToMissingDirectoryThrowsTypedError) {
  const fsys::path target = dir_ / "no_such_dir" / "f.bin";
  try {
    atomic_write_file(target, "x", 1);
    FAIL() << "expected WriteError";
  } catch (const WriteError& e) {
    EXPECT_EQ(e.path(), fsys::path(target.string() + ".tmp"));
    EXPECT_NE(e.errno_value(), 0);
    EXPECT_FALSE(e.disk_full());
    EXPECT_NE(std::string(e.what()).find("f.bin"), std::string::npos);
  }
}

TEST_F(DurableFileTest, AppendDurableAccumulatesRecords) {
  append_durable(dir_ / "log.bin", "abc", 3);
  append_durable(dir_ / "log.bin", "def", 3);
  std::ifstream f(dir_ / "log.bin", std::ios::binary);
  std::string back((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  EXPECT_EQ(back, "abcdef");
}

TEST_F(DurableFileTest, DiskFullErrorIsActionable) {
  const WriteError e(dir_ / "out.pgm", 1024, ENOSPC, "feature map write");
  EXPECT_TRUE(e.disk_full());
  EXPECT_EQ(e.bytes_attempted(), 1024);
  const std::string msg = e.what();
  EXPECT_NE(msg.find("free space"), std::string::npos) << msg;
  EXPECT_NE(msg.find("out.pgm"), std::string::npos) << msg;
}

TEST_F(DurableFileTest, ShortWriteErrorReportsByteCounts) {
  const WriteError e(dir_ / "samples.uso", 512, 0, "sample append");
  EXPECT_FALSE(e.disk_full());
  EXPECT_NE(std::string(e.what()).find("512"), std::string::npos);
}

}  // namespace
}  // namespace h4d::io
