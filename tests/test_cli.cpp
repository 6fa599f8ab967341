#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <vector>

#include "io/mhd.hpp"
#include "io/phantom.hpp"
#include "json_lite.hpp"

namespace h4d::cli {
namespace {

namespace fsys = std::filesystem;

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fsys::temp_directory_path() /
           ("h4d_cli_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fsys::remove_all(dir_);
    fsys::create_directories(dir_);
  }
  void TearDown() override { fsys::remove_all(dir_); }

  int invoke(std::vector<std::string> argv) {
    std::vector<const char*> raw{"h4d"};
    args_ = std::move(argv);
    for (const std::string& a : args_) raw.push_back(a.c_str());
    out_.str("");
    err_.str("");
    return run(static_cast<int>(raw.size()), raw.data(), out_, err_);
  }

  std::string stdout_text() const { return out_.str(); }
  std::string stderr_text() const { return err_.str(); }

  /// A small phantom dataset under the test directory; returns its path.
  std::string small_dataset() {
    const std::string ds = (dir_ / "ds").string();
    EXPECT_EQ(invoke({"phantom", "--out", ds, "--dims", "12,12,4,3", "--nodes", "2"}), 0);
    return ds;
  }

  /// The last command failed with exit code 1 naming `message`.
  void expect_rejected(int code, const std::string& message) {
    EXPECT_EQ(code, 1) << stdout_text();
    EXPECT_NE(stderr_text().find(message), std::string::npos) << stderr_text();
  }

  /// Analyze `ds` with a fast configuration plus `extra` options; returns the
  /// exit code.
  int analyze_small(const std::string& ds, const std::vector<std::string>& extra) {
    std::vector<std::string> argv{"analyze", ds, "--roi", "3,3,3,3", "--chunk", "6,12,4,3"};
    argv.insert(argv.end(), extra.begin(), extra.end());
    return invoke(std::move(argv));
  }

  static std::string file_text(const fsys::path& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }

  /// HCC's bytes_out (over all its copies) in a --metrics JSON file.
  static double hcc_bytes_out(const fsys::path& metrics) {
    const testing::json::Value doc = testing::json::parse(file_text(metrics));
    for (const auto& f : doc.at("filters").array) {
      if (f.at("filter").str() == "HCC") return f.at("meter").at("bytes_out").num();
    }
    ADD_FAILURE() << "no HCC filter in " << metrics;
    return 0.0;
  }

  /// Every file under `a` exists under `b` with the same bytes, and vice versa.
  static void expect_same_tree(const fsys::path& a, const fsys::path& b) {
    std::size_t files = 0;
    for (const auto& e : fsys::directory_iterator(a)) {
      ASSERT_TRUE(fsys::exists(b / e.path().filename())) << e.path().filename();
      EXPECT_EQ(file_text(e.path()), file_text(b / e.path().filename()))
          << e.path().filename();
      ++files;
    }
    EXPECT_GT(files, 0u);
    EXPECT_EQ(files, static_cast<std::size_t>(std::distance(fsys::directory_iterator(b),
                                                            fsys::directory_iterator())));
  }

  fsys::path dir_;
  std::vector<std::string> args_;
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(CliTest, NoArgsPrintsUsage) {
  EXPECT_EQ(invoke({}), 2);
  EXPECT_NE(stderr_text().find("usage:"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandFails) {
  EXPECT_EQ(invoke({"frobnicate"}), 2);
  EXPECT_NE(stderr_text().find("unknown command"), std::string::npos);
}

TEST_F(CliTest, PhantomThenInfo) {
  const std::string ds = (dir_ / "ds").string();
  EXPECT_EQ(invoke({"phantom", "--out", ds, "--dims", "16,16,4,3", "--nodes", "2",
                    "--tumors", "1"}),
            0);
  EXPECT_NE(stdout_text().find("wrote phantom dataset (16,16,4,3)"), std::string::npos);

  EXPECT_EQ(invoke({"info", ds}), 0);
  EXPECT_NE(stdout_text().find("dims           (16,16,4,3)"), std::string::npos);
  EXPECT_NE(stdout_text().find("storage nodes  2"), std::string::npos);
}

TEST_F(CliTest, PhantomRequiresOut) {
  EXPECT_EQ(invoke({"phantom"}), 1);
  EXPECT_NE(stderr_text().find("--out"), std::string::npos);
}

TEST_F(CliTest, ImportMhd) {
  io::PhantomConfig pcfg;
  pcfg.dims = {10, 8, 3, 2};
  io::write_mhd(dir_ / "study.mhd", io::generate_phantom(pcfg).volume);
  const std::string ds = (dir_ / "imported").string();
  EXPECT_EQ(invoke({"import", (dir_ / "study.mhd").string(), "--out", ds, "--nodes", "2"}),
            0);
  EXPECT_EQ(invoke({"info", ds}), 0);
  EXPECT_NE(stdout_text().find("(10,8,3,2)"), std::string::npos);
}

TEST_F(CliTest, AnalyzeWritesMaps) {
  const std::string ds = (dir_ / "ds").string();
  ASSERT_EQ(invoke({"phantom", "--out", ds, "--dims", "16,16,6,4", "--nodes", "2"}), 0);
  const std::string maps = (dir_ / "maps").string();
  EXPECT_EQ(invoke({"analyze", ds, "--out", maps, "--roi", "5,5,3,3", "--workers", "2",
                    "--dirs", "axis", "--chunk", "12,12,6,4"}),
            0);
  EXPECT_NE(stdout_text().find("4 feature maps"), std::string::npos);
  std::size_t pgms = 0;
  for (const auto& e : fsys::directory_iterator(maps)) {
    if (e.path().extension() == ".pgm") ++pgms;
  }
  EXPECT_GT(pgms, 0u);
}

TEST_F(CliTest, AnalyzeRefusesToResumeIntoCollectedMaps) {
  // analyze --out assembles maps in memory from one run's samples, so it
  // cannot resume: --resume is gone from the CLI (resume stays a library
  // feature of the unstitched output), and asking for it fails before
  // touching the output directory.
  const std::string ds = small_dataset();
  const std::string ck = (dir_ / "ck").string();
  const fsys::path maps = dir_ / "maps";
  ASSERT_EQ(analyze_small(ds, {"--checkpoint", ck, "--out", maps.string()}), 0);
  const fsys::path before = dir_ / "before";
  fsys::copy(maps, before);

  expect_rejected(
      analyze_small(ds, {"--checkpoint", ck, "--resume", "on", "--out", maps.string()}),
      "--resume was removed");
  expect_same_tree(before, maps);
}

TEST_F(CliTest, InfoAndAnalyzeRejectDimsTheSliceFilesDoNotBearOut) {
  // A dataset.meta whose dims name 128 GB slices used to pass info and kill
  // analyze with std::bad_alloc; both now exit 1 naming the mismatch.
  const std::string ds = small_dataset();
  {
    std::ofstream meta(fsys::path(ds) / "dataset.meta", std::ios::trunc);
    meta << "version 2\ndims 4000000000 16 4 3\ndtype u16\nrange 0 4000\n"
         << "storage_nodes 2\nreplicas 1\n";
  }
  const std::string message = "128000000000-byte slices, but none of the";
  expect_rejected(invoke({"info", ds}), message);
  expect_rejected(analyze_small(ds, {}), message);
}

TEST_F(CliTest, InfoAndAnalyzeRejectBadRangesAndNodeCounts) {
  // An inverted or out-of-dtype intensity range used to pass info and let
  // analyze quantize every voxel to one level; a huge storage_nodes made
  // info walk that many node directories. Each now exits 1 naming the field.
  const std::string ds = small_dataset();
  const auto write_meta = [&](const std::string& range, const std::string& nodes) {
    std::ofstream meta(fsys::path(ds) / "dataset.meta", std::ios::trunc);
    meta << "version 2\ndims 12 12 4 3\ndtype u16\nrange " << range
         << "\nstorage_nodes " << nodes << "\nreplicas 1\n";
  };
  for (const char* range : {"5 1", "542 19342147483648", "-1 100"}) {
    write_meta(range, "2");
    expect_rejected(invoke({"info", ds}), "is not 0 <= min <= max <= 65535 for u16");
    expect_rejected(analyze_small(ds, {}), "is not 0 <= min <= max <= 65535 for u16");
  }
  write_meta("0 4000", "100000000");
  expect_rejected(invoke({"info", ds}), "must each be at most 4096");
  write_meta("0 4000", "2147483648");
  expect_rejected(invoke({"info", ds}), "unreadable storage_nodes value");
  // A constant volume's range (min == max) stays valid.
  write_meta("7 7", "2");
  EXPECT_EQ(invoke({"info", ds}), 0) << stderr_text();
}

TEST_F(CliTest, SimulateReportsVirtualTime) {
  const std::string ds = (dir_ / "ds").string();
  ASSERT_EQ(invoke({"phantom", "--out", ds, "--dims", "16,16,6,4", "--nodes", "2"}), 0);
  EXPECT_EQ(invoke({"simulate", ds, "--roi", "5,5,3,3", "--workers", "4", "--dirs", "axis",
                    "--variant", "hmp", "--chunk", "12,12,6,4"}),
            0);
  EXPECT_NE(stdout_text().find("virtual execution time"), std::string::npos);
  EXPECT_NE(stdout_text().find("HMP"), std::string::npos);
}

TEST_F(CliTest, AnalyzeRejectsRemovedFlags) {
  const std::string ds = (dir_ / "ds").string();
  ASSERT_EQ(invoke({"phantom", "--out", ds, "--dims", "16,16,6,4", "--nodes", "2"}), 0);
  const std::string metrics = (dir_ / "metrics.json").string();
  EXPECT_EQ(invoke({"analyze", ds, "--roi", "5,5,3,3", "--workers", "2", "--dirs", "axis",
                    "--chunk", "12,12,6,4", "--metrics", metrics}),
            0);
  std::ifstream in(metrics);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"queue_max_depth\""), std::string::npos);

  for (const char* flag : {"--queue", "--sliding", "--cache-policy", "--tile-shape"}) {
    EXPECT_EQ(invoke({"analyze", ds, "--roi", "5,5,3,3", flag, "on"}), 1) << flag;
    EXPECT_NE(stderr_text().find(std::string(flag) + " was removed"), std::string::npos)
        << flag;
  }
}

TEST_F(CliTest, AnalyzeSweepFlagSelectsMode) {
  const std::string ds = (dir_ / "ds").string();
  ASSERT_EQ(invoke({"phantom", "--out", ds, "--dims", "14,14,6,4", "--nodes", "2"}), 0);
  // Strict and fast both run end to end. The sweep is the one feature pass
  // of every variant and representation: the default split run with full
  // matrices and an HMP run with sparse ones.
  for (const char* mode : {"strict", "fast"}) {
    EXPECT_EQ(invoke({"analyze", ds, "--roi", "5,5,3,3", "--dirs", "axis", "--chunk",
                      "12,12,6,4", "--sweep", mode}),
              0)
        << mode;
    EXPECT_EQ(invoke({"analyze", ds, "--roi", "5,5,3,3", "--variant", "hmp", "--repr",
                      "sparse", "--dirs", "axis", "--chunk", "12,12,6,4", "--sweep", mode}),
              0)
        << mode;
  }
  EXPECT_EQ(invoke({"analyze", ds, "--roi", "5,5,3,3", "--sweep", "bogus"}), 1);
  EXPECT_NE(stderr_text().find("--sweep"), std::string::npos);
}

TEST_F(CliTest, BadOptionValueReportsError) {
  EXPECT_EQ(invoke({"phantom", "--out", (dir_ / "x").string(), "--dims", "16,16"}), 1);
  EXPECT_NE(stderr_text().find("comma-separated"), std::string::npos);
  EXPECT_EQ(invoke({"phantom", "--out", (dir_ / "x").string(), "--nodes", "two"}), 1);
}

TEST_F(CliTest, InfoOnMissingDatasetFails) {
  EXPECT_EQ(invoke({"info", (dir_ / "nope").string()}), 1);
}

TEST_F(CliTest, SparseSplitAnalyzeWorks) {
  const std::string ds = (dir_ / "ds").string();
  ASSERT_EQ(invoke({"phantom", "--out", ds, "--dims", "14,14,6,4", "--nodes", "2"}), 0);
  EXPECT_EQ(invoke({"analyze", ds, "--roi", "5,5,3,3", "--repr", "sparse", "--variant",
                    "split", "--workers", "3", "--dirs", "axis", "--chunk", "12,12,6,4"}),
            0);
}

TEST_F(CliTest, PhantomWithReplicasReportsAndPersistsFactor) {
  const std::string ds = (dir_ / "ds").string();
  EXPECT_EQ(invoke({"phantom", "--out", ds, "--dims", "12,12,4,2", "--nodes", "3",
                    "--replicas", "2"}),
            0);
  EXPECT_NE(stdout_text().find("replication factor 2"), std::string::npos);
  EXPECT_EQ(invoke({"info", ds}), 0);
  EXPECT_NE(stdout_text().find("replicas       2"), std::string::npos);
}

TEST_F(CliTest, ScrubReportsCleanAndDamagedDatasets) {
  const std::string ds = (dir_ / "ds").string();
  ASSERT_EQ(invoke({"phantom", "--out", ds, "--dims", "12,12,4,2", "--nodes", "3",
                    "--replicas", "2"}),
            0);
  EXPECT_EQ(invoke({"scrub", ds}), 0);
  EXPECT_NE(stdout_text().find("0 defects"), std::string::npos);

  fsys::remove(fsys::path(ds) / io::node_dir_name(0) / io::slice_filename(0, 0));
  const std::string json = (dir_ / "inventory.json").string();
  EXPECT_EQ(invoke({"scrub", ds, "--json", json}), 1);
  EXPECT_NE(stdout_text().find("missing_copy"), std::string::npos);
  std::ifstream f(json);
  std::string inv((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  EXPECT_NE(inv.find("\"schema\": \"h4d-scrub-v1\""), std::string::npos);
  EXPECT_NE(inv.find("missing_copy"), std::string::npos);
}

TEST_F(CliTest, RepairRestoresALostNodeDirectory) {
  const std::string ds = (dir_ / "ds").string();
  ASSERT_EQ(invoke({"phantom", "--out", ds, "--dims", "12,12,4,2", "--nodes", "3",
                    "--replicas", "2"}),
            0);
  fsys::remove_all(fsys::path(ds) / io::node_dir_name(1));
  ASSERT_EQ(invoke({"scrub", ds}), 1);
  EXPECT_EQ(invoke({"repair", ds}), 0);
  EXPECT_EQ(invoke({"scrub", ds}), 0);
}

TEST_F(CliTest, AnalyzeToleratesDeadNodesWhenReplicated) {
  const std::string ds = (dir_ / "ds").string();
  ASSERT_EQ(invoke({"phantom", "--out", ds, "--dims", "16,16,6,4", "--nodes", "3",
                    "--replicas", "2"}),
            0);
  const std::string maps = (dir_ / "maps").string();
  EXPECT_EQ(invoke({"analyze", ds, "--out", maps, "--roi", "5,5,3,3", "--workers", "2",
                    "--dirs", "axis", "--chunk", "12,12,6,4", "--dead-nodes", "1"}),
            0);
  EXPECT_NE(stdout_text().find("4 feature maps"), std::string::npos);
  EXPECT_NE(stdout_text().find("replica failovers"), std::string::npos);
}

TEST_F(CliTest, AnalyzeFailsWhenDeadNodesUncovered) {
  const std::string ds = (dir_ / "ds").string();
  ASSERT_EQ(invoke({"phantom", "--out", ds, "--dims", "16,16,4,2", "--nodes", "2"}), 0);
  EXPECT_EQ(invoke({"analyze", ds, "--roi", "5,5,3,1", "--dirs", "axis", "--dead-nodes",
                    "0"}),
            1);
  EXPECT_NE(stderr_text().find("no surviving replica"), std::string::npos);
}

TEST_F(CliTest, DefaultRunShipsTheSparseStream) {
  // The default split run sends the paper's sparse matrices (Sec. 4.4.1):
  // HCC's wire bytes equal an explicit --repr sparse run's and undercut
  // --repr full, which must still run full and give the same maps.
  const std::string ds = small_dataset();
  const std::map<std::string, std::vector<std::string>> runs = {
      {"default", {}}, {"sparse", {"--repr", "sparse"}}, {"full", {"--repr", "full"}}};
  std::map<std::string, double> bytes;
  for (auto [name, opts] : runs) {
    const fsys::path metrics = dir_ / (name + ".json");
    opts.insert(opts.end(), {"--out", (dir_ / ("maps_" + name)).string(), "--metrics",
                             metrics.string()});
    ASSERT_EQ(analyze_small(ds, opts), 0) << stderr_text();
    bytes[name] = hcc_bytes_out(metrics);
  }
  EXPECT_GT(bytes["default"], 0.0);
  EXPECT_EQ(bytes["default"], bytes["sparse"]);
  EXPECT_LT(bytes["default"], bytes["full"]);
  expect_same_tree(dir_ / "maps_default", dir_ / "maps_full");
  expect_same_tree(dir_ / "maps_default", dir_ / "maps_sparse");
}

// Every two-valued option rejects a value outside its set instead of quietly
// picking one of the two.
TEST_F(CliTest, ReprRejectsUnknownValue) {
  const std::string ds = small_dataset();
  expect_rejected(analyze_small(ds, {"--repr", "bogus"}),
                  "--repr must be one of full|sparse, got 'bogus'");
}

TEST_F(CliTest, DirsRejectsUnknownValue) {
  const std::string ds = small_dataset();
  expect_rejected(analyze_small(ds, {"--dirs", "nonsense"}),
                  "--dirs must be one of all|axis, got 'nonsense'");
}

TEST_F(CliTest, VariantRejectsUnknownValue) {
  const std::string ds = small_dataset();
  expect_rejected(analyze_small(ds, {"--variant", "hpm"}),
                  "--variant must be one of split|hmp, got 'hpm'");
}

TEST_F(CliTest, PlanRejectsUnknownValue) {
  // Split copies always come from the planner: the option itself is gone.
  const std::string ds = small_dataset();
  for (const char* value : {"auto", "fixed", "automatic"}) {
    expect_rejected(analyze_small(ds, {"--plan", value}), "--plan was removed");
  }
}

TEST_F(CliTest, SimulatePrintsTheCopiesItRuns) {
  // --workers defaults to 4 (split 3 + 1); one worker runs one copy of each.
  const std::string ds = small_dataset();
  const std::vector<std::pair<std::vector<std::string>, std::string>> runs = {
      {{}, "split HCC+HPC (3 + 1) with 4 texture nodes"},
      {{"--workers", "1", "--variant", "split"}, "split HCC+HPC (1 + 1) with 2 texture nodes"}};
  for (const auto& [extra, expected] : runs) {
    std::vector<std::string> argv{"simulate", ds, "--roi", "3,3,3,3", "--chunk", "6,12,4,3"};
    argv.insert(argv.end(), extra.begin(), extra.end());
    ASSERT_EQ(invoke(argv), 0) << stderr_text();
    EXPECT_NE(stdout_text().find(expected), std::string::npos) << stdout_text();
  }
}

TEST_F(CliTest, SimJobLineRunsWithoutSimMode) {
  // A sim=on line gets the simulated layout and cluster of its own.
  const std::string ds = small_dataset();
  const std::string jobs = (dir_ / "jobs.txt").string();
  std::ofstream(jobs) << "tenant=a sim=on\ntenant=b\n";
  ASSERT_EQ(invoke({"jobs", ds, "--file", jobs, "--roi", "3,3,3,3", "--chunk", "6,12,4,3"}), 0)
      << stdout_text() << stderr_text();
  EXPECT_NE(stdout_text().find("2 completed"), std::string::npos) << stdout_text();
}

TEST_F(CliTest, ResumeRejectsUnknownValue) {
  // The flag itself is unknown now, whatever its value.
  const std::string ds = small_dataset();
  for (const char* value : {"yes", "on", "off"}) {
    expect_rejected(analyze_small(ds, {"--resume", value}), "--resume was removed");
  }
}

TEST_F(CliTest, ChecksumsRejectsUnknownValue) {
  // "yes" used to switch CRC verification off.
  const std::string ds = small_dataset();
  expect_rejected(analyze_small(ds, {"--checksums", "yes"}),
                  "--checksums must be one of on|off, got 'yes'");
}

TEST_F(CliTest, AddChecksumsRejectsUnknownValue) {
  const std::string ds = small_dataset();
  expect_rejected(invoke({"repair", ds, "--add-checksums", "yes"}),
                  "--add-checksums must be one of off|on, got 'yes'");
}

TEST_F(CliTest, ModeRejectsUnknownValue) {
  const std::string ds = small_dataset();
  const std::string jobs = (dir_ / "jobs.txt").string();
  std::ofstream(jobs) << "tenant=a\n";
  const std::string message = "--mode must be one of threaded|sim, got 'simulated'";
  expect_rejected(
      invoke({"serve", ds, "--roi", "3,3,3,3", "--jobs", "1", "--mode", "simulated"}),
      message);
  expect_rejected(
      invoke({"jobs", ds, "--file", jobs, "--roi", "3,3,3,3", "--mode", "simulated"}),
      message);
}

TEST_F(CliTest, JobLineFeaturesRejectsUnknownValue) {
  const std::string ds = small_dataset();
  const std::string jobs = (dir_ / "jobs.txt").string();
  std::ofstream(jobs) << "tenant=a features=everything\n";
  expect_rejected(invoke({"jobs", ds, "--file", jobs, "--roi", "3,3,3,3"}),
                  "jobs: features must be one of paper|all, got 'everything'");
}

TEST_F(CliTest, JobLineSimRejectsUnknownValue) {
  const std::string ds = small_dataset();
  const std::string jobs = (dir_ / "jobs.txt").string();
  std::ofstream(jobs) << "tenant=a sim=yes\n";
  expect_rejected(invoke({"jobs", ds, "--file", jobs, "--roi", "3,3,3,3"}),
                  "jobs: sim must be one of off|on, got 'yes'");
}

TEST_F(CliTest, JobLinesAcceptOnlyWholeTokens) {
  const std::string ds = small_dataset();
  const std::string jobs = (dir_ / "jobs.txt").string();
  std::ofstream(jobs) << "tenant=a deadline_ms=60000 est_ms=2.5 retries=1 levels=8 "
                         "roi=3,3,3,3\n";
  ASSERT_EQ(invoke({"jobs", ds, "--file", jobs, "--roi", "3,3,3,3"}), 0) << stderr_text();
  EXPECT_NE(stdout_text().find("completed"), std::string::npos) << stdout_text();

  const std::vector<std::pair<std::string, std::string>> cases = {
      {"levels=8x", "bad integer for jobs: levels: 8x"},
      {"roi=3,3,3,3x", "bad integer for jobs: roi: 3x"},
      {"roi=3,3,3,3,9", "jobs: roi needs 4 comma-separated values, got '3,3,3,3,9'"},
      {"deadline_ms=nan", "jobs: deadline_ms wants a finite non-negative ms value, got 'nan'"},
      {"deadline_ms=-5", "jobs: deadline_ms wants a finite non-negative ms value, got '-5'"},
      {"est_ms=-1", "jobs: est_ms wants a finite non-negative ms value, got '-1'"},
      {"est_ms=inf", "jobs: est_ms wants a finite non-negative ms value, got 'inf'"},
      {"retries=-3", "jobs: retries must be >= 0, got '-3'"},
      {"retries=2x", "bad integer for jobs: retries: 2x"},
  };
  for (const auto& [value, message] : cases) {
    std::ofstream(jobs, std::ios::trunc) << "tenant=a " << value << "\n";
    expect_rejected(invoke({"jobs", ds, "--file", jobs, "--roi", "3,3,3,3"}), message);
  }
}

TEST_F(CliTest, RoiOptionAcceptsOnlyFourWholeIntegers) {
  const std::string ds = small_dataset();
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"3,3,3,3x", "bad integer for --roi: 3x"},
      {"3,3,3,3,9", "--roi needs 4 comma-separated values, got '3,3,3,3,9'"},
      {"3,,3,3", "bad integer for --roi: "},
      {"3,3,3", "--roi needs 4 comma-separated values"},
  };
  for (const auto& [roi, message] : cases) {
    expect_rejected(invoke({"analyze", ds, "--roi", roi, "--chunk", "6,12,4,3"}), message);
  }
}

}  // namespace
}  // namespace h4d::cli
