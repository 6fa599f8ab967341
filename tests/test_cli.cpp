#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "io/mhd.hpp"
#include "io/phantom.hpp"

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

  int invoke(std::initializer_list<std::string> argv) {
    std::vector<const char*> raw{"h4d"};
    args_.assign(argv);
    for (const std::string& a : args_) raw.push_back(a.c_str());
    out_.str("");
    err_.str("");
    return run(static_cast<int>(raw.size()), raw.data(), out_, err_);
  }

  std::string stdout_text() const { return out_.str(); }
  std::string stderr_text() const { return err_.str(); }

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

  for (const char* flag : {"--queue", "--sliding"}) {
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

}  // namespace
}  // namespace h4d::cli
