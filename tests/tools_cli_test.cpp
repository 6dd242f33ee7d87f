// Strict flag parsing in the tracetool and benchtool CLIs and in the
// numeric environment knobs every bench reads: a number that is only half
// a number (`10k`, `0.15x`, `abc`) must exit 2 with a usage message
// instead of running with whatever prefix strtoul could read.  Also pins
// the run record of a `--stats` bench run: the exact files it writes and
// the kernel provenance and scope profile its manifest carries.  Spawns
// the real binaries.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "runner/json.hpp"

namespace {

struct Outcome {
  int exit_code = -1;
  std::string output;
};

Outcome run(const std::string& cmd) {
  Outcome r;
  FILE* pipe = ::popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[256];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) r.output += buf;
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

void expect_usage_error(const std::string& cmd, const char* message) {
  const Outcome r = run(cmd);
  EXPECT_EQ(r.exit_code, 2) << cmd << ": " << r.output;
  EXPECT_NE(r.output.find(message), std::string::npos) << cmd << ": "
                                                       << r.output;
}

TEST(TracetoolCli, HalfParsedNumbersExitWithUsageError) {
  const std::string out = testing::TempDir() + "/tools_cli_mcf.ecctrace";
  std::filesystem::remove(out);
  const std::string record = std::string(ECCSIM_TRACETOOL_BINARY) +
                             " record --workload mcf --out " + out + " ";
  for (const char* bad :
       {"--ops-per-core 10k", "--ops-per-core abc", "--ops-per-core -1",
        "--cores 2.5", "--cores ''", "--seed 7x", "--seed=0x10"}) {
    expect_usage_error(record + bad, "expects an integer");
  }
  // Rejected before anything is recorded.
  EXPECT_FALSE(std::filesystem::exists(out));

  const std::string head = std::string(ECCSIM_TRACETOOL_BINARY) +
                           " head " + ECCSIM_GOLDEN_TRACE + " -n ";
  expect_usage_error(head + "2x", "-n expects an integer");
  const Outcome ok = run(head + "2");
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
}

TEST(BenchtoolCli, HalfParsedNumbersExitWithUsageError) {
  const std::string compare = std::string(ECCSIM_BENCHTOOL_BINARY) +
                              " compare --history " + testing::TempDir() +
                              "/tools_cli_no_history ";
  expect_usage_error(compare + "--threshold 0.15x",
                     "--threshold expects a number");
  expect_usage_error(compare + "--threshold nan",
                     "--threshold expects a number");
  for (const char* bad : {"--window abc", "--window 10k", "--min-samples -2",
                          "--min-samples=2.0"}) {
    expect_usage_error(compare + bad, "expects an integer");
  }
  expect_usage_error(std::string(ECCSIM_BENCHTOOL_BINARY) +
                         " watch status.json --once --interval-ms 1e3",
                     "--interval-ms expects an integer");
}

TEST(EnvKnobs, HalfParsedNumbersExitWithUsageError) {
  // Run in an empty directory: a rejected knob must stop the bench before
  // it writes a manifest or any result.
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "tools_cli_env_knobs";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string in_dir = "cd " + dir.string() + " && ";
  const std::string bench = std::string(" ") + ECCSIM_TABLE2_BINARY;
  for (const char* bad : {"abc", "4x", "''"}) {
    expect_usage_error(in_dir + "RUNNER_THREADS=" + bad + bench,
                       "RUNNER_THREADS expects an integer");
  }
  for (const char* bad : {"5x", "abc", "''", "-1"}) {
    expect_usage_error(in_dir + "ECCSIM_STATUS_INTERVAL_MS=" + bad + bench,
                       "ECCSIM_STATUS_INTERVAL_MS expects an integer");
  }
  for (const char* knob :
       {"STATS_EPOCH", "STATS_TRACE_LIMIT", "ECCSIM_MC_CHUNK_DELAY_MS"}) {
    for (const char* bad : {"5x", "abc", "''", "-1"}) {
      expect_usage_error(in_dir + knob + "=" + bad + bench,
                         (std::string(knob) + " expects an integer").c_str());
    }
  }
  EXPECT_TRUE(std::filesystem::is_empty(dir));
}

// One --stats run leaves one record: the table (CSV + JSON), the merged
// stats dump and the manifest -- which carries the GF-kernel provenance
// and the scope profile, so no side file repeats them.  Checked for every
// ablation that builds its SystemSims directly: each must hand them a
// collector, or --stats would dump nothing.
TEST(RunRecord, StatsRunWritesManifestAndNoSideFiles) {
  for (const std::string bench :
       {"ablation_degraded", "ablation_rowpolicy", "ablation_ecc_cache",
        "ablation_powerdown", "ablation_scrub", "ablation_speedbin"}) {
    const std::filesystem::path dir =
        std::filesystem::path(testing::TempDir()) / ("run_record_" + bench);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const Outcome r = run("cd " + dir.string() + " && ECCSIM_SMOKE=1 " +
                          ECCSIM_BENCH_DIR + "/" + bench + " --stats");
    ASSERT_EQ(r.exit_code, 0) << bench << ": " << r.output;

    std::set<std::string> files;
    for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
      if (e.is_regular_file()) {
        files.insert(std::filesystem::relative(e.path(), dir).string());
      }
    }
    const std::set<std::string> expected = {
        "bench_results/smoke/" + bench + ".csv",
        "results/smoke/" + bench + ".json",
        "results/smoke/" + bench + ".manifest.json",
        "results/smoke/" + bench + ".stats.json"};
    EXPECT_EQ(files, expected) << bench;

    std::ifstream in(dir / ("results/smoke/" + bench + ".manifest.json"));
    std::stringstream text;
    text << in.rdbuf();
    const eccsim::runner::Json m = eccsim::runner::Json::parse(text.str());
    EXPECT_EQ(m.at("schema").as_string(), "eccsim.manifest/1") << bench;
    EXPECT_EQ(m.at("status").as_string(), "completed") << bench;
    const eccsim::runner::Json& extra = m.at("extra");
    EXPECT_FALSE(extra.at("kernel").as_string().empty()) << bench;
    EXPECT_NE(extra.at("kernels_available").as_string().find("scalar"),
              std::string::npos)
        << bench;
    ASSERT_TRUE(m.contains("profile")) << bench;
    EXPECT_GT(m.at("profile").at("dram.scheduler").at("calls").as_number(),
              0)
        << bench;
  }
}

}  // namespace
