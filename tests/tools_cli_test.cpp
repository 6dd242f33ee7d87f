// Strict flag parsing in the tracetool and benchtool CLIs and in the
// numeric environment knobs every bench reads: a number that is only half
// a number (`10k`, `0.15x`, `abc`) must exit 2 with a usage message
// instead of running with whatever prefix strtoul could read.  Spawns the
// real binaries.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <string>

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
  EXPECT_TRUE(std::filesystem::is_empty(dir));
}

}  // namespace
