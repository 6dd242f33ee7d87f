// Flag handling of the shared bench front-end: unknown flags must be
// rejected with exit code 2 and a pointer at --help, --help must succeed,
// and the numeric --mc-* / --stats-epoch flags and their env knobs must be
// whole numbers.
// Death tests: init() terminates the process on these paths.
#include <gtest/gtest.h>

#include "bench_common.hpp"

namespace eccsim::bench {
namespace {

int run_init(std::vector<std::string> args) {
  args.insert(args.begin(), "bench_flags_test");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (auto& a : args) argv.push_back(a.data());
  init(static_cast<int>(argv.size()), argv.data());
  return 0;
}

using BenchFlagsDeathTest = ::testing::Test;

TEST(BenchFlagsDeathTest, UnknownFlagExitsWithUsageError) {
  EXPECT_EXIT(run_init({"--bogus"}), ::testing::ExitedWithCode(2),
              "unknown flag '--bogus'.*--help");
}

TEST(BenchFlagsDeathTest, UnknownFlagAfterValidFlagStillRejected) {
  EXPECT_EXIT(run_init({"--smoke", "--no-such-thing"}),
              ::testing::ExitedWithCode(2), "unknown flag");
}

TEST(BenchFlagsDeathTest, HelpExitsCleanly) {
  EXPECT_EXIT(run_init({"--help"}), ::testing::ExitedWithCode(0), "");
}

TEST(BenchFlagsDeathTest, MissingFlagValueRejected) {
  EXPECT_EXIT(run_init({"--mc-systems"}), ::testing::ExitedWithCode(2),
              "requires a value");
}

TEST(BenchFlagsDeathTest, UnknownDramGenerationRejected) {
  EXPECT_EXIT(run_init({"--dram", "ddr6"}), ::testing::ExitedWithCode(2),
              "--dram must be ddr3, ddr4, or ddr5, got 'ddr6'");
}

TEST(BenchFlagsDeathTest, DramFlagRequiresValue) {
  EXPECT_EXIT(run_init({"--dram"}), ::testing::ExitedWithCode(2),
              "requires a value");
}

TEST(BenchFlagsDeathTest, DramGenerationsAccepted) {
  // All three canonical names parse; init() returns normally and the env
  // var round-trips through dram_generation().
  EXPECT_EXIT(
      {
        run_init({"--dram=ddr5"});
        std::exit(dram_generation() == dram::Generation::kDdr5 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
  EXPECT_EXIT(
      {
        run_init({"--dram", "ddr4"});
        std::exit(dram_generation() == dram::Generation::kDdr4 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
  EXPECT_EXIT(
      {
        run_init({"--dram", "ddr3"});
        std::exit(dram_generation() == dram::Generation::kDdr3 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(BenchFlagsDeathTest, BadEnvDramGenerationRejected) {
  // ECCSIM_DRAM typos must fail loudly, not fall back to DDR3.
  EXPECT_EXIT(
      {
        setenv("ECCSIM_DRAM", "lpddr4", 1);
        (void)dram_generation();
      },
      ::testing::ExitedWithCode(2), "unknown DRAM generation 'lpddr4'");
}

TEST(BenchFlagsDeathTest, StatusFlagRequiresValue) {
  EXPECT_EXIT(run_init({"--status"}), ::testing::ExitedWithCode(2),
              "requires a value");
}

TEST(BenchFlagsDeathTest, TelemetryFlagsAccepted) {
  // --status FILE and --progress parse and wire up the heartbeat env;
  // init() returns normally.  Run in a forked child so the env mutation
  // and manifest boot don't leak into other tests.
  EXPECT_EXIT(
      {
        run_init({"--status", "/tmp/eccsim_flags_status.json", "--progress"});
        const char* status = getenv("ECCSIM_STATUS");
        const char* progress = getenv("ECCSIM_PROGRESS");
        std::exit(status != nullptr &&
                          std::string(status) ==
                              "/tmp/eccsim_flags_status.json" &&
                          progress != nullptr && std::string(progress) == "1"
                      ? 0
                      : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(BenchFlagsDeathTest, RecordingFlagsAreUnknown) {
  // Recording and workload listing belong to tracetool.
  for (const char* flag :
       {"--trace-out", "--trace-point", "--list-workloads"}) {
    EXPECT_EXIT(run_init({flag, "x"}), ::testing::ExitedWithCode(2),
                "unknown flag");
  }
}

TEST(BenchFlagsDeathTest, HalfParsedMcFlagsRejected) {
  // A lenient strtoul reads `4x` as 4 and `abc` as 0.  init() parses the
  // MC knobs before it boots the run manifest, so these exit 2 at startup.
  EXPECT_EXIT(run_init({"--mc-chunk", "4x"}), ::testing::ExitedWithCode(2),
              "ECCSIM_MC_CHUNK/--mc-chunk expects an integer.*got '4x'");
  EXPECT_EXIT(run_init({"--mc-chunk=abc"}), ::testing::ExitedWithCode(2),
              "got 'abc'");
  EXPECT_EXIT(run_init({"--mc-systems", "12k"}), ::testing::ExitedWithCode(2),
              "ECCSIM_MC_SYSTEMS/--mc-systems expects an integer.*got '12k'");
  EXPECT_EXIT(run_init({"--mc-target-rel-ci", "0.0x5"}),
              ::testing::ExitedWithCode(2),
              "ECCSIM_MC_TARGET_REL_CI/--mc-target-rel-ci expects a number.*"
              "got '0.0x5'");
}

TEST(BenchFlagsDeathTest, HalfParsedStatsEpochRejected) {
  // --stats-epoch sets STATS_EPOCH, which init() reads (strictly) before
  // it boots the run manifest.
  EXPECT_EXIT(run_init({"--stats-epoch=5x"}), ::testing::ExitedWithCode(2),
              "STATS_EPOCH expects an integer.*got '5x'");
}

TEST(BenchFlagsDeathTest, HalfParsedMcEnvRejected) {
  EXPECT_EXIT(
      {
        setenv("ECCSIM_MC_CHUNK", "-1", 1);
        run_init({});
      },
      ::testing::ExitedWithCode(2), "got '-1'");
  // The readers validate too, for callers that never ran init().
  EXPECT_EXIT(
      {
        setenv("ECCSIM_MC_SYSTEMS", "", 1);
        (void)mc_systems(200);
      },
      ::testing::ExitedWithCode(2), "got ''");
  EXPECT_EXIT(
      {
        setenv("ECCSIM_MC_TARGET_REL_CI", "nan", 1);
        (void)mc_options();
      },
      ::testing::ExitedWithCode(2), "got 'nan'");
}

TEST(BenchFlagsDeathTest, WholeMcValuesAccepted) {
  // Zero keeps its meaning ("default") for --mc-systems and --mc-chunk.
  EXPECT_EXIT(
      {
        unsetenv("ECCSIM_SMOKE");  // mc_systems() scales the default
        unsetenv("ECCSIM_QUICK");
        run_init({"--mc-chunk", "32", "--mc-target-rel-ci", "0.05",
                  "--mc-systems", "0"});
        const auto opts = mc_options();
        std::exit(opts.chunk_size == 32 && opts.target_rel_ci == 0.05 &&
                          mc_systems(1000) == 1000
                      ? 0
                      : 1);
      },
      ::testing::ExitedWithCode(0), "");
  EXPECT_EXIT(
      {
        run_init({"--mc-chunk=0", "--mc-systems=500"});
        std::exit(mc_options().chunk_size == faults::McOptions{}.chunk_size &&
                          mc_systems(1000) == 500
                      ? 0
                      : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace eccsim::bench
