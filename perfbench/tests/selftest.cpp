// Self-test of the benchmark's own code: percentile selection and sample
// counts, fail_frac arithmetic, the host-slowdown arithmetic, and the
// output gate catching a perturbed reference row.  Build and run: python3 perfbench/run.py --selftest
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "gate.hpp"
#include "host_ref.hpp"
#include "units.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

const Unit& unit_named(const std::vector<Unit>& units,
                       const std::string& name) {
  const auto it = std::find_if(units.begin(), units.end(),
                               [&](const Unit& u) { return u.name == name; });
  if (it == units.end()) throw std::runtime_error("no unit " + name);
  return *it;
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 10; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT_EQ(percentile(v, 50), 5);
  EXPECT_EQ(percentile(v, 90), 9);
  EXPECT_EQ(percentile(v, 100), 10);
  EXPECT_EQ(percentile(v, 1), 1);
  EXPECT_EQ(percentile({7.5}, 90), 7.5);
  EXPECT_EQ(percentile({}, 50), 0);
}

TEST(Percentile, P90Of128CellsLeavesTwelveBeyond) {
  // The sim workloads report p90 over 128 cells per pass: rank 116, so
  // twelve samples lie beyond it, at least the ten a tail percentile needs.
  std::vector<double> v(128);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  const double p90 = percentile(v, 90);
  EXPECT_EQ(p90, 115);
  EXPECT_EQ(std::count_if(v.begin(), v.end(),
                          [&](double x) { return x > p90; }),
            12);
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0);
}

TEST(Tally, FailFrac) {
  Tally t;
  EXPECT_EQ(t.fail_frac(), 0);
  Outcome ok;
  Outcome bad;
  bad.mismatch = true;
  for (int i = 0; i < 125; ++i) t.add(ok);
  for (int i = 0; i < 3; ++i) t.add(bad);
  EXPECT_EQ(t.attempted, 128u);
  EXPECT_EQ(t.failed, 3u);
  EXPECT_DOUBLE_EQ(t.fail_frac(), 3.0 / 128.0);
  Outcome threw;
  threw.threw = true;
  Outcome incomplete;
  incomplete.incomplete = true;
  EXPECT_TRUE(threw.failed());
  EXPECT_TRUE(incomplete.failed());
  EXPECT_FALSE(ok.failed());
}

TEST(HostRef, SlowdownIsTheMeanCallOverTheReference) {
  EXPECT_EQ(host_slowdown({}), 1.0);
  EXPECT_EQ(host_slowdown({KernelSamples{}}), 1.0);
  // Three calls of 1.5x the reference, one of 2x: mean 1.625x.
  const std::vector<KernelSamples> s = {{3 * 1.5 * kRefKernelS, 3},
                                        {2.0 * kRefKernelS, 1}};
  EXPECT_DOUBLE_EQ(host_slowdown(s), 1.625);
}

TEST(HostRef, OneCallPerPeriodOfUnitTime) {
  EXPECT_EQ(sample_ref_kernel(0).calls, 1u);
  EXPECT_EQ(sample_ref_kernel(1.4 * kRefPeriodS).calls, 1u);
  const KernelSamples k = sample_ref_kernel(3 * kRefPeriodS);
  EXPECT_EQ(k.calls, 3u);
  EXPECT_GT(k.seconds, 0);
}

eccsim::sim::RunResult sample_result() {
  eccsim::sim::RunResult r;
  r.scheme = "lotecc5";
  r.workload = "mcf";
  r.instructions = 1'000'123;
  r.mem_cycles = 84992;
  r.ipc = 5.9;
  r.epi_pj = 2767.26;
  r.mem.reads = 43956;
  r.mem.writes = 23472;
  return r;
}

TEST(CheckCell, ExactRowPasses) {
  const auto r = sample_result();
  const std::string ref = sweep_row(r);
  EXPECT_EQ(split_csv(ref).size(), sweep_fields().size());
  EXPECT_FALSE(check_cell(r, 1'000'000, &ref).failed());
}

TEST(CheckCell, PerturbedFieldIsNamed) {
  const auto r = sample_result();
  auto fields = split_csv(sweep_row(r));
  fields[3] = "84993";  // mem_cycles
  std::string ref;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    ref += (i ? "," : "") + fields[i];
  }
  const Outcome o = check_cell(r, 1'000'000, &ref);
  EXPECT_TRUE(o.mismatch);
  EXPECT_NE(o.detail.find("mem_cycles"), std::string::npos) << o.detail;
  EXPECT_EQ(diff_sweep_row(ref, sweep_row(r)),
            std::vector<std::string>{"mem_cycles"});
}

TEST(CheckCell, IncompleteRunFailsEvenWithMatchingRow) {
  auto r = sample_result();
  r.instructions = 999'999;
  const std::string ref = sweep_row(r);
  const Outcome o = check_cell(r, 1'000'000, &ref);
  EXPECT_TRUE(o.incomplete);
  EXPECT_TRUE(o.failed());
}

TEST(CheckCell, MissingReferenceFails) {
  EXPECT_TRUE(check_cell(sample_result(), 1, nullptr).mismatch);
}

TEST(Digest, OrderAndBoundariesMatter) {
  EXPECT_EQ(digest({"a", "b"}), digest({"a", "b"}));
  EXPECT_NE(digest({"a", "b"}), digest({"b", "a"}));
  EXPECT_NE(digest({"ab", "c"}), digest({"a", "bc"}));
  EXPECT_EQ(digest({}).size(), 16u);
}

/// A scratch checkout root (under the build tree) holding a copy of one
/// reference file with `from` replaced by `to` on line `line`.
class PerturbedRoot : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(PERFBENCH_SCRATCH) /
            ("selftest_" + std::to_string(::getpid()));
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  void copy_perturbed(const std::string& rel, std::size_t line,
                      const std::string& from, const std::string& to) {
    std::ifstream in(std::string(PERFBENCH_ROOT) + "/" + rel);
    ASSERT_TRUE(in) << rel;
    std::string text, l;
    for (std::size_t i = 0; std::getline(in, l); ++i) {
      if (i == line) {
        const auto at = l.find(from);
        ASSERT_NE(at, std::string::npos) << l;
        l.replace(at, from.size(), to);
      }
      text += l + "\n";
    }
    fs::create_directories((root_ / rel).parent_path());
    std::ofstream(root_ / rel) << text;
  }

  fs::path root_;
};

TEST_F(PerturbedRoot, SmokeCellAgainstPerturbedRowIsAFailure) {
  // Row 0 is chipkill36/mcf; change its mem_cycles field (7168).
  copy_perturbed("perfbench/reference/sweep_quad_smoke.csv", 0, ",7168,",
                 ",7169,");
  const auto units = smoke_grid_units(root_.string());
  ASSERT_EQ(units.size(), 128u);
  ASSERT_EQ(units[0].name, "quad/chipkill36/mcf");
  Tally t;
  const UnitResult bad = units[0].run(false, (root_ / "cell").string());
  t.add(bad.outcome);
  EXPECT_TRUE(bad.outcome.mismatch);
  EXPECT_NE(bad.outcome.detail.find("mem_cycles"), std::string::npos);

  const auto good_units = smoke_grid_units(PERFBENCH_ROOT);
  const UnitResult good = good_units[0].run(false, (root_ / "cell").string());
  t.add(good.outcome);
  EXPECT_FALSE(good.outcome.failed()) << good.outcome.detail;
  EXPECT_EQ(good.output, bad.output);
  EXPECT_DOUBLE_EQ(t.fail_frac(), 0.5);
}

TEST_F(PerturbedRoot, ReliabilityTableAgainstPerturbedCsvIsAFailure) {
  copy_perturbed("bench_results/fig02_mtbf_channels.csv", 1, "14468",
                 "14469");
  const auto bad = reliability_units(root_.string(), 1);
  EXPECT_TRUE(unit_named(bad, "fig02").run(false, "").outcome.mismatch);
  const auto good = reliability_units(PERFBENCH_ROOT, 1);
  const UnitResult r = unit_named(good, "fig02").run(false, "");
  EXPECT_FALSE(r.outcome.failed()) << r.outcome.detail;
}

TEST(Reliability, VolumeUnitsAreDeterministicPerSeed) {
  const auto a = reliability_units(PERFBENCH_ROOT, 7);
  const auto b = reliability_units(PERFBENCH_ROOT, 7);
  const auto c = reliability_units(PERFBENCH_ROOT, 8);
  ASSERT_EQ(a.size(), b.size());
  const auto ra = unit_named(a, "mc0").run(false, "");
  EXPECT_EQ(ra.output, unit_named(b, "mc0").run(false, "").output);
  EXPECT_NE(ra.output, unit_named(c, "mc0").run(false, "").output);
}

}  // namespace
}  // namespace perfbench
