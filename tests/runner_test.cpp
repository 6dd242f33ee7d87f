// Tests for the parallel experiment runner (src/runner): the thread pool
// executes everything exactly once, fan-out results are bit-identical at
// any thread count (the property every figure binary now depends on), and
// the emitted JSON round-trips with all cells intact.
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "runner/json.hpp"
#include "runner/runner.hpp"
#include "runner/thread_pool.hpp"

namespace eccsim::runner {
namespace {

// --- ThreadPool ------------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, TasksMaySubmitMoreTasks) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&] {
      count.fetch_add(1, std::memory_order_relaxed);
      for (int k = 0; k < 4; ++k) {
        pool.submit(
            [&count] { count.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 8 + 8 * 4);
}

TEST(ThreadPoolTest, WaitIdleIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.wait_idle();  // no work yet: must not hang
  pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
  pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPoolTest, DefaultThreadCountHonorsEnvironment) {
  setenv("RUNNER_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::default_thread_count(), 3u);
  setenv("RUNNER_THREADS", "0", 1);  // 0: fall back to hardware
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
  unsetenv("RUNNER_THREADS");
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
}

// --- run_cells determinism -------------------------------------------------

// A cheap deterministic stand-in for a SystemSim run: hashes a few RNG
// draws from the cell's substream into the metric fields.
std::vector<Cell> synthetic_cells(int n) {
  std::vector<Cell> cells;
  for (int i = 0; i < n; ++i) {
    Cell c;
    c.scheme = "scheme" + std::to_string(i % 4);
    c.workload = "wl" + std::to_string(i / 4);
    const std::uint64_t seed =
        substream_seed(7, static_cast<std::uint64_t>(i / 4));
    c.work = [seed, i] {
      Rng rng(seed);
      sim::RunResult r;
      r.scheme = "scheme" + std::to_string(i % 4);
      r.workload = "wl" + std::to_string(i / 4);
      for (int k = 0; k < 1000; ++k) r.instructions += rng.next_below(100);
      r.ipc = rng.next_double();
      r.epi_pj = rng.next_double() * 1000;
      r.mem.reads = rng.next();
      return r;
    };
    cells.push_back(std::move(c));
  }
  return cells;
}

bool same_result(const sim::RunResult& a, const sim::RunResult& b) {
  return a.scheme == b.scheme && a.workload == b.workload &&
         a.instructions == b.instructions && a.ipc == b.ipc &&
         a.epi_pj == b.epi_pj && a.mem.reads == b.mem.reads;
}

TEST(RunCellsTest, ParallelMatchesSerialBitExactly) {
  const auto cells = synthetic_cells(64);
  RunOptions serial;
  serial.threads = 1;
  RunOptions parallel;
  parallel.threads = 4;
  const Report a = run_cells(cells, serial);
  const Report b = run_cells(cells, parallel);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  EXPECT_EQ(a.threads, 1u);
  EXPECT_EQ(b.threads, 4u);
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_TRUE(same_result(a.cells[i].result, b.cells[i].result))
        << "cell " << i << " diverged between 1 and 4 threads";
  }
}

TEST(RunCellsTest, RealSweepCellsAreThreadCountInvariant) {
  // A miniature of the real bench sweep: 2 schemes x 2 workloads through
  // sim::SystemSim, 1 thread vs 4 threads, exact double equality.
  std::vector<Cell> cells;
  const ecc::SchemeId schemes[] = {ecc::SchemeId::kChipkill36,
                                   ecc::SchemeId::kLotEcc5Parity};
  const char* workloads[] = {"milc", "mcf"};
  for (std::uint64_t wi = 0; wi < 2; ++wi) {
    for (const auto id : schemes) {
      Cell c;
      c.scheme = ecc::to_string(id);
      c.workload = workloads[wi];
      const std::uint64_t seed = substream_seed(1, wi);
      c.work = [id, seed, name = std::string(workloads[wi])] {
        sim::SimOptions opts;
        opts.target_instructions = 20'000;
        opts.seed = seed;
        return sim::run_experiment(id, ecc::SystemScale::kDualEquivalent,
                                   name, opts);
      };
      cells.push_back(std::move(c));
    }
  }
  RunOptions serial;
  serial.threads = 1;
  RunOptions parallel;
  parallel.threads = 4;
  const Report a = run_cells(cells, serial);
  const Report b = run_cells(cells, parallel);
  ASSERT_EQ(a.cells.size(), 4u);
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const auto& ra = a.cells[i].result;
    const auto& rb = b.cells[i].result;
    EXPECT_EQ(ra.instructions, rb.instructions);
    EXPECT_EQ(ra.mem_cycles, rb.mem_cycles);
    EXPECT_EQ(ra.ipc, rb.ipc);  // exact: same arithmetic, same order
    EXPECT_EQ(ra.epi_pj, rb.epi_pj);
    EXPECT_EQ(ra.mapi, rb.mapi);
    EXPECT_EQ(ra.mem.reads, rb.mem.reads);
    EXPECT_EQ(ra.mem.writes, rb.mem.writes);
    EXPECT_EQ(ra.mem.ecc_reads, rb.mem.ecc_reads);
    EXPECT_EQ(ra.mem.ecc_writes, rb.mem.ecc_writes);
  }
}

TEST(RunCellsTest, ProgressReachesTotalAndTimingsArePopulated) {
  const auto cells = synthetic_cells(16);
  RunOptions opts;
  opts.threads = 4;
  std::size_t last_done = 0;
  opts.progress = [&](std::size_t done, std::size_t total, const Cell&) {
    EXPECT_EQ(total, 16u);
    EXPECT_GT(done, last_done);  // serialized, strictly increasing
    last_done = done;
  };
  const Report r = run_cells(cells, opts);
  EXPECT_EQ(last_done, 16u);
  EXPECT_GT(r.wall_seconds, 0.0);
  EXPECT_GT(r.cell_seconds, 0.0);
  EXPECT_GT(r.speedup(), 0.0);
}

TEST(RunnerTest, SubstreamSeedsAreStableAndDistinct) {
  EXPECT_EQ(substream_seed(1, 0), substream_seed(1, 0));
  EXPECT_NE(substream_seed(1, 0), substream_seed(1, 1));
  EXPECT_NE(substream_seed(1, 0), substream_seed(2, 0));
}

// --- Json ------------------------------------------------------------------

TEST(JsonTest, ScalarRoundTrip) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("-12.5e2").as_number(), -1250.0);
  EXPECT_EQ(Json::parse("\"a\\n\\\"b\\\"\"").as_string(), "a\n\"b\"");
}

TEST(JsonTest, DoublesRoundTripExactly) {
  const double values[] = {0.123456789012345678, 1e-300, 3.0,
                           1234567890.5, -0.0625};
  for (const double v : values) {
    EXPECT_EQ(Json::parse(Json(v).dump()).as_number(), v);
  }
}

TEST(JsonTest, StructuredRoundTripPreservesOrderAndValues) {
  Json obj = Json::object();
  obj.set("name", "sweep");
  obj.set("count", 128);
  obj.set("enabled", true);
  Json arr = Json::array();
  for (int i = 0; i < 3; ++i) arr.push_back(i * 1.5);
  obj.set("values", arr);
  const Json back = Json::parse(obj.dump());
  EXPECT_EQ(back.dump(), obj.dump());
  EXPECT_EQ(back.members()[0].first, "name");
  EXPECT_EQ(back.members()[3].first, "values");
  EXPECT_EQ(back.at("values").items()[2].as_number(), 3.0);
}

TEST(JsonTest, NonFiniteNumbersSerializeAsNull) {
  // IEEE non-finite values have no JSON representation; emitting "inf" or
  // "nan" would make every downstream parser choke.  The writer degrades
  // them to null (the MtbfResult "no data" NaN sentinel relies on this).
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump(), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Json(-std::numeric_limits<double>::infinity()).dump(), "null");
  Json obj = Json::object();
  obj.set("mtbf", std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(Json::parse(obj.dump()).at("mtbf").is_null());
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  EXPECT_THROW(Json::parse("{"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(Json::parse("tru"), std::runtime_error);
  EXPECT_THROW(Json::parse("1 2"), std::runtime_error);
  EXPECT_THROW(Json::parse("\"unterminated"), std::runtime_error);
}

TEST(JsonTest, EscapesEveryControlCharacter) {
  // Every byte below 0x20 must be escaped -- a raw control character in
  // the output is invalid JSON (stats paths and workload names flow
  // through here unsanitized).
  for (int c = 0; c < 0x20; ++c) {
    const std::string s(1, static_cast<char>(c));
    const std::string text = Json(s).dump();
    for (char ch : text) {
      EXPECT_GE(static_cast<unsigned char>(ch), 0x20u)
          << "raw control byte " << c << " leaked into: " << text;
    }
    EXPECT_EQ(Json::parse(text).as_string(), s) << "control byte " << c;
  }
}

TEST(JsonTest, RandomStringsRoundTripExactly) {
  // Fuzz dump->parse over random byte strings drawn from the full
  // 7-bit range plus control characters (multi-byte UTF-8 passes through
  // untouched, so bytes < 0x80 are the interesting surface).
  eccsim::Rng rng(0xfadedfacadeULL);
  for (int iter = 0; iter < 500; ++iter) {
    std::string s;
    const std::uint64_t len = rng.next_below(40);
    for (std::uint64_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>(rng.next_below(0x80)));
    }
    const Json back = Json::parse(Json(s).dump());
    EXPECT_EQ(back.as_string(), s) << "iteration " << iter;
  }
}

// --- Report JSON -----------------------------------------------------------

TEST(ReportJsonTest, RoundTripCarriesAllCells) {
  const auto cells = synthetic_cells(32);
  RunOptions opts;
  opts.threads = 4;
  const Report report = run_cells(cells, opts);

  const std::string path = "/tmp/eccsim_runner_test_report.json";
  ASSERT_TRUE(write_json(path, to_json(report)));
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const Json back = Json::parse(text);

  ASSERT_EQ(back.at("cells").size(), cells.size());
  EXPECT_EQ(back.at("threads").as_number(), 4.0);
  EXPECT_GT(back.at("wall_seconds").as_number(), 0.0);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Json& c = back.at("cells").items()[i];
    EXPECT_EQ(c.at("scheme").as_string(), report.cells[i].result.scheme);
    EXPECT_EQ(c.at("workload").as_string(),
              report.cells[i].result.workload);
    EXPECT_EQ(c.at("ipc").as_number(), report.cells[i].result.ipc);
    EXPECT_EQ(c.at("epi_pj").as_number(), report.cells[i].result.epi_pj);
    EXPECT_EQ(c.at("traffic").at("reads").as_number(),
              static_cast<double>(report.cells[i].result.mem.reads));
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace eccsim::runner
