// perfbench: the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 [--setup-only]
//
// Untraced (--trace 0): repeats whole passes of the workload's closed batch
// until --seconds is spent (at least one pass), checks every unit's output,
// and prints the end-to-end metrics, normalised by the host slowdown that a
// reference kernel sampled between units measures (host_ref.hpp).  Traced (--trace 1): a traced pass, an
// untraced pass and a second traced pass; the two traced passes' per-layer
// counts must agree exactly.  Prints the per-layer table and the tracing
// overhead.  The last stdout line is a JSON object {correct, attempted,
// failed, metrics}; run.py adds setup_s.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <exception>
#include <string>
#include <vector>

#include "host_ref.hpp"
#include "runner/runner.hpp"
#include "units.hpp"

using namespace perfbench;
using Clock = std::chrono::steady_clock;

namespace {

/// Runner pool width for every workload: fixed, and at most the 4 cores of
/// the reference host, so results are comparable across hosts and commits.
constexpr unsigned kThreads = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
};

/// Where units write their post-LLC captures; each run takes a private
/// subdirectory.
constexpr const char* kScratchRoot = ".bench_build/scratch";

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "smoke_grid|bin2_full|reliability --seed N --seconds S "
               "--trace 0|1 [--setup-only]\n",
               msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      a.workload = v;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) usage("--seed must be an integer");
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) usage("--seconds must be > 0");
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      a.trace = v == "1";
    } else {
      usage(("unknown flag " + arg).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

/// Builds the workload's units, loading their references: the set-up
/// before the first unit.  The workloads with uneven units list their
/// longest first, and run_pass starts them first, so the tail of a pass is
/// short and the same in every run.
std::vector<Unit> set_up(const Args& a) {
  if (a.workload == "smoke_grid") return smoke_grid_units(".");
  if (a.workload == "bin2_full") return bin2_full_units(".");
  if (a.workload == "reliability") return reliability_units(".", a.seed);
  usage(("unknown workload " + a.workload).c_str());
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Pass {
  double wall_s = 0;  ///< the pool's wall time, reference kernel included
  std::vector<UnitResult> results;  ///< by unit index
  std::vector<double> unit_s;       ///< by unit index
  std::vector<KernelSamples> kernel;  ///< by unit index, if sampled

  /// Pass wall time less the reference kernel's share of the pool.
  double work_wall_s() const {
    double k = 0;
    for (const auto& ks : kernel) k += ks.seconds;
    return wall_s - k / kThreads;
  }
};

/// Runs every unit once on the pool.  With `with_kernel`, each worker also
/// samples the reference kernel after each unit (see host_ref.hpp).
Pass run_pass(const std::vector<Unit>& units, bool traced, bool with_kernel,
              const std::string& scratch) {
  Pass p;
  const std::size_t n = units.size();
  p.results.resize(n);
  p.unit_s.assign(n, 0.0);
  if (with_kernel) p.kernel.resize(n);
  // The pool deals cells round-robin to per-worker deques; a worker runs
  // the newest cell of its own deque first and steals the oldest of
  // another's.  Submitting the list in reverse therefore starts the
  // first-listed (longest) units first and leaves the short ones for the
  // tail.
  std::vector<eccsim::runner::Cell> cells;
  cells.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t idx = n - 1 - j;
    eccsim::runner::Cell c;
    c.workload = units[idx].name;
    c.work = [&units, &p, idx, traced, with_kernel, &scratch] {
      const auto t0 = Clock::now();
      p.results[idx] = units[idx].run(
          traced, scratch + "/unit" + std::to_string(idx));
      p.unit_s[idx] = seconds_since(t0);
      if (with_kernel) p.kernel[idx] = sample_ref_kernel(p.unit_s[idx]);
      return eccsim::sim::RunResult{};
    };
    cells.push_back(std::move(c));
  }
  eccsim::runner::RunOptions opts;
  opts.threads = kThreads;
  p.wall_s = eccsim::runner::run_cells(cells, opts).wall_seconds;
  return p;
}

/// Flags units whose output differs from the first pass (same seed, same
/// inputs: any difference is nondeterminism).
void check_repeat(const Pass& first, Pass& later) {
  for (std::size_t i = 0; i < later.results.size(); ++i) {
    if (later.results[i].output != first.results[i].output) {
      later.results[i].outcome.mismatch = true;
      later.results[i].outcome.detail = "output differs from the first pass";
    }
  }
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double monotonic_now() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// Printed just before the first unit starts; run.py measures set-up from
/// its spawn of this process to this stamp (both CLOCK_MONOTONIC).
void announce_ready() {
  std::printf("ready %.9f\n", monotonic_now());
  std::fflush(stdout);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

void print_metrics(const std::vector<Metric>& ms) {
  for (const auto& m : ms) {
    std::printf("  %-30s %16s %s\n", m.name.c_str(), fmt(m.value).c_str(),
                m.unit.c_str());
  }
}

void print_json(bool correct, const Tally& t, const std::vector<Metric>& ms) {
  std::string s = std::string("{\"correct\": ") +
                  (correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(t.attempted) +
                  ", \"failed\": " + std::to_string(t.failed) +
                  ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", ms[i].value);
    s += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

/// Tallies a pass, logs its failures and returns its output digest.
std::string account(const std::vector<Unit>& units, const Pass& p,
                    Tally& tally) {
  std::vector<std::string> outputs;
  for (std::size_t i = 0; i < p.results.size(); ++i) {
    const Outcome& o = p.results[i].outcome;
    tally.add(o);
    if (o.failed()) {
      std::printf("FAIL %s: %s\n", units[i].name.c_str(), o.detail.c_str());
    }
    outputs.push_back(units[i].name + "=" + p.results[i].output);
  }
  return digest(outputs);
}

Layers sum_layers(const Pass& p) {
  Layers l;
  for (const auto& r : p.results) l += r.layers;
  return l;
}

/// Work rates of one pass: simulated instructions, MC systems and fleet
/// nodes per host second of pass wall time.
struct Rates {
  double minstr_per_s = 0, mc_systems_per_s = 0, fleet_nodes_per_s = 0;
};

Rates rates_of(const Pass& p) {
  const Layers l = sum_layers(p);
  const double wall = p.work_wall_s();
  return {static_cast<double>(l.sim_instructions) / 1e6 / wall,
          static_cast<double>(l.mc_systems) / wall,
          static_cast<double>(l.fleet_nodes) / wall};
}

int run_untraced(const Args& a, const std::vector<Unit>& units,
                 const std::string& scratch) {
  std::vector<Pass> passes;
  const auto start = Clock::now();
  announce_ready();
  // Whole passes until the next one would overrun --seconds.
  for (;;) {
    passes.push_back(run_pass(units, false, true, scratch));
    if (passes.size() > 1) check_repeat(passes.front(), passes.back());
    if (seconds_since(start) + passes.back().wall_s > a.seconds) break;
  }

  // Every figure is taken per pass and reported as the median over passes,
  // so one pass caught in a slow phase of the host does not move it.  The
  // end-to-end times are also divided by the pass's host slowdown, which
  // takes out the host's drift between runs (see host_ref.hpp).
  Tally tally;
  std::string dig;
  std::vector<double> walls, p50s, p90s, slowdowns, norm_walls, norm_p50s,
      norm_p90s, minstr, systems, nodes;
  for (const Pass& p : passes) {
    dig = account(units, p, tally);
    const double slow = host_slowdown(p.kernel);
    walls.push_back(p.work_wall_s());
    p50s.push_back(percentile(p.unit_s, 50));
    p90s.push_back(percentile(p.unit_s, 90));
    slowdowns.push_back(slow);
    norm_walls.push_back(walls.back() / slow);
    norm_p50s.push_back(p50s.back() / slow);
    norm_p90s.push_back(p90s.back() / slow);
    const Rates r = rates_of(p);
    minstr.push_back(r.minstr_per_s);
    systems.push_back(r.mc_systems_per_s);
    nodes.push_back(r.fleet_nodes_per_s);
  }
  const auto beyond = std::count_if(
      passes[0].unit_s.begin(), passes[0].unit_s.end(),
      [&](double s) { return s > p90s[0]; });

  std::printf("perfbench %s: seed %llu, %u threads, %zu passes x %zu units\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              kThreads, passes.size(), units.size());
  std::printf("  output digest %s\n", dig.c_str());
  std::printf("  unit samples %zu per pass (%td beyond the first pass's p90)\n",
              units.size(), beyond);
  for (std::size_t i = 0; i < passes.size(); ++i) {
    std::printf("  pass %zu: wall %.4f s, host slowdown %.4f\n", i + 1,
                walls[i], slowdowns[i]);
  }
  const std::vector<Metric> e2e = {
      {"wall_norm_s", median(norm_walls), "s"},
      {"cell_norm_s_p50", median(norm_p50s), "s"},
      {"cell_norm_s_p90", median(norm_p90s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  print_metrics(e2e);
  print_metrics({{"wall_s", median(walls), "s"},
                 {"cell_s_p50", median(p50s), "s"},
                 {"cell_s_p90", median(p90s), "s"},
                 {"host_slowdown", median(slowdowns), "ratio"},
                 {"fail_frac", tally.fail_frac(), "ratio"}});
  if (a.workload == "reliability") {
    print_metrics({{"mc_systems_per_s", median(systems), "systems/s"},
                   {"fleet_nodes_per_s", median(nodes), "nodes/s"}});
  } else {
    print_metrics({{"sim_minstr_per_s", median(minstr), "Minstr/s"}});
  }
  // run.py divides setup_s by this, as the end-to-end times above are.
  std::printf("slowdown %.17g\n", median(slowdowns));
  print_json(tally.failed == 0, tally, e2e);
  return 0;
}

double ns_per(double seconds, std::uint64_t n) {
  return n == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(n);
}

int run_traced(const Args& a, const std::vector<Unit>& units,
               const std::string& scratch) {
  announce_ready();
  // The first pass of a process runs cold (first-touch page faults, cold
  // caches), so it only supplies the counts that the last pass must
  // repeat.  Times and the overhead come from the two warm passes.
  const Pass t1 = run_pass(units, true, false, scratch);
  Pass plain = run_pass(units, false, false, scratch);
  Pass t2 = run_pass(units, true, false, scratch);
  check_repeat(t1, plain);
  check_repeat(t1, t2);

  Tally tally;
  account(units, t1, tally);
  account(units, plain, tally);
  const std::string dig = account(units, t2, tally);

  const Layers l = sum_layers(t2);
  bool counts_identical = true;
  const auto c1 = sum_layers(t1).counts();
  const auto c2 = l.counts();
  for (std::size_t i = 0; i < c1.size(); ++i) {
    if (c1[i].second != c2[i].second) {
      counts_identical = false;
      std::printf("COUNT MISMATCH %s: %llu vs %llu\n", c1[i].first.c_str(),
                  static_cast<unsigned long long>(c1[i].second),
                  static_cast<unsigned long long>(c2[i].second));
    }
  }
  const double traced_wall = t2.wall_s;
  const double busy =
      std::accumulate(plain.unit_s.begin(), plain.unit_s.end(), 0.0);
  const Rates rates = rates_of(plain);
  const double hits = static_cast<double>(l.cache_hits);
  const double probes = static_cast<double>(l.cache_probes);

  const std::vector<Metric> layers = {
      {"trace.ops", static_cast<double>(l.trace_ops), "count"},
      {"trace.ns_per_op", ns_per(l.trace_s, l.trace_ops), "ns"},
      {"cache.probes", probes, "count"},
      {"cache.hit_rate", probes > 0 ? hits / probes : 0.0, "ratio"},
      {"cache.writebacks", static_cast<double>(l.cache_writebacks), "count"},
      {"cache.replay_ops", static_cast<double>(l.cache_replay_ops), "count"},
      {"cache.ns_per_probe", ns_per(l.cache_s, l.cache_replay_ops), "ns"},
      {"cache.busy_s", l.cache_s, "s"},
      {"dram.reads", static_cast<double>(l.dram_reads), "count"},
      {"dram.writes", static_cast<double>(l.dram_writes), "count"},
      {"dram.requests", static_cast<double>(l.dram_requests), "count"},
      {"dram.ticks", static_cast<double>(l.dram_ticks), "count"},
      {"dram.ns_per_tick", ns_per(l.dram_s, l.dram_ticks), "ns"},
      {"dram.ns_per_request.wr_heavy",
       ns_per(l.dram_s_wr_heavy, l.dram_requests_wr_heavy), "ns"},
      {"dram.ns_per_request.rd_heavy",
       ns_per(l.dram_s_rd_heavy, l.dram_requests_rd_heavy), "ns"},
      {"dram.enqueue_rejects", static_cast<double>(l.dram_enqueue_rejects),
       "count"},
      {"dram.busy_s", l.dram_s, "s"},
      {"sim.run_s", l.sim_run_s, "s"},
      {"sim.mem_cycles", static_cast<double>(l.sim_mem_cycles), "count"},
      {"sim.instructions", static_cast<double>(l.sim_instructions), "count"},
      {"sim.ns_per_mem_cycle", ns_per(l.sim_run_s, l.sim_mem_cycles), "ns"},
      {"sim.self_s",
       l.sim_run_s > 0 ? l.sim_run_s - l.trace_s - l.cache_s - l.dram_s : 0.0,
       "s"},
      {"sim_minstr_per_s", rates.minstr_per_s, "Minstr/s"},
      {"runner.parallel_eff", busy / (kThreads * plain.wall_s), "ratio"},
      {"runner.idle_s", kThreads * plain.wall_s - busy, "s"},
      {"ecc.lines", static_cast<double>(l.ecc_lines), "count"},
      {"ecc.ns_per_encode", ns_per(l.ecc_encode_s, l.ecc_lines), "ns"},
      {"ecc.ns_per_correct", ns_per(l.ecc_correct_s, l.ecc_corrects), "ns"},
      {"ecc.rs16_ns_per_word", ns_per(l.rs16_s, l.rs16_words), "ns"},
      {"eccparity.writes", static_cast<double>(l.ep_writes), "count"},
      {"eccparity.reads", static_cast<double>(l.ep_reads), "count"},
      {"eccparity.scrub_lines", static_cast<double>(l.ep_scrub_lines),
       "count"},
      {"eccparity.reconstructions",
       static_cast<double>(l.ep_reconstructions), "count"},
      {"eccparity.ns_per_write", ns_per(l.ep_write_s, l.ep_timed_writes), "ns"},
      {"eccparity.ns_per_read", ns_per(l.ep_read_s, l.ep_timed_reads), "ns"},
      {"faults.systems", static_cast<double>(l.mc_systems), "count"},
      {"faults.ns_per_system", ns_per(l.mc_s, l.mc_systems), "ns"},
      {"mc_systems_per_s", rates.mc_systems_per_s, "systems/s"},
      {"fleet.nodes", static_cast<double>(l.fleet_nodes), "count"},
      {"fleet.ns_per_node", ns_per(l.fleet_s, l.fleet_nodes), "ns"},
      {"fleet_nodes_per_s", rates.fleet_nodes_per_s, "nodes/s"},
      {"trace_overhead_s", traced_wall - plain.wall_s, "s"},
  };
  std::printf(
      "perfbench %s (traced): seed %llu, %u threads, %zu units; untraced "
      "wall %.4f s, traced wall %.4f s\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), kThreads,
      units.size(), plain.wall_s, traced_wall);
  std::printf("  output digest %s\n", dig.c_str());
  std::printf("  exact counts identical across two traced passes: %s\n",
              counts_identical ? "yes" : "NO");
  print_metrics(layers);
  print_json(tally.failed == 0 && counts_identical, tally, layers);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  // The library reads a few environment variables (protocol checker, DRAM
  // generation, GF kernel, an MC test delay); clear them so every run
  // measures the same configuration.
  for (const char* v : {"ECCSIM_CHECK", "ECCSIM_DRAM", "ECCSIM_KERNEL",
                        "ECCSIM_MC_CHUNK_DELAY_MS"}) {
    unsetenv(v);
  }
  // The Monte Carlo engine sizes its own pool from RUNNER_THREADS (else all
  // cores).  At 1 it runs inline in the calling worker, so the process runs
  // exactly kThreads threads instead of nesting a pool per MC study.
  setenv("RUNNER_THREADS", "1", 1);
  try {
    const std::vector<Unit> units = set_up(a);
    if (a.setup_only) {
      announce_ready();
      return 0;
    }
    // A private directory, so clean-up never touches anything the run did
    // not create.
    const std::string scratch =
        std::string(kScratchRoot) + "/run-" + std::to_string(::getpid());
    std::filesystem::create_directories(scratch);
    const int rc = a.trace ? run_traced(a, units, scratch)
                           : run_untraced(a, units, scratch);
    std::filesystem::remove_all(scratch);
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
