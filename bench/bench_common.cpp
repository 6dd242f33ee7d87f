#include "bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/parse.hpp"
#include "gf/kernels.hpp"
#include "obs/heartbeat.hpp"
#include "obs/manifest.hpp"
#include "obs/run_info.hpp"
#include "runner/runner.hpp"
#include "runner/stats_json.hpp"
#include "runner/thread_pool.hpp"
#include "stats/scope.hpp"
#include "stats/stats.hpp"
#include "stats/trace.hpp"

namespace eccsim::bench {

namespace {

// Per-workload stimulus seeds come from trace::paper_sweep_seed, so every
// scheme sees the same stimulus for a workload (Figs. 10-17 are paired),
// and tracetool's recordings replay bit-identically into these sweeps.

// Process start, approximated at static-init time.
const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

double elapsed_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kProcessStart)
      .count();
}

/// A boolean variable: anything but "0" is on.
bool env_flag(const char* name, bool unset = false) {
  const char* v = std::getenv(name);
  return v == nullptr ? unset : std::string(v) != "0";
}

bool quick_mode() { return env_flag("ECCSIM_QUICK"); }
bool smoke_mode() { return env_flag("ECCSIM_SMOKE"); }
bool cache_enabled() { return env_flag("ECCSIM_SWEEP_CACHE", true); }

std::string fidelity_suffix() {
  if (smoke_mode()) return "_smoke";
  if (quick_mode()) return "_quick";
  return "";
}

/// Filename suffix for non-default DRAM generations ("_ddr4"/"_ddr5");
/// empty for DDR3 so the paper-faithful artifact names are unchanged.
std::string dram_suffix() {
  const dram::Generation gen = dram_generation();
  if (gen == dram::Generation::kDdr3) return "";
  return "_" + dram::to_string(gen);
}

/// Output directory prefix: smoke runs are quarantined in a subdirectory
/// so CI-sized numbers never overwrite the committed full-fidelity CSVs,
/// and non-DDR3 generations get their own subdirectory for the same
/// reason (the committed results are all DDR3).
std::string out_dir(const std::string& base) {
  std::string dir = base;
  const dram::Generation gen = dram_generation();
  if (gen != dram::Generation::kDdr3) dir += "/" + dram::to_string(gen);
  if (smoke_mode()) dir += "/smoke";
  return dir;
}

std::string scale_name(ecc::SystemScale scale) {
  return scale == ecc::SystemScale::kQuadEquivalent ? "quad" : "dual";
}

std::string cache_path(ecc::SystemScale scale) {
  return "bench_results/sweep_" + scale_name(scale) + dram_suffix() +
         fidelity_suffix() + ".csv";
}

std::string g_bench_name = "bench";

/// Where --trace-in replays from; empty when the sweep runs live.
std::string trace_in_dir() {
  const char* v = std::getenv("ECCSIM_TRACE_IN");
  return v != nullptr ? std::string(v) : std::string();
}

void check_dram(const char* flag, const char* value) {
  if (dram::parse_generation(value)) return;
  std::fprintf(stderr, "%s: %s must be ddr3, ddr4, or ddr5, got '%s'\n",
               g_bench_name.c_str(), flag, value);
  std::exit(2);
}

/// One bench flag; init() parses by this table and --help prints it.
/// `usage` is the flag, then its value placeholder when it takes one, a
/// tab, and its help text ('\n' continues the help on the next line).
/// A switch sets `env` to 1, a valued flag sets it to the value.
struct Flag {
  const char* env;
  const char* usage;
  const char* also = nullptr;  ///< a switch variable the flag also sets
  void (*check)(const char* flag, const char* value) = nullptr;
};

const Flag kFlags[] = {
    {"ECCSIM_STATS",
     "--stats\tenable the stats registry, epoch time series,\n"
     "results/<bench>.stats.json, and the profiler"},
    {"STATS_EPOCH", "--stats-epoch N\tepoch length in memory cycles (turns "
                    "stats on)",
     "ECCSIM_STATS"},
    {"STATS_TRACE", "--trace DIR\tChrome trace-event file per sweep cell in "
                    "DIR"},
    {"ECCSIM_SMOKE", "--smoke\tCI-sized run, outputs under .../smoke/"},
    {"ECCSIM_QUICK", "--quick\treduced-fidelity run"},
    {"ECCSIM_DRAM",
     "--dram G\tDRAM generation: ddr3 (default), ddr4, ddr5;\n"
     "non-ddr3 sweep caches and outputs go to\n"
     "generation-suffixed paths (sweep_*_ddr5.csv,\n"
     "bench_results/ddr5/, results/ddr5/)",
     nullptr, &check_dram},
    {"ECCSIM_TRACE_IN",
     "--trace-in DIR\treplay sweep stimulus from DIR/<workload>.ecctrace\n"
     "(tracetool record); bypasses the sweep CSV cache\n"
     "so the cells really replay"},
    {"ECCSIM_MC_SYSTEMS",
     "--mc-systems N\tMonte Carlo system budget (overrides scaling)"},
    {"ECCSIM_MC_CHUNK",
     "--mc-chunk N\tMC systems per chunk (any value: results are\n"
     "bit-identical; affects early-stop/checkpoint\n"
     "granularity only)"},
    {"ECCSIM_MC_TARGET_REL_CI",
     "--mc-target-rel-ci X\tstop MC runs early once the relative\n"
     "95% CI half-width of the estimate reaches X"},
    {"ECCSIM_MC_CHECKPOINT",
     "--mc-checkpoint FILE\tappend completed MC chunks to FILE and\n"
     "skip them on rerun (kill-safe resume)"},
    {"ECCSIM_STATUS",
     "--status FILE\tpublish live progress snapshots to FILE\n"
     "(atomic JSON; watch with `benchtool watch`)"},
    {"ECCSIM_PROGRESS",
     "--progress\tlive progress line on stderr (throughput,\n"
     "ETA, and rel-CI during Monte Carlo runs)"},
};

/// Variables the benches read that no flag sets.
const char* const kEnvOnly[] = {"STATS_TRACE_LIMIT", "RUNNER_THREADS",
                                "ECCSIM_SWEEP_CACHE", "ECCSIM_CHECK",
                                "ECCSIM_STATUS_INTERVAL_MS"};

/// The flag's name: its usage up to the first space or tab.
std::string flag_name(const Flag& f) {
  return std::string(f.usage, std::strcspn(f.usage, " \t"));
}

/// A value placeholder follows the name.
bool takes_value(const Flag& f) {
  return f.usage[std::strcspn(f.usage, " \t")] == ' ';
}

/// How error messages name a variable: "ENV/--flag" when a flag sets it.
std::string knob(const char* env) {
  for (const Flag& f : kFlags) {
    if (std::strcmp(f.env, env) == 0) {
      return std::string(env) + "/" + flag_name(f);
    }
  }
  return env;
}

void print_help() {
  std::printf("usage: %s [flag...]\n", g_bench_name.c_str());
  for (const Flag& f : kFlags) {
    const char* tab = std::strchr(f.usage, '\t');
    std::printf("  %-22.*s", static_cast<int>(tab - f.usage), f.usage);
    for (const char* p = tab + 1; *p != '\0'; ++p) {
      std::putchar(*p);
      if (*p == '\n') std::printf("  %-22s", "");
    }
    std::putchar('\n');
  }
  std::vector<const char*> env;
  for (const Flag& f : kFlags) env.push_back(f.env);
  env.insert(env.end(), std::begin(kEnvOnly), std::end(kEnvOnly));
  int col = std::printf("Environment:");
  for (std::size_t i = 0; i < env.size(); ++i) {
    if (col + std::strlen(env[i]) > 70) col = std::printf("\n");
    col += std::printf(" %s%s", env[i], i + 1 < env.size() ? "," : "\n");
  }
}

/// The replay file for one workload's cells (pre-LLC stimulus is
/// scheme-independent), resolved before the fan-out so a missing file is
/// one clear error instead of a worker-thread exception.
std::string resolve_trace_in(const std::string& workload) {
  const std::string path = trace_in_dir() + "/" + workload + ".ecctrace";
  if (std::ifstream(path).good()) return path;
  std::fprintf(stderr, "%s: no trace for %s under %s (%s not found)\n",
               g_bench_name.c_str(), workload.c_str(),
               knob("ECCSIM_TRACE_IN").c_str(), path.c_str());
  obs::note_exit_code(1);
  std::exit(1);
}

/// The stats knobs.  The default epoch is short enough that even a
/// CI-sized smoke run (~tens of thousands of memory cycles) records
/// several epochs.
stats::Config stats_config() {
  return stats::Config::from_env(smoke_mode() ? 500 : 10'000);
}

/// One labelled cell's collector, with its Chrome trace file when
/// tracing is on.
std::unique_ptr<stats::Collector> make_collector(const stats::Config& cfg,
                                                 const std::string& workload,
                                                 const std::string& scheme) {
  auto col = std::make_unique<stats::Collector>(cfg);
  col->set_label(workload, scheme);
  if (!cfg.trace_dir.empty()) {
    col->open_trace(cfg.trace_dir + "/" + workload + "_" + scheme +
                    ".trace.json");
  }
  return col;
}

/// Collectors handed out by new_collector() for benches that build
/// SystemSims directly; dumped by the atexit report.
std::vector<std::unique_ptr<stats::Collector>> g_adhoc_collectors;

/// Writes results/<bench>.stats.json (merged registry + per-cell epoch
/// series + trace-file index), flushes the per-cell trace files, and
/// prints the human-readable summary table.
void write_stats_dump(
    const std::string& scale_label, const stats::Config& cfg,
    const std::vector<std::unique_ptr<stats::Collector>>& collectors) {
  stats::Registry merged;
  for (const auto& c : collectors) merged.merge(c->registry());

  runner::Json doc = runner::Json::object();
  doc.set("bench", g_bench_name);
  doc.set("scale", scale_label);
  doc.set("epoch_cycles", cfg.epoch_cycles);
  doc.set("merged", runner::to_json(merged));
  runner::Json cells = runner::Json::array();
  for (const auto& c : collectors) {
    runner::Json jc = runner::Json::object();
    jc.set("workload", c->workload());
    jc.set("scheme", c->scheme());
    if (stats::Tracer* t = c->tracer()) {
      t->write();
      jc.set("trace_file", t->path());
      jc.set("trace_events", t->recorded());
      jc.set("trace_dropped", t->dropped());
    }
    jc.set("stats", runner::to_json(c->registry()));
    cells.push_back(std::move(jc));
  }
  doc.set("cells", cells);
  const std::string path =
      out_dir("results") + "/" + g_bench_name + ".stats.json";
  runner::write_json(path, doc);

  // Human-readable summary of the merged push stats (per-bank counters are
  // elided: 32+ rows of detail that belong in the JSON, not on a terminal).
  std::printf("\n-- stats summary: %zu cells merged -> %s --\n",
              collectors.size(), path.c_str());
  std::printf("%-44s %s\n", "stat", "value");
  for (const auto& e : merged.view()) {
    if (e.path->find(".bank") != std::string::npos) continue;
    switch (e.kind) {
      case stats::Registry::Kind::kCounter:
      case stats::Registry::Kind::kAccum:
        std::printf("%-44s %.0f\n", e.path->c_str(), e.value);
        break;
      case stats::Registry::Kind::kDistribution:
        std::printf("%-44s mean=%.2f min=%.0f max=%.0f n=%llu\n",
                    e.path->c_str(), e.dist->mean(), e.dist->min(),
                    e.dist->max(),
                    static_cast<unsigned long long>(e.dist->count()));
        break;
      case stats::Registry::Kind::kHistogram:
        std::printf("%-44s p50=%.0f p95=%.0f p99=%.0f n=%llu\n",
                    e.path->c_str(), e.hist->percentile(50),
                    e.hist->percentile(95), e.hist->percentile(99),
                    static_cast<unsigned long long>(e.hist->total()));
        break;
      case stats::Registry::Kind::kGauge:
        break;  // per-run artifacts; merged registries carry none
    }
  }
  std::printf("\n");
}

std::string manifest_path() {
  return out_dir("results") + "/" + g_bench_name + ".manifest.json";
}

/// End-of-run report, registered via std::atexit by init().  The first
/// line always prints (scripts/run_all.sh parses it for its summary); the
/// per-scope profile, on stderr and in the manifest, only in a stats run.
void profile_report() {
  // Flush any collectors from direct-SystemSim benches (ablations) first:
  // their stats dump is part of the run's output, not just the profile.
  if (!g_adhoc_collectors.empty()) {
    write_stats_dump("custom", stats_config(), g_adhoc_collectors);
  }
  const double wall = elapsed_seconds();
  const double rss_mb =
      static_cast<double>(stats::process_peak_rss_bytes()) / (1024.0 * 1024.0);
  std::fprintf(stderr, "[eccsim-profile] bench=%s wall_seconds=%.3f "
               "peak_rss_mb=%.1f\n",
               g_bench_name.c_str(), wall, rss_mb);

  // Finalize the run manifest (status was "running" since init()).
  obs::Manifest& m = obs::manifest();
  m.finished_utc = obs::utc_timestamp();
  m.wall_seconds = wall;
  m.peak_rss_bytes = stats::process_peak_rss_bytes();
  if (m.status == "running") m.status = "completed";
  if (stats::Profiler::enabled()) m.profile = stats::Profiler::snapshot();
  for (const auto& [scope, totals] : m.profile) {
    std::fprintf(stderr, "[eccsim-profile] scope=%s calls=%llu seconds=%.3f\n",
                 scope.c_str(),
                 static_cast<unsigned long long>(totals.calls),
                 totals.seconds);
  }
  obs::write_manifest(manifest_path(), m);
}

std::string serialize(const sim::RunResult& r) {
  std::ostringstream os;
  os.precision(17);
  os << r.scheme << ',' << r.workload << ',' << r.instructions << ','
     << r.mem_cycles << ',' << r.ipc << ',' << r.epi_pj << ','
     << r.dynamic_epi_pj << ',' << r.background_epi_pj << ',' << r.mapi
     << ',' << r.bandwidth_utilization << ',' << r.avg_read_latency << ','
     << r.mem.reads << ',' << r.mem.writes << ',' << r.mem.ecc_reads << ','
     << r.mem.ecc_writes;
  return os.str();
}

bool deserialize(const std::string& line, sim::RunResult& r) {
  std::istringstream is(line);
  std::string f[15];
  for (auto& s : f) {
    if (!std::getline(is, s, ',')) return false;
  }
  r.scheme = f[0];
  r.workload = f[1];
  r.instructions = std::stoull(f[2]);
  r.mem_cycles = std::stoull(f[3]);
  r.ipc = std::stod(f[4]);
  r.epi_pj = std::stod(f[5]);
  r.dynamic_epi_pj = std::stod(f[6]);
  r.background_epi_pj = std::stod(f[7]);
  r.mapi = std::stod(f[8]);
  r.bandwidth_utilization = std::stod(f[9]);
  r.avg_read_latency = std::stod(f[10]);
  r.mem.reads = std::stoull(f[11]);
  r.mem.writes = std::stoull(f[12]);
  r.mem.ecc_reads = std::stoull(f[13]);
  r.mem.ecc_writes = std::stoull(f[14]);
  return true;
}

std::vector<sim::RunResult> load_cache(const std::string& path) {
  std::vector<sim::RunResult> rows;
  std::ifstream in(path);
  if (!in) return rows;
  std::string line;
  while (std::getline(in, line)) {
    sim::RunResult r;
    if (deserialize(line, r)) rows.push_back(std::move(r));
  }
  return rows;
}

/// Fans cells out over the runner with the heartbeat and the stderr
/// progress line.
runner::Report run_cells(const std::string& label,
                         const std::vector<runner::Cell>& cells) {
  runner::RunOptions opts;
  obs::Heartbeat& hb = obs::Heartbeat::global();
  opts.progress = [&label, &hb](std::size_t done, std::size_t total,
                                const runner::Cell& cell) {
    if (hb.enabled()) {
      obs::Heartbeat::Tick t;
      t.phase = label;
      t.done = done;
      t.total = total;
      t.counters = {{"cells_done", static_cast<double>(done)}};
      hb.tick(t);
    }
    // The heartbeat's --progress line supersedes the plain one; printing
    // both would interleave two \r lines on the same row.
    if (hb.config().stderr_line) return;
    std::fprintf(stderr, "\r[%s] %zu/%zu (%s / %s)        ", label.c_str(),
                 done, total, cell.workload.c_str(), cell.scheme.c_str());
    std::fflush(stderr);
  };
  runner::Report report = runner::run_cells(cells, opts);
  std::fprintf(stderr,
               "\r[%s] %zu cells, %.1fs wall (%.1fs serial-equivalent, "
               "%.2fx on %u threads)\n",
               label.c_str(), cells.size(), report.wall_seconds,
               report.cell_seconds, report.speedup(), report.threads);
  return report;
}

std::vector<sim::RunResult> run_sweep(ecc::SystemScale scale) {
  // One cell per (workload, scheme), each with its own SimOptions and the
  // workload's substream seed, so nothing depends on execution order.  In
  // a stats run every cell also owns one Collector, merged on this thread
  // after the fan-out, so results stay bit-identical at any thread count.
  const stats::Config stats_cfg = stats_config();
  std::vector<std::unique_ptr<stats::Collector>> collectors;
  const auto schemes = ecc::all_schemes();
  const auto& workloads = trace::paper_workloads();
  std::vector<runner::Cell> cells;
  cells.reserve(workloads.size() * schemes.size());
  const dram::Generation gen = dram_generation();
  for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
    const std::uint64_t seed = trace::paper_sweep_seed(wi);
    const std::string trace_in =
        trace_in_dir().empty() ? "" : resolve_trace_in(workloads[wi].name);
    for (const auto id : schemes) {
      runner::Cell cell;
      cell.scheme = ecc::to_string(id);
      cell.workload = workloads[wi].name;
      stats::Collector* col = nullptr;
      if (stats_cfg.enabled) {
        collectors.push_back(
            make_collector(stats_cfg, cell.workload, cell.scheme));
        col = collectors.back().get();
      }
      cell.work = [id, scale, seed, name = workloads[wi].name, col,
                   trace_in, gen] {
        sim::SimOptions opts;
        opts.target_instructions = target_instructions();
        opts.seed = seed;
        opts.dram_gen = gen;
        opts.stats = col;
        opts.trace_in = trace_in;
        // A cell can fail mid-run (an exhausted or corrupt replay trace);
        // the runner's workers do not catch exceptions, so fail the whole
        // bench here with a readable message instead of std::terminate.
        try {
          return sim::run_experiment(id, scale, name, opts);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "\n%s: cell %s/%s failed: %s\n",
                       g_bench_name.c_str(), name.c_str(),
                       ecc::to_string(id).c_str(), e.what());
          obs::note_exit_code(1);
          std::exit(1);
        }
      };
      cells.push_back(std::move(cell));
    }
  }

  const runner::Report report =
      run_cells("sweep " + scale_name(scale), cells);
  if (stats_cfg.enabled) {
    write_stats_dump(scale_name(scale), stats_cfg, collectors);
  }

  // Persist the per-cell metrics + fan-out timings (this is where the
  // realized speedup is recorded).
  runner::Json doc = runner::Json::object();
  doc.set("bench", "sweep_" + scale_name(scale));
  doc.set("scale", scale_name(scale));
  doc.set("target_instructions", target_instructions());
  doc.set("run", runner::to_json(report));
  runner::write_json(
      out_dir("results") + "/sweep_" + scale_name(scale) + ".json", doc);

  std::vector<sim::RunResult> rows;
  rows.reserve(report.cells.size());
  for (const auto& c : report.cells) rows.push_back(c.result);
  return rows;
}

/// An ECCSIM_MC_* number; 0 when unset (engine-default chunk size, scaled
/// system budget, no early stop, no chunk delay).  Parsed strictly: `4x`
/// or `abc` exits 2, whether it came from the environment or a flag.
unsigned mc_uint(const char* env) {
  const char* v = std::getenv(env);
  return v != nullptr
             ? parse_uint<unsigned>(g_bench_name.c_str(), knob(env).c_str(), v)
             : 0;
}

double mc_double(const char* env) {
  const char* v = std::getenv(env);
  return v != nullptr ? parse_double(g_bench_name.c_str(), knob(env).c_str(), v)
                      : 0.0;
}

}  // namespace

void init(int argc, char** argv) {
  if (argc > 0 && argv[0] != nullptr) {
    const std::string path = argv[0];
    g_bench_name = path.substr(path.find_last_of('/') + 1);  // npos + 1 = 0
  }
  // Valued flags accept both `--flag=value` and `--flag value`.
  const char* prog = g_bench_name.c_str();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_help();
      std::exit(0);
    }
    const Flag* flag = nullptr;
    const char* value = nullptr;
    for (const Flag& f : kFlags) {
      const std::string name = flag_name(f);
      value = takes_value(f) ? flag_value(prog, argc, argv, i, name.c_str())
              : arg == name  ? "1"
                             : nullptr;
      if (value != nullptr) {
        flag = &f;
        break;
      }
    }
    if (flag == nullptr) {
      std::fprintf(stderr, "%s: unknown flag '%s' (try --help)\n", prog,
                   arg.c_str());
      std::exit(2);
    }
    if (flag->check != nullptr) flag->check(flag_name(*flag).c_str(), value);
    setenv(flag->env, value, 1);
    if (flag->also != nullptr) setenv(flag->also, "1", 1);
  }
  if (stats_config().enabled) stats::Profiler::set_enabled(true);
  // A malformed MC knob fails here (exit 2) rather than in the middle of
  // the run, after the manifest below has been booted.
  for (const char* env : {"ECCSIM_MC_CHUNK", "ECCSIM_MC_SYSTEMS",
                          "ECCSIM_MC_CHUNK_DELAY_MS"}) {
    (void)mc_uint(env);
  }
  (void)mc_double("ECCSIM_MC_TARGET_REL_CI");

  // Boot the run manifest: written with status "running" now, finalized
  // by the atexit report.  A reader that finds a stale "running" manifest
  // knows the process died without reaching its exit hook.
  obs::Heartbeat::global().set_tool(g_bench_name);
  obs::Manifest& m = obs::manifest();
  m.tool = g_bench_name;
  for (int i = 1; i < argc; ++i) m.args.emplace_back(argv[i]);
  m.git_sha = obs::git_head_sha();
  m.dram = dram::to_string(dram_generation());
  // All sweeps draw per-workload substreams of root seed 1 (see
  // trace::paper_sweep_seed); that is the only seed regime the benches use.
  m.seed_regime = "paper_sweep_seed(root=1)";
  m.threads = runner::ThreadPool::default_thread_count();
  m.host = obs::hostname();
  m.host_cpus = obs::cpu_count();
  m.started_utc = obs::utc_timestamp();
  m.extra.emplace_back("fidelity", smoke_mode()   ? "smoke"
                                   : quick_mode() ? "quick"
                                                  : "full");
  // Kernel provenance (observation-only: results are kernel-invariant,
  // docs/KERNELS.md).  Resolving the kernel here makes a bad ECCSIM_KERNEL
  // exit 2 at startup instead of mid-sweep.
  m.extra.emplace_back("kernel", gf::kernel_name(gf::active_kernel()));
  std::string available;
  for (gf::Kernel k :
       {gf::Kernel::kScalar, gf::Kernel::kSlice8, gf::Kernel::kSimd}) {
    if (!gf::kernel_available(k)) continue;
    if (!available.empty()) available += ',';
    available += gf::kernel_name(k);
  }
  m.extra.emplace_back("kernels_available", available);
  m.extra.emplace_back("simd_avx2",
                       gf::kernel_simd_uses_avx2() ? "true" : "false");
  if (const char* forced = std::getenv("ECCSIM_KERNEL")) {
    m.extra.emplace_back("kernel_override", forced);
  }
  obs::write_manifest(manifest_path(), m);

  // Touch the profiler's function-local statics now so they are
  // constructed before the atexit handler registers -- C++ tears static
  // storage down in reverse order, so this guarantees they outlive it.
  (void)stats::Profiler::snapshot();
  std::atexit(&profile_report);
}

dram::Generation dram_generation() {
  try {
    return dram::generation_from_env().value_or(dram::Generation::kDdr3);
  } catch (const std::exception& e) {
    // A typo in ECCSIM_DRAM must not silently benchmark DDR3 (or abort
    // with an unhandled exception from deep inside a path helper).
    std::fprintf(stderr, "%s: %s\n", g_bench_name.c_str(), e.what());
    std::exit(2);
  }
}

stats::Collector* new_collector(const std::string& workload,
                                const std::string& scheme) {
  const stats::Config cfg = stats_config();
  if (!cfg.enabled) return nullptr;
  g_adhoc_collectors.push_back(make_collector(cfg, workload, scheme));
  return g_adhoc_collectors.back().get();
}

std::uint64_t target_instructions() {
  if (smoke_mode()) return 50'000;
  return quick_mode() ? 200'000 : 1'000'000;
}

faults::McOptions mc_options() {
  faults::McOptions opts;
  opts.chunk_size = mc_uint("ECCSIM_MC_CHUNK");
  opts.target_rel_ci = mc_double("ECCSIM_MC_TARGET_REL_CI");
  opts.chunk_delay_ms = mc_uint("ECCSIM_MC_CHUNK_DELAY_MS");
  if (const char* v = std::getenv("ECCSIM_MC_CHECKPOINT")) {
    opts.checkpoint_path = v;
  }
  if (stats_config().enabled) {
    // One collector labeled ("mc", <bench>) carries every MC run's mc.*
    // counters and rel-CI series into results/<bench>.stats.json.
    static stats::Collector* col = new_collector("mc", g_bench_name);
    opts.stats = &col->registry();
  }
  return opts;
}

unsigned mc_systems(unsigned full) {
  if (const unsigned n = mc_uint("ECCSIM_MC_SYSTEMS"); n > 0) return n;
  unsigned n = full;
  if (smoke_mode()) {
    n = full / 20;
  } else if (quick_mode()) {
    n = full / 5;
  }
  return std::max(n, 200u);
}

const std::vector<sim::RunResult>& sweep(ecc::SystemScale scale) {
  static std::map<int, std::vector<sim::RunResult>> cache;
  const int key = static_cast<int>(scale);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;

  const std::string path = cache_path(scale);
  // A cache hit would skip simulation entirely, so stats (which only
  // observe live runs) and trace replay (which must actually run the
  // cells) force a fresh sweep.  The CSV is still written afterwards:
  // under replay it doubles as the replay-vs-live comparison artifact.
  if (cache_enabled() && !stats_config().enabled && trace_in_dir().empty()) {
    auto rows = load_cache(path);
    // 16 workloads x 8 schemes expected.
    if (rows.size() == trace::paper_workloads().size() *
                           ecc::all_schemes().size()) {
      return cache.emplace(key, std::move(rows)).first->second;
    }
  }
  auto rows = run_sweep(scale);
  if (cache_enabled()) {
    std::ostringstream os;
    for (const auto& r : rows) os << serialize(r) << '\n';
    write_file(path, os.str());
  }
  return cache.emplace(key, std::move(rows)).first->second;
}

const sim::RunResult& find(const std::vector<sim::RunResult>& rows,
                           const std::string& scheme,
                           const std::string& workload) {
  for (const auto& r : rows) {
    if (r.scheme == scheme && r.workload == workload) return r;
  }
  throw std::out_of_range("no result for " + scheme + "/" + workload);
}

int bin_of(const std::string& workload) {
  return trace::workload_by_name(workload).bin;
}

double reduction_pct(double baseline, double ours) {
  return (1.0 - ours / baseline) * 100.0;
}

void emit(const std::string& name, const Table& table) {
  std::printf("%s\n", table.str().c_str());
  write_file(out_dir("bench_results") + "/" + name + ".csv", table.csv());

  runner::Json doc = runner::Json::object();
  doc.set("bench", name);
  doc.set("wall_seconds", elapsed_seconds());
  runner::Json tbl = runner::Json::object();
  runner::Json header = runner::Json::array();
  for (const auto& h : table.header()) header.push_back(h);
  tbl.set("header", header);
  runner::Json rows = runner::Json::array();
  for (const auto& r : table.row_data()) {
    runner::Json row = runner::Json::array();
    for (const auto& cell : r) row.push_back(cell);
    rows.push_back(row);
  }
  tbl.set("rows", rows);
  doc.set("table", tbl);
  runner::write_json(out_dir("results") + "/" + name + ".json", doc);
}

std::vector<std::string> workload_order() {
  std::vector<std::string> names;
  for (int bin : {1, 2}) {
    for (const auto& w : trace::paper_workloads()) {
      if (w.bin == bin) names.push_back(w.name);
    }
  }
  return names;
}

}  // namespace eccsim::bench
