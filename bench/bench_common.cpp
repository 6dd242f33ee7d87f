#include "bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "common/parse.hpp"
#include "gf/kernels.hpp"
#include "obs/heartbeat.hpp"
#include "obs/manifest.hpp"
#include "obs/run_info.hpp"
#include "runner/stats_json.hpp"
#include "runner/thread_pool.hpp"
#include "stats/scope.hpp"
#include "stats/stats.hpp"
#include "stats/trace.hpp"

namespace eccsim::bench {

namespace {

// Per-workload stimulus seeds come from trace::paper_sweep_seed: substreams
// of root seed 1, so every scheme observes the same stimulus for a given
// workload (the comparisons in Figs. 10-17 are paired) while distinct
// workloads get statistically independent streams.  tracetool records with
// the same function, which is what makes recorded traces replay
// bit-identically into these sweeps.

// Process start, approximated at static-init time; emit() reports elapsed
// wall-clock relative to it.
const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && std::string(v) != "0";
}

bool quick_mode() { return env_flag("ECCSIM_QUICK"); }
bool smoke_mode() { return env_flag("ECCSIM_SMOKE"); }

bool cache_enabled() {
  const char* c = std::getenv("ECCSIM_SWEEP_CACHE");
  return c == nullptr || std::string(c) != "0";
}

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

/// Trace record/replay controls (the --trace-in/--trace-out/--trace-point
/// flags set these; scripts can set the environment directly).
std::string trace_in_dir() {
  const char* v = std::getenv("ECCSIM_TRACE_IN");
  return v != nullptr ? std::string(v) : std::string();
}
std::string trace_out_dir() {
  const char* v = std::getenv("ECCSIM_TRACE_OUT");
  return v != nullptr ? std::string(v) : std::string();
}
tracefile::CapturePoint trace_point() {
  const char* v = std::getenv("ECCSIM_TRACE_POINT");
  const std::string s = v != nullptr ? v : "pre";
  if (s == "pre") return tracefile::CapturePoint::kPreLlc;
  if (s == "post") return tracefile::CapturePoint::kPostLlc;
  std::fprintf(stderr, "%s: ECCSIM_TRACE_POINT/--trace-point must be 'pre' "
               "or 'post', got '%s'\n", g_bench_name.c_str(), s.c_str());
  std::exit(2);
}

/// Resolves the replay file for one sweep cell: a shared per-workload
/// trace first (pre-LLC stimulus is scheme-independent), then a per-cell
/// one.  Runs on the main thread before the fan-out so a missing file is
/// one clear error instead of a worker-thread exception.
std::string resolve_trace_in(const std::string& workload,
                             const std::string& scheme) {
  const std::string shared = trace_in_dir() + "/" + workload + ".ecctrace";
  const std::string per_cell =
      trace_in_dir() + "/" + workload + "_" + scheme + ".ecctrace";
  for (const auto& p : {shared, per_cell}) {
    if (std::ifstream(p).good()) return p;
  }
  std::fprintf(stderr,
               "%s: no trace for %s/%s under --trace-in (tried %s and %s)\n",
               g_bench_name.c_str(), workload.c_str(), scheme.c_str(),
               shared.c_str(), per_cell.c_str());
  obs::note_exit_code(1);
  std::exit(1);
}

/// The 16 paper workloads with their calibrated parameters, for --help
/// discovery and for naming traces to record.
void print_workloads() {
  std::printf("%-14s %-4s %-5s %-7s %-9s %s\n", "workload", "bin", "mt",
              "apki", "write%", "footprint");
  for (const auto& w : trace::paper_workloads()) {
    std::printf("%-14s %-4d %-5s %-7.1f %-9.0f %llu MB\n", w.name.c_str(),
                w.bin, w.multithreaded ? "yes" : "no", w.apki,
                w.write_fraction * 100.0,
                static_cast<unsigned long long>(w.footprint_bytes >> 20));
  }
}

/// Default epoch length: small enough that even a CI-sized smoke run
/// (~tens of thousands of memory cycles) records several epochs.
std::uint64_t default_epoch_cycles() { return smoke_mode() ? 500 : 10'000; }

stats::Config stats_config() {
  return stats::Config::from_env(default_epoch_cycles());
}

void write_stats_dump(
    const std::string& scale_label, const stats::Config& cfg,
    const std::vector<std::unique_ptr<stats::Collector>>& collectors);
extern std::vector<std::unique_ptr<stats::Collector>> g_adhoc_collectors;

std::string manifest_path() {
  return out_dir("results") + "/" + g_bench_name + ".manifest.json";
}

/// End-of-run report, registered via std::atexit by init().  The first
/// line always prints (scripts/run_all.sh parses it for its summary); the
/// per-scope profile, on stderr and in the manifest, only exists when
/// --stats enabled the profiler.
void profile_report() {
  // Flush any collectors from direct-SystemSim benches (ablations) first:
  // their stats dump is part of the run's output, not just the profile.
  if (!g_adhoc_collectors.empty()) {
    write_stats_dump("custom", stats_config(), g_adhoc_collectors);
  }
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - kProcessStart)
                          .count();
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
  doc.set("metadata", runner::to_json(runner::collect_metadata()));
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
  std::string cell;
  auto next = [&](std::string& out) {
    return static_cast<bool>(std::getline(is, out, ','));
  };
  std::string f[15];
  for (auto& s : f) {
    if (!next(s)) return false;
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

std::vector<sim::RunResult> run_sweep(ecc::SystemScale scale) {
  // One cell per (workload, scheme), fanned out over the runner.  Each
  // cell builds its own SimOptions with the workload's substream seed, so
  // schemes stay paired per workload and nothing depends on execution
  // order.  With --stats every cell additionally owns one Collector
  // (single-threaded registries; merged on this thread after the fan-out,
  // so the bit-identical-at-any-thread-count guarantee is untouched).
  const stats::Config stats_cfg = stats_config();
  std::vector<std::unique_ptr<stats::Collector>> collectors;
  const auto schemes = ecc::all_schemes();
  const auto& workloads = trace::paper_workloads();
  std::vector<runner::Cell> cells;
  cells.reserve(workloads.size() * schemes.size());
  const tracefile::CapturePoint point = trace_point();
  const dram::Generation gen = dram_generation();
  for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
    const std::uint64_t seed = trace::paper_sweep_seed(wi);
    for (const auto id : schemes) {
      runner::Cell cell;
      cell.scheme = ecc::to_string(id);
      cell.workload = workloads[wi].name;
      // Trace paths resolve on this thread (clear errors); recordings get
      // per-cell names so concurrent cells never share a file.
      std::string trace_in;
      if (!trace_in_dir().empty()) {
        trace_in = resolve_trace_in(cell.workload, cell.scheme);
      }
      std::string trace_out;
      if (!trace_out_dir().empty()) {
        trace_out = trace_out_dir() + "/" + cell.workload + "_" +
                    cell.scheme + ".ecctrace";
      }
      stats::Collector* col = nullptr;
      if (stats_cfg.enabled) {
        collectors.push_back(std::make_unique<stats::Collector>(stats_cfg));
        col = collectors.back().get();
        col->set_label(cell.workload, cell.scheme);
        if (!stats_cfg.trace_dir.empty()) {
          col->open_trace(stats_cfg.trace_dir + "/" + cell.workload + "_" +
                          cell.scheme + ".trace.json");
        }
      }
      cell.work = [id, scale, seed, name = workloads[wi].name, col,
                   trace_in, trace_out, point, gen] {
        sim::SimOptions opts;
        opts.target_instructions = target_instructions();
        opts.seed = seed;
        opts.dram_gen = gen;
        opts.stats = col;
        opts.trace_in = trace_in;
        opts.trace_out = trace_out;
        opts.trace_point = point;
        if (trace_in.empty() && trace_out.empty()) {
          return sim::run_experiment(id, scale, name, opts);
        }
        // Trace I/O can fail mid-run (exhausted/corrupt trace, full disk);
        // the runner's workers do not catch exceptions, so fail the whole
        // bench here with a readable message instead of std::terminate.
        try {
          return sim::run_experiment(id, scale, name, opts);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "\n%s: trace failure in cell %s/%s: %s\n",
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
  doc.set("metadata", runner::to_json(runner::collect_metadata()));
  doc.set("run", runner::to_json(report));
  runner::write_json(
      out_dir("results") + "/sweep_" + scale_name(scale) + ".json", doc);

  std::vector<sim::RunResult> rows;
  rows.reserve(report.cells.size());
  for (const auto& c : report.cells) rows.push_back(c.result);
  return rows;
}

/// The numeric ECCSIM_MC_* knobs; 0 means unset (engine-default chunk
/// size, scaled system budget, no early stop, no chunk delay).  Parsed
/// strictly: `4x` or `abc` exits 2, whether it came from the env or the
/// --mc-* flag.
struct McEnv {
  unsigned chunk = 0;
  unsigned systems = 0;
  double target_rel_ci = 0.0;
  unsigned chunk_delay_ms = 0;
};

McEnv mc_env() {
  McEnv e;
  const char* prog = g_bench_name.c_str();
  if (const char* v = std::getenv("ECCSIM_MC_CHUNK")) {
    e.chunk = parse_uint<unsigned>(prog, "ECCSIM_MC_CHUNK/--mc-chunk", v);
  }
  if (const char* v = std::getenv("ECCSIM_MC_SYSTEMS")) {
    e.systems =
        parse_uint<unsigned>(prog, "ECCSIM_MC_SYSTEMS/--mc-systems", v);
  }
  if (const char* v = std::getenv("ECCSIM_MC_TARGET_REL_CI")) {
    e.target_rel_ci = parse_double(
        prog, "ECCSIM_MC_TARGET_REL_CI/--mc-target-rel-ci", v);
  }
  if (const char* v = std::getenv("ECCSIM_MC_CHUNK_DELAY_MS")) {
    e.chunk_delay_ms =
        parse_uint<unsigned>(prog, "ECCSIM_MC_CHUNK_DELAY_MS", v);
  }
  return e;
}

}  // namespace

void init(int argc, char** argv) {
  if (argc > 0 && argv[0] != nullptr) {
    const std::string path = argv[0];
    const auto slash = path.find_last_of('/');
    g_bench_name =
        slash == std::string::npos ? path : path.substr(slash + 1);
  }
  // Valued flags accept both `--flag=value` and `--flag value`.
  const char* prog = g_bench_name.c_str();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = nullptr;
    if (arg == "--stats") {
      setenv("ECCSIM_STATS", "1", 1);
    } else if (arg.rfind("--stats-epoch=", 0) == 0) {
      setenv("ECCSIM_STATS", "1", 1);
      setenv("STATS_EPOCH", arg.c_str() + 14, 1);
    } else if (arg.rfind("--trace=", 0) == 0) {
      setenv("STATS_TRACE", arg.c_str() + 8, 1);
    } else if (arg == "--smoke") {
      setenv("ECCSIM_SMOKE", "1", 1);
    } else if (arg == "--quick") {
      setenv("ECCSIM_QUICK", "1", 1);
    } else if ((v = flag_value(prog, argc, argv, i, "--dram")) != nullptr) {
      if (!dram::parse_generation(v)) {
        std::fprintf(stderr,
                     "%s: --dram must be ddr3, ddr4, or ddr5, got '%s'\n",
                     g_bench_name.c_str(), v);
        std::exit(2);
      }
      setenv("ECCSIM_DRAM", v, 1);
    } else if ((v = flag_value(prog, argc, argv, i,
                               "--mc-systems")) != nullptr) {
      setenv("ECCSIM_MC_SYSTEMS", v, 1);
    } else if ((v = flag_value(prog, argc, argv, i, "--mc-chunk")) != nullptr) {
      setenv("ECCSIM_MC_CHUNK", v, 1);
    } else if ((v = flag_value(prog, argc, argv, i,
                               "--mc-target-rel-ci")) != nullptr) {
      setenv("ECCSIM_MC_TARGET_REL_CI", v, 1);
    } else if ((v = flag_value(prog, argc, argv, i,
                               "--mc-checkpoint")) != nullptr) {
      setenv("ECCSIM_MC_CHECKPOINT", v, 1);
    } else if ((v = flag_value(prog, argc, argv, i, "--trace-in")) != nullptr) {
      setenv("ECCSIM_TRACE_IN", v, 1);
    } else if ((v = flag_value(prog, argc, argv, i,
                               "--trace-out")) != nullptr) {
      setenv("ECCSIM_TRACE_OUT", v, 1);
    } else if ((v = flag_value(prog, argc, argv, i,
                               "--trace-point")) != nullptr) {
      setenv("ECCSIM_TRACE_POINT", v, 1);
      (void)trace_point();  // reject anything but pre/post immediately
    } else if ((v = flag_value(prog, argc, argv, i, "--status")) != nullptr) {
      setenv("ECCSIM_STATUS", v, 1);
    } else if (arg == "--progress") {
      setenv("ECCSIM_PROGRESS", "1", 1);
    } else if (arg == "--list-workloads") {
      print_workloads();
      std::exit(0);
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--stats] [--stats-epoch=N] [--trace=DIR]\n"
          "          [--smoke|--quick] [--dram G] [--list-workloads]\n"
          "          [--trace-in DIR] [--trace-out DIR] "
          "[--trace-point pre|post]\n"
          "          [--mc-systems N] [--mc-chunk N]\n"
          "          [--mc-target-rel-ci X] [--mc-checkpoint FILE]\n"
          "          [--status FILE] [--progress]\n"
          "  --stats          enable the stats registry, epoch time series,\n"
          "                   results/<bench>.stats.json, and the profiler\n"
          "  --stats-epoch=N  epoch length in memory cycles (implies "
          "--stats)\n"
          "  --trace=DIR      Chrome trace-event file per sweep cell in DIR\n"
          "  --smoke          CI-sized run, outputs under .../smoke/\n"
          "  --quick          reduced-fidelity run\n"
          "  --dram G         DRAM generation: ddr3 (default), ddr4, ddr5;\n"
          "                   non-ddr3 sweep caches and outputs go to\n"
          "                   generation-suffixed paths (sweep_*_ddr5.csv,\n"
          "                   bench_results/ddr5/, results/ddr5/)\n"
          "  --list-workloads print the 16 paper workloads (name, bin,\n"
          "                   multithreaded, apki, write%%, footprint)\n"
          "  --trace-in DIR   replay sweep stimulus from DIR's .ecctrace\n"
          "                   files (<workload>.ecctrace, falling back to\n"
          "                   <workload>_<scheme>.ecctrace); bypasses the\n"
          "                   sweep CSV cache so the cells really replay\n"
          "  --trace-out DIR  record each sweep cell's stimulus to\n"
          "                   DIR/<workload>_<scheme>.ecctrace\n"
          "  --trace-point P  capture point for --trace-out: 'pre' (pre-LLC\n"
          "                   per-core stream, replayable; default) or\n"
          "                   'post' (post-LLC DRAM requests, analysis "
          "only)\n"
          "  --mc-systems N   Monte Carlo system budget (overrides scaling)\n"
          "  --mc-chunk N     MC systems per chunk (any value: results are\n"
          "                   bit-identical; affects early-stop/checkpoint\n"
          "                   granularity only)\n"
          "  --mc-target-rel-ci X  stop MC runs early once the relative\n"
          "                   95%% CI half-width of the estimate reaches X\n"
          "  --mc-checkpoint FILE  append completed MC chunks to FILE and\n"
          "                   skip them on rerun (kill-safe resume)\n"
          "  --status FILE    publish live progress snapshots to FILE\n"
          "                   (atomic JSON; watch with `benchtool watch`)\n"
          "  --progress       live progress line on stderr (throughput,\n"
          "                   ETA, and rel-CI during Monte Carlo runs)\n"
          "Environment: ECCSIM_STATS, STATS_EPOCH, STATS_TRACE,\n"
          "STATS_TRACE_LIMIT, ECCSIM_QUICK, ECCSIM_SMOKE, ECCSIM_DRAM,\n"
          "RUNNER_THREADS, ECCSIM_SWEEP_CACHE, ECCSIM_CHECK,\n"
          "ECCSIM_TRACE_IN, ECCSIM_TRACE_OUT, ECCSIM_TRACE_POINT,\n"
          "ECCSIM_MC_SYSTEMS, ECCSIM_MC_CHUNK, ECCSIM_MC_TARGET_REL_CI,\n"
          "ECCSIM_MC_CHECKPOINT, ECCSIM_STATUS, ECCSIM_PROGRESS,\n"
          "ECCSIM_STATUS_INTERVAL_MS\n",
          g_bench_name.c_str());
      std::exit(0);
    } else {
      std::fprintf(stderr, "%s: unknown flag '%s' (try --help)\n",
                   g_bench_name.c_str(), arg.c_str());
      std::exit(2);
    }
  }
  if (stats_config().enabled) stats::Profiler::set_enabled(true);
  // A malformed MC knob fails here (exit 2) rather than in the middle of
  // the run, after the manifest below has been booted.
  (void)mc_env();

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
  // Kernel provenance: which GF kernel computes every result, what the CPU
  // offered, and whether ECCSIM_KERNEL forced the choice.  Resolving the
  // kernel here makes a bad ECCSIM_KERNEL fail fast at startup (exit 2,
  // like any malformed flag) instead of mid-sweep.  Observation-only:
  // results are kernel-invariant by the oracle guarantee (docs/KERNELS.md).
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

const std::string& bench_name() { return g_bench_name; }

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
  g_adhoc_collectors.push_back(std::make_unique<stats::Collector>(cfg));
  stats::Collector* col = g_adhoc_collectors.back().get();
  col->set_label(workload, scheme);
  if (!cfg.trace_dir.empty()) {
    col->open_trace(cfg.trace_dir + "/" + workload + "_" + scheme +
                    ".trace.json");
  }
  return col;
}

std::uint64_t target_instructions() {
  if (smoke_mode()) return 50'000;
  return quick_mode() ? 200'000 : 1'000'000;
}

faults::McOptions mc_options() {
  faults::McOptions opts;
  const McEnv env = mc_env();
  opts.chunk_size = env.chunk;
  opts.target_rel_ci = env.target_rel_ci;
  opts.chunk_delay_ms = env.chunk_delay_ms;
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
  if (const unsigned n = mc_env().systems; n > 0) return n;
  unsigned n = full;
  if (smoke_mode()) {
    n = full / 20;
  } else if (quick_mode()) {
    n = full / 5;
  }
  return std::max(n, 200u);
}

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

const std::vector<sim::RunResult>& sweep(ecc::SystemScale scale) {
  static std::map<int, std::vector<sim::RunResult>> cache;
  const int key = static_cast<int>(scale);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;

  const std::string path = cache_path(scale);
  // A cache hit would skip simulation entirely, so --stats (which only
  // observes live runs) and trace record/replay (which must actually run
  // the cells) force a fresh sweep.  The CSV is still written afterwards:
  // under --trace-in it doubles as the replay-vs-live comparison artifact.
  const bool tracing = !trace_in_dir().empty() || !trace_out_dir().empty();
  if (cache_enabled() && !stats_config().enabled && !tracing) {
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
  doc.set("metadata", runner::to_json(runner::collect_metadata()));
  doc.set("wall_seconds",
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        kProcessStart)
              .count());
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
