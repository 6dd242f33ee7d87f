// Shared infrastructure for the figure/table reproducers.
//
// Figures 9-17 all consume the same sweep: every workload x every scheme at
// one system scale.  The sweep's cells are independent, so they fan out
// over the work-stealing runner (src/runner) -- thread count comes from
// RUNNER_THREADS (default: all cores) and results are bit-identical at any
// thread count because every cell owns its simulator and draws its
// workload stimulus from a per-workload RNG substream of the root seed.
//
// The sweep is lazily computed and cached as CSV under bench_results/, so
// the first figure binary pays the simulation cost and the rest load
// instantly.  Delete bench_results/ (or set ECCSIM_SWEEP_CACHE=0) to force
// re-simulation.  Fidelity knobs:
//   ECCSIM_QUICK=1  fast, lower-fidelity pass (200k instructions/cell)
//   ECCSIM_SMOKE=1  CI-sized pass (50k instructions/cell); outputs are
//                   redirected to bench_results/smoke/ and results/smoke/
//                   so they never clobber the committed full-fidelity CSVs
//
// Besides the stdout table and bench_results/<name>.csv, every emit() also
// writes machine-readable results/<name>.json (table + run metadata), and
// each freshly simulated sweep writes results/sweep_<scale>.json with
// per-cell metrics, timings, and the realized parallel speedup.  Every run
// additionally writes results/<bench>.manifest.json (git SHA, DRAM
// generation, host, GF-kernel provenance, timings, exit status and, with
// --stats, the scope profile; docs/OBSERVABILITY.md), and --stats adds
// results/<bench>.stats.json.
#pragma once

#include <string>
#include <vector>

#include "common/table.hpp"
#include "dram/spec.hpp"
#include "ecc/scheme.hpp"
#include "faults/mc_engine.hpp"
#include "runner/runner.hpp"
#include "sim/system.hpp"
#include "trace/workload.hpp"

namespace eccsim::bench {

/// Parses the standard bench flags and installs the end-of-run profile
/// report (wall-clock + peak RSS on stderr; scripts/run_all.sh parses it).
/// Flags:
///   --stats           enable the observability layer (= ECCSIM_STATS=1):
///                     per-cell stat registries, epoch time series, a
///                     results/<bench>.stats.json dump, a summary table,
///                     and the scope profile in the run manifest
///   --stats-epoch=N   epoch length in memory cycles (implies --stats)
///   --trace=DIR       Chrome trace-event files, one per sweep cell, in DIR
///                     (loadable in Perfetto / chrome://tracing)
///   --smoke / --quick CI-sized / reduced fidelity (= ECCSIM_SMOKE/QUICK=1)
///   --dram G          DRAM generation: ddr3 (default), ddr4, or ddr5
///                     (= ECCSIM_DRAM).  Non-DDR3 runs write their sweep
///                     cache and outputs under generation-suffixed paths so
///                     the committed DDR3 CSVs are never clobbered.
///   --mc-systems N       Monte Carlo system budget override
///   --mc-chunk N         MC systems per chunk (results identical for any)
///   --mc-target-rel-ci X stop MC runs once the relative 95% CI reaches X
///   --mc-checkpoint F    chunk-granular MC checkpoint/resume file
///   --list-workloads  print the 16 paper workloads and exit
///   --trace-in DIR    replay sweep stimulus from DIR's .ecctrace files
///                     (= ECCSIM_TRACE_IN; bypasses the sweep CSV cache)
///   --trace-out DIR   record each cell's stimulus to
///                     DIR/<workload>_<scheme>.ecctrace (= ECCSIM_TRACE_OUT)
///   --trace-point P   'pre' (replayable per-core stream, default) or
///                     'post' (DRAM request stream) (= ECCSIM_TRACE_POINT)
///   --status FILE     publish live progress snapshots to FILE as atomically
///                     replaced JSON (= ECCSIM_STATUS; see src/obs and
///                     `benchtool watch`)
///   --progress        live stderr progress line with throughput/ETA/rel-CI
///                     (= ECCSIM_PROGRESS=1)
/// Valued flags accept both `--flag value` and `--flag=value` and map to
/// their ECCSIM_* environment equivalents.  Call first in main(); unknown
/// flags exit with code 2 and point at --help, which documents every flag
/// and environment variable.
void init(int argc, char** argv);

/// Monte Carlo engine knobs assembled from the --mc-* flags (or their
/// ECCSIM_MC_* environment equivalents).  With --stats, the returned
/// options carry a registry so the engine's mc.* counters and rel-CI
/// series land in results/<bench>.stats.json.
faults::McOptions mc_options();

/// Monte Carlo system budget: `full` scaled down by --quick / --smoke
/// (1/5 and 1/20, floor 200), or the --mc-systems override verbatim.
unsigned mc_systems(unsigned full);

/// Basename of the running binary ("bench" before init()).
const std::string& bench_name();

/// DRAM generation selected by --dram / ECCSIM_DRAM (DDR3 when unset).
/// Exits with code 2 on an unrecognized ECCSIM_DRAM value so scripts fail
/// loudly instead of silently benchmarking the wrong generation.
dram::Generation dram_generation();

/// Per-run stats collector for benches that build SystemSims directly
/// (the standard sweep() wires its own): nullptr when stats are off, so
/// callers can assign the result to SimOptions::stats unconditionally.
/// Owned by bench_common; everything handed out here is merged into
/// results/<bench>.stats.json (and its trace flushed) when the process
/// exits.  `workload`/`scheme` label the cell and name its trace file.
stats::Collector* new_collector(const std::string& workload,
                                const std::string& scheme);

/// Instructions per run (ECCSIM_QUICK / ECCSIM_SMOKE shrink it).
std::uint64_t target_instructions();

/// All (workload x scheme) results at one scale, cached on disk.
const std::vector<sim::RunResult>& sweep(ecc::SystemScale scale);

/// Finds one run in a sweep; throws if missing.
const sim::RunResult& find(const std::vector<sim::RunResult>& rows,
                           const std::string& scheme,
                           const std::string& workload);

/// Bin (1 or 2) of a workload, per Fig. 9's classification.
int bin_of(const std::string& workload);

/// Percent reduction of `ours` relative to `baseline` ((1 - ours/base)*100).
double reduction_pct(double baseline, double ours);

/// Prints the table, saves CSV under bench_results/<name>.csv, and saves
/// JSON (table cells + run metadata + elapsed wall-clock) under
/// results/<name>.json.  In smoke mode both land in .../smoke/ instead.
void emit(const std::string& name, const Table& table);

/// Workload names in presentation order (Bin1 first, then Bin2).
std::vector<std::string> workload_order();

/// Fans custom cells out over the runner with the standard stderr progress
/// line.  For ablations that sweep knobs other than (workload x scheme);
/// the standard sweep() already uses it internally.
runner::Report run_cells(const std::string& label,
                         const std::vector<runner::Cell>& cells);

}  // namespace eccsim::bench
