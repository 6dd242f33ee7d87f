// Shared infrastructure for the figure/table reproducers.
//
// Figures 9-17 all consume the same sweep: every workload x every scheme at
// one system scale, fanned out over the runner (src/runner).  Results are
// bit-identical at any RUNNER_THREADS because every cell owns its
// simulator and draws its stimulus from a per-workload RNG substream.  The
// sweep is cached as CSV under bench_results/ (ECCSIM_SWEEP_CACHE=0
// re-simulates).  Quick fidelity runs 200k instructions per cell, smoke
// fidelity 50k with outputs under bench_results/smoke/ and results/smoke/
// so they never clobber the committed full-fidelity CSVs.
//
// Every emit() writes the stdout table, bench_results/<name>.csv and
// results/<name>.json; a fresh sweep writes results/sweep_<scale>.json
// (per-cell metrics and the realized speedup).  The run's provenance --
// git SHA, threads, start time, fidelity, DRAM generation, GF kernel,
// exit status -- is results/<bench>.manifest.json (docs/OBSERVABILITY.md);
// a stats run adds results/<bench>.stats.json.
#pragma once

#include <string>
#include <vector>

#include "common/table.hpp"
#include "dram/spec.hpp"
#include "ecc/scheme.hpp"
#include "faults/mc_engine.hpp"
#include "sim/system.hpp"
#include "trace/workload.hpp"

namespace eccsim::bench {

/// Parses the bench flags into their ECCSIM_* / STATS_* environment
/// variables and installs the end-of-run profile report (wall-clock +
/// peak RSS on stderr; scripts/run_all.sh parses it).  The flags are one
/// table in bench_common.cpp, which --help prints.  Call first in main();
/// an unknown flag exits with code 2 and points at --help.
void init(int argc, char** argv);

/// Monte Carlo engine knobs assembled from the ECCSIM_MC_* variables
/// (which the MC flags set).  In a stats run, the returned
/// options carry a registry so the engine's mc.* counters and rel-CI
/// series land in results/<bench>.stats.json.
faults::McOptions mc_options();

/// Monte Carlo system budget: `full` scaled down by quick / smoke
/// fidelity (1/5 and 1/20, floor 200), or the ECCSIM_MC_SYSTEMS override
/// verbatim.
unsigned mc_systems(unsigned full);

/// DRAM generation selected by ECCSIM_DRAM (DDR3 when unset).
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
/// JSON (table cells + elapsed wall-clock) under
/// results/<name>.json.  In smoke mode both land in .../smoke/ instead.
void emit(const std::string& name, const Table& table);

/// Workload names in presentation order (Bin1 first, then Bin2).
std::vector<std::string> workload_order();

}  // namespace eccsim::bench
