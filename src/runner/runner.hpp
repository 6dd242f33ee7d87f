// Parallel experiment runner (the fan-out-and-aggregate layer).
//
// Every evaluation figure in the paper is a grid of independent cells --
// one `sim::SystemSim` per (workload x ECC scheme) point -- that the bench
// binaries used to execute serially.  This runner fans the cells out over
// a work-stealing thread pool and collects results *by submission index*,
// so the output vector is bit-identical whatever the thread count: each
// cell owns its simulator, its workload generators, and (via
// `substream_seed`) its own deterministic RNG substream, and nothing is
// shared between cells but the result slots.
//
// The runner also standardizes observability: `Report` carries per-cell
// wall-clock plus the fan-out wall-clock (their ratio is the realized
// speedup), and the `to_json` / `write_json` helpers emit the
// machine-readable `results/<name>.json` files described in
// docs/REPRODUCING.md.  Run provenance (git SHA, threads, start time) is
// the run manifest's job (src/obs), not the runner's.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runner/json.hpp"
#include "sim/system.hpp"

namespace eccsim::runner {

/// One independent experiment: a label pair plus the closure that runs it.
/// The closure must be self-contained (capture everything by value) --
/// cells execute concurrently in arbitrary order.
struct Cell {
  std::string scheme;    ///< ECC scheme label (or ablation knob value)
  std::string workload;  ///< workload label
  std::function<sim::RunResult()> work;
};

/// A finished cell: the simulator's metrics plus how long it took.
struct CellResult {
  sim::RunResult result;
  double wall_seconds = 0;
};

/// Everything one fan-out produced, in submission order.
struct Report {
  std::vector<CellResult> cells;
  unsigned threads = 1;      ///< pool size used
  double wall_seconds = 0;   ///< fan-out wall-clock (submit to last finish)
  double cell_seconds = 0;   ///< sum of per-cell wall-clock (serial cost)

  /// Realized parallel speedup: serial-equivalent time over wall time.
  double speedup() const {
    return wall_seconds > 0 ? cell_seconds / wall_seconds : 1.0;
  }
};

/// Fan-out knobs.
struct RunOptions {
  /// Pool size; 0 means ThreadPool::default_thread_count() (i.e. the
  /// RUNNER_THREADS environment variable or the hardware concurrency).
  unsigned threads = 0;
  /// Called after each cell completes (from the completing worker thread,
  /// serialized by the runner): (cells done, cells total, finished cell).
  std::function<void(std::size_t, std::size_t, const Cell&)> progress;
};

/// Runs every cell and returns their results in submission order.
/// Deterministic: the thread count and scheduling interleaving cannot
/// affect any result, only the timing fields.
Report run_cells(const std::vector<Cell>& cells,
                 const RunOptions& opts = RunOptions{});

/// Derives a statistically independent 64-bit seed for substream `stream`
/// of `root_seed` (SplitMix64 fan-out).  Cells that must observe the same
/// stimulus -- e.g. every ECC scheme evaluated on one workload -- should
/// share a stream index; unrelated cells should not.
std::uint64_t substream_seed(std::uint64_t root_seed, std::uint64_t stream);

// --- JSON encoding ---------------------------------------------------------

/// Full per-cell metrics: identity, performance (IPC), energy breakdown
/// (EPI split into dynamic/background, per-component pJ), traffic (MAPI,
/// bandwidth, data/ECC read+write counters), and wall-clock.
Json to_json(const CellResult& cell);
/// The whole fan-out: cell array plus thread/timing summary.
Json to_json(const Report& report);

/// Writes `doc` (pretty-printed, trailing newline) to `path`, creating
/// parent directories; returns false on I/O failure.
bool write_json(const std::string& path, const Json& doc);

}  // namespace eccsim::runner
