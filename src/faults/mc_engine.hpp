// Chunked Monte Carlo execution engine for the fault-lifetime studies.
//
// Every reliability figure of the paper (Fig. 2 MTBF, Fig. 8 EOL
// correction fraction, Fig. 18 scrub windows, Sec. VI-B HPC stall) is a
// mean over many independently simulated systems.  This engine owns the
// fan-out mechanics so the per-figure code in montecarlo.cpp is pure
// modeling:
//
//   - Systems execute in fixed-size chunks over the shared work-stealing
//     runner::ThreadPool (honoring RUNNER_THREADS).  A Monte Carlo
//     launched from inside a pool worker -- e.g. from a sweep cell --
//     detects the nesting and runs inline instead of oversubscribing.
//   - Each system draws from its own RNG substream derived from
//     (seed, system index), and per-system results are merged on the
//     calling thread in strict index order, so the final statistics are
//     bit-identical at any thread count and any chunk size.
//   - Optional confidence-interval early termination: when a relative-CI
//     callback is supplied and `target_rel_ci` is set, the run stops at
//     the first chunk boundary where the estimate has converged.  The
//     stopping point depends (only) on the chunk size.
//   - Optional chunk-granular checkpointing: completed chunks append to a
//     text file as they merge; a rerun pointed at the same file skips the
//     recorded chunks and reproduces the uninterrupted output exactly.
//   - Optional mc.* observability: systems/chunk counters, chunk timings,
//     and a per-chunk relative-CI series in a stats::Registry.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>

#include "common/rng.hpp"

namespace eccsim::stats {
class Registry;
}

namespace eccsim::faults {

/// Default systems per chunk: coarse enough that pool dispatch is noise,
/// fine enough that early stop and checkpoints have useful granularity.
inline constexpr unsigned kMcDefaultChunkSize = 256;

/// Knobs for one Monte Carlo run.  The zero-initialized default runs the
/// full budget on the shared pool with no checkpointing.
struct McOptions {
  /// Worker threads; 0 = runner::ThreadPool::default_thread_count()
  /// (the RUNNER_THREADS environment variable, else all cores).
  unsigned threads = 0;
  /// Systems per chunk; 0 = kMcDefaultChunkSize.  Results are identical
  /// for any value; only early-stop granularity and checkpoint size vary.
  unsigned chunk_size = 0;
  /// Stop once the estimate's relative 95% CI half-width falls to this
  /// value (checked at chunk boundaries, in chunk order).  0 = run the
  /// whole budget.  Requires the run to supply a rel-CI callback.
  double target_rel_ci = 0.0;
  /// Systems that must merge before early stop may trigger, so a lucky
  /// first chunk cannot truncate the run.
  unsigned min_systems = 1000;
  /// Chunk-granular checkpoint file ("" = no checkpointing).  Several
  /// runs -- even from different binaries -- may share one file; chunks
  /// are matched by a hash of the run tag and sampling parameters.
  std::string checkpoint_path;
  /// Milliseconds to sleep before each chunk (0 = none): lets a
  /// kill-and-resume check interrupt an otherwise fast run.
  unsigned chunk_delay_ms = 0;
  /// Destination for mc.* counters/series (nullptr = no stats).
  stats::Registry* stats = nullptr;
};

/// What one engine run actually executed.
struct McRunInfo {
  std::uint64_t systems_requested = 0;
  std::uint64_t systems_merged = 0;    ///< contributed to the estimate
  std::uint64_t chunks_total = 0;
  std::uint64_t chunks_merged = 0;
  std::uint64_t chunks_loaded = 0;     ///< restored from the checkpoint
  bool early_stopped = false;
  /// Relative CI at the last check; NaN when no rel-CI callback ran.
  double final_rel_ci = std::numeric_limits<double>::quiet_NaN();
};

// --- checkpoint format ------------------------------------------------------
//
// A checkpoint file is a line-oriented text log of completed chunks.  Each
// chunk is one line:
//
//   mcchunk1 <run_id:hex16> <chunk_index> <count> <field:hex16>...
//
// where the fields are the bit patterns of the chunk's count*nfields
// doubles (std::bit_cast, so the round-trip is exact).  Lines starting
// with '#' are comments; malformed or partial lines (a killed writer) are
// skipped on load.  Chunks are matched to a run by `run_id`, a hash of the
// run's tag and every sampling parameter -- see docs/CHECKPOINTS.md for
// the full matching rule.

/// Deterministic per-system generator: cheap to derive for any index
/// (unlike repeated jump()), still statistically independent streams.
Rng mc_system_rng(std::uint64_t seed, unsigned index);

/// Deterministic retention key for system `index`, for
/// QuantileReservoir bottom-k sketches.  Uses a different mixing path
/// than mc_system_rng so retention is uncorrelated with the sample
/// stream.
std::uint64_t mc_sample_key(std::uint64_t seed, unsigned index);

/// Evaluates one system: fills `fields[0..nfields)` from draws on `rng`.
/// Runs on a pool worker; must not touch shared state.
using McSystemFn =
    std::function<void(unsigned index, Rng& rng, double* fields)>;
/// Consumes one system's fields.  Always called on the engine's calling
/// thread, in strict index order -- accumulate freely without locks.
using McMergeFn = std::function<void(unsigned index, const double* fields)>;
/// Current relative 95% CI half-width of the run's primary estimate;
/// polled after each merged chunk.
using McRelCiFn = std::function<double()>;

/// Runs `fn` for systems [0, systems) and feeds every system's fields to
/// `merge` in index order.  `tag` names the run for checkpoint matching
/// and stat series (keep it short, unique per parameter point, and free
/// of whitespace).  `rel_ci` may be null when neither early stop nor the
/// CI series is wanted.
McRunInfo mc_run(unsigned systems, std::uint64_t seed, std::size_t nfields,
                 const std::string& tag, const McOptions& opts,
                 const McSystemFn& fn, const McMergeFn& merge,
                 const McRelCiFn& rel_ci = nullptr);

}  // namespace eccsim::faults
