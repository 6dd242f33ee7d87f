// Timed units of work and the per-layer tallies a traced run collects.
//
// A workload is a list of independent units that the runner's pool takes
// as a closed batch: a worker starts the next unit when its previous one
// finishes.  Untraced, a unit only produces its output (checked against a
// reference and digested).  Traced, it also times the calls it makes into
// each layer's public functions from outside and counts the work done, so
// the per-layer table needs no instrumentation inside src/.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "gate.hpp"

namespace perfbench {

/// Per-layer work counts (exact: they must repeat bit-for-bit) and host
/// seconds spent in each layer's calls.  Summed over units.
struct Layers {
  // trace: SyntheticSource::next over the cell's own stimulus.
  std::uint64_t trace_ops = 0;
  double trace_s = 0;
  // cache: the simulator's own post-warm LLC counts (RunResult.llc), and
  // the host time of a Cache::access replay of the regenerated op stream.
  std::uint64_t cache_probes = 0;  ///< RunResult.llc hits + misses
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_writebacks = 0;
  std::uint64_t cache_replay_ops = 0;
  double cache_s = 0;
  // dram: MemorySystem::enqueue_addr/tick replay of the post-LLC capture.
  std::uint64_t dram_reads = 0;   ///< RunResult.mem.reads
  std::uint64_t dram_writes = 0;  ///< RunResult.mem.writes
  std::uint64_t dram_requests = 0;
  std::uint64_t dram_ticks = 0;
  std::uint64_t dram_enqueue_rejects = 0;
  double dram_s = 0;
  std::uint64_t dram_requests_wr_heavy = 0;
  double dram_s_wr_heavy = 0;
  std::uint64_t dram_requests_rd_heavy = 0;
  double dram_s_rd_heavy = 0;
  // sim: SystemSim::run.
  std::uint64_t sim_mem_cycles = 0;
  std::uint64_t sim_instructions = 0;
  double sim_run_s = 0;
  // ecc: LineCodec encode (detection + correction bits) and correct().
  std::uint64_t ecc_lines = 0;
  double ecc_encode_s = 0;
  std::uint64_t ecc_corrects = 0;
  double ecc_correct_s = 0;
  std::uint64_t rs16_words = 0;
  double rs16_s = 0;
  // eccparity: EccParityManager write_line / read_line / scrub.
  std::uint64_t ep_writes = 0;  ///< ManagerStats.writes
  std::uint64_t ep_timed_writes = 0;
  double ep_write_s = 0;
  std::uint64_t ep_reads = 0;  ///< every read_line, scrub reads included
  std::uint64_t ep_timed_reads = 0;
  double ep_read_s = 0;
  std::uint64_t ep_scrub_lines = 0;
  std::uint64_t ep_reconstructions = 0;
  // faults: Monte Carlo entry points.
  std::uint64_t mc_systems = 0;
  double mc_s = 0;
  // fleet: Coordinator::run.
  std::uint64_t fleet_nodes = 0;
  double fleet_s = 0;

  Layers& operator+=(const Layers& o);
  /// The exact counts, named, for the traced-run identity assertion.
  std::vector<std::pair<std::string, std::uint64_t>> counts() const;
};

/// What one execution of a unit produced.
struct UnitResult {
  Outcome outcome;
  /// Canonical text of the unit's output: compared across passes and
  /// folded into the workload digest.
  std::string output;
  /// Work counts from the unit's own results (simulated instructions, MC
  /// systems, fleet nodes) always; the replays and most timings only when
  /// traced.
  Layers layers;
};

struct Unit {
  std::string name;
  /// `traced` asks for per-layer timing; `scratch` is a file prefix the
  /// unit may write to (post-LLC captures) and must clean up.
  std::function<UnitResult(bool traced, const std::string& scratch)> run;
};

/// Workload definitions.  `seed` orders nothing here (the caller shuffles);
/// it seeds the reliability volume units.  `root` is the checkout root the
/// reference files are read from.
std::vector<Unit> smoke_grid_units(const std::string& root);
std::vector<Unit> bin2_full_units(const std::string& root);
std::vector<Unit> reliability_units(const std::string& root,
                                    std::uint64_t seed);

/// Runs `fn` and converts an escaping exception into a failed outcome.
UnitResult guarded(const std::function<UnitResult()>& fn);

}  // namespace perfbench
