// smoke_grid and bin2_full: timing-sweep cells, one SystemSim each.
//
// Stimulus is always the canonical trace::paper_sweep_seed stream, so every
// cell is checked field by field against a committed reference row:
// bench_results/sweep_{quad,dual}.csv for the full-fidelity Bin2 cells and
// perfbench/reference/sweep_quad_smoke.csv (the fig10 --smoke cache) for
// the smoke grid.  The bench sweep CSV cache is never consulted.
#include <chrono>
#include <filesystem>
#include <optional>
#include <stdexcept>

#include "cache/cache.hpp"
#include "dram/memory_system.hpp"
#include "ecc/scheme.hpp"
#include "sim/system.hpp"
#include "trace/source.hpp"
#include "trace/workload.hpp"
#include "tracefile/reader.hpp"
#include "units.hpp"

namespace perfbench {

using namespace eccsim;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Write-share classes for the DRAM per-request split: Bin2's write-heavy
/// (lbm, GemsFDTD, leslie3d) and read-heavy (canneal, streamcluster)
/// workloads.
bool write_heavy(const trace::WorkloadDesc& w) {
  return w.write_fraction >= 0.40;
}
bool read_heavy(const trace::WorkloadDesc& w) {
  return w.write_fraction <= 0.15;
}

/// Regenerates the cell's stimulus the way SystemSim::run consumes it:
/// the interleaved LLC warm-up, then round-robin ops until the measured
/// phase's committed instruction count is covered (gap + the op itself).
std::vector<trace::MemOp> replay_trace(const trace::WorkloadDesc& wl,
                                       unsigned cores, std::uint64_t seed,
                                       std::uint64_t instructions,
                                       Layers& layers) {
  const cache::CacheConfig llc;
  const std::uint64_t warm_per_core =
      3 * (llc.size_bytes / llc.line_bytes) / cores;
  std::vector<trace::MemOp> ops;
  ops.reserve(warm_per_core * cores + instructions / 8);
  const auto t0 = Clock::now();
  trace::SyntheticSource src(wl, cores, seed);
  for (std::uint64_t i = 0; i < warm_per_core; ++i) {
    for (unsigned c = 0; c < cores; ++c) ops.push_back(src.next(c));
  }
  std::uint64_t covered = 0;
  while (covered < instructions) {
    for (unsigned c = 0; c < cores; ++c) {
      ops.push_back(src.next(c));
      covered += ops.back().gap + 1ULL;
    }
  }
  layers.trace_s += seconds_since(t0);
  layers.trace_ops += ops.size();
  return ops;
}

/// Times Cache::access over the regenerated data-line stream.  Only the
/// time is kept: the replay has no ECC or parity lines and no stall-driven
/// ordering, so the LLC counts come from the simulator's RunResult.llc.
void replay_cache(const std::vector<trace::MemOp>& ops, Layers& layers) {
  const auto t0 = Clock::now();
  cache::Cache llc(cache::CacheConfig{});
  for (const auto& op : ops) llc.access(op.line, op.is_write);
  layers.cache_s += seconds_since(t0);
  layers.cache_replay_ops += ops.size();
}

/// Replays the post-LLC request stream into a fresh memory system
/// configured the way SystemSim configures it from the cell's options:
/// each request is offered at its recorded cycle and retried one tick
/// later while the channel queue is full.
void replay_dram(const ecc::SchemeDesc& desc, const sim::SimOptions& opts,
                 const std::string& capture, const trace::WorkloadDesc& wl,
                 Layers& layers) {
  std::vector<tracefile::PostOp> reqs;
  {
    tracefile::TraceReader reader(capture);
    tracefile::PostOp rec;
    while (reader.next(rec)) reqs.push_back(rec);
  }
  const auto t0 = Clock::now();
  dram::MemSystemConfig cfg = desc.mem_config(*opts.dram_gen);
  cfg.powerdown_enabled = opts.powerdown_enabled;
  cfg.row_policy = opts.row_policy;
  dram::MemorySystem mem(cfg);
  auto tick = [&mem] {
    mem.tick();
    mem.completions().clear();
  };
  std::uint64_t rejects = 0;
  std::uint64_t id = 1;
  for (const auto& r : reqs) {
    while (mem.cycle() < r.cycle) tick();
    while (!mem.enqueue_addr(r.addr, r.is_write, r.line_class, id)) {
      ++rejects;
      tick();
    }
    ++id;
  }
  const std::uint64_t drain_limit = mem.cycle() + 10'000'000;
  while (mem.outstanding() > 0) {
    if (mem.cycle() >= drain_limit) {
      throw std::runtime_error("dram replay did not drain");
    }
    tick();
  }
  const double busy = seconds_since(t0);
  layers.dram_s += busy;
  layers.dram_requests += reqs.size();
  layers.dram_ticks += mem.cycle();
  layers.dram_enqueue_rejects += rejects;
  if (write_heavy(wl)) {
    layers.dram_s_wr_heavy += busy;
    layers.dram_requests_wr_heavy += reqs.size();
  } else if (read_heavy(wl)) {
    layers.dram_s_rd_heavy += busy;
    layers.dram_requests_rd_heavy += reqs.size();
  }
}

struct CellSpec {
  ecc::SchemeId scheme;
  ecc::SystemScale scale;
  std::size_t workload_index;
  std::uint64_t target_instructions;
};

std::string scale_name(ecc::SystemScale s) {
  return s == ecc::SystemScale::kQuadEquivalent ? "quad" : "dual";
}

UnitResult run_cell(const CellSpec& spec, const std::string* reference,
                    bool traced, const std::string& scratch) {
  const trace::WorkloadDesc& wl =
      trace::paper_workloads()[spec.workload_index];
  const std::uint64_t seed = trace::paper_sweep_seed(spec.workload_index);
  const ecc::SchemeDesc desc = ecc::make_scheme(spec.scheme, spec.scale);
  sim::SimOptions opts;
  opts.target_instructions = spec.target_instructions;
  opts.seed = seed;
  opts.dram_gen = dram::Generation::kDdr3;
  const std::string capture = scratch + ".ecctrace";
  if (traced) {
    opts.trace_out = capture;
    opts.trace_point = tracefile::CapturePoint::kPostLlc;
  }

  UnitResult out;
  sim::SystemSim simulator(desc, wl, sim::CpuConfig{}, opts);
  const auto t0 = Clock::now();
  const sim::RunResult r = simulator.run();
  const double run_s = seconds_since(t0);

  out.output = sweep_row(r);
  out.layers.sim_instructions = r.instructions;
  out.outcome = check_cell(r, opts.target_instructions, reference);

  if (traced) {
    Layers& l = out.layers;
    l.sim_run_s = run_s;
    l.sim_mem_cycles = r.mem_cycles;
    l.cache_probes = r.llc.hits + r.llc.misses;
    l.cache_hits = r.llc.hits;
    l.cache_writebacks = r.llc.writebacks;
    l.dram_reads = r.mem.reads;
    l.dram_writes = r.mem.writes;
    const auto ops = replay_trace(wl, sim::CpuConfig{}.cores, seed,
                                  r.instructions, l);
    replay_cache(ops, l);
    replay_dram(desc, opts, capture, wl, l);
    std::filesystem::remove(capture);
  }
  return out;
}

/// `refs` maps "scale/scheme/workload" (the unit name) to its reference row.
std::vector<Unit> make_units(const std::vector<CellSpec>& specs,
                             const std::map<std::string, std::string>& refs) {
  std::vector<Unit> units;
  units.reserve(specs.size());
  for (const CellSpec& spec : specs) {
    Unit u;
    u.name = scale_name(spec.scale) + "/" + ecc::to_string(spec.scheme) +
             "/" + trace::paper_workloads()[spec.workload_index].name;
    const auto it = refs.find(u.name);
    std::optional<std::string> ref;
    if (it != refs.end()) ref = it->second;
    u.run = [spec, ref](bool traced, const std::string& scratch) {
      return guarded([&] {
        return run_cell(spec, ref ? &*ref : nullptr, traced, scratch);
      });
    };
    units.push_back(std::move(u));
  }
  return units;
}

/// Adds a sweep CSV's rows under "scale/scheme/workload".
void add_refs(std::map<std::string, std::string>& into,
              const std::string& scale, const std::string& path) {
  for (auto& [k, v] : load_sweep_reference(path)) {
    into[scale + "/" + k] = std::move(v);
  }
}

}  // namespace

std::vector<Unit> smoke_grid_units(const std::string& root) {
  // The fig10 quad grid at --smoke fidelity: the cell set benchtool's
  // smoke_sweep history records (16 workloads x 8 schemes, 50k
  // instructions), in the sweep's workload-major order.
  std::map<std::string, std::string> refs;
  add_refs(refs, "quad", root + "/perfbench/reference/sweep_quad_smoke.csv");
  std::vector<CellSpec> specs;
  for (std::size_t wi = 0; wi < trace::paper_workloads().size(); ++wi) {
    for (const auto id : ecc::all_schemes()) {
      specs.push_back({id, ecc::SystemScale::kQuadEquivalent, wi, 50'000});
    }
  }
  return make_units(specs, refs);
}

std::vector<Unit> bin2_full_units(const std::string& root) {
  std::map<std::string, std::string> refs;
  add_refs(refs, "quad", root + "/bench_results/sweep_quad.csv");
  add_refs(refs, "dual", root + "/bench_results/sweep_dual.csv");
  // Dual cells first: they are the longest (0.19-0.75 s against the quad
  // cells' 0.09-0.29 s), so the pass ends on short quad cells.
  std::vector<CellSpec> specs;
  for (const auto scale : {ecc::SystemScale::kDualEquivalent,
                           ecc::SystemScale::kQuadEquivalent}) {
    for (std::size_t wi = 0; wi < trace::paper_workloads().size(); ++wi) {
      if (trace::paper_workloads()[wi].bin != 2) continue;
      for (const auto id : ecc::all_schemes()) {
        specs.push_back({id, scale, wi, 1'000'000});
      }
    }
  }
  return make_units(specs, refs);
}

}  // namespace perfbench
