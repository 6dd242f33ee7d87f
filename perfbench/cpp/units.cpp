#include "units.hpp"

#include <exception>

namespace perfbench {

Layers& Layers::operator+=(const Layers& o) {
  trace_ops += o.trace_ops;
  trace_s += o.trace_s;
  cache_probes += o.cache_probes;
  cache_hits += o.cache_hits;
  cache_writebacks += o.cache_writebacks;
  cache_replay_ops += o.cache_replay_ops;
  cache_s += o.cache_s;
  dram_reads += o.dram_reads;
  dram_writes += o.dram_writes;
  dram_requests += o.dram_requests;
  dram_ticks += o.dram_ticks;
  dram_enqueue_rejects += o.dram_enqueue_rejects;
  dram_s += o.dram_s;
  dram_requests_wr_heavy += o.dram_requests_wr_heavy;
  dram_s_wr_heavy += o.dram_s_wr_heavy;
  dram_requests_rd_heavy += o.dram_requests_rd_heavy;
  dram_s_rd_heavy += o.dram_s_rd_heavy;
  sim_mem_cycles += o.sim_mem_cycles;
  sim_instructions += o.sim_instructions;
  sim_run_s += o.sim_run_s;
  ecc_lines += o.ecc_lines;
  ecc_encode_s += o.ecc_encode_s;
  ecc_corrects += o.ecc_corrects;
  ecc_correct_s += o.ecc_correct_s;
  rs16_words += o.rs16_words;
  rs16_s += o.rs16_s;
  ep_writes += o.ep_writes;
  ep_timed_writes += o.ep_timed_writes;
  ep_write_s += o.ep_write_s;
  ep_reads += o.ep_reads;
  ep_timed_reads += o.ep_timed_reads;
  ep_read_s += o.ep_read_s;
  ep_scrub_lines += o.ep_scrub_lines;
  ep_reconstructions += o.ep_reconstructions;
  mc_systems += o.mc_systems;
  mc_s += o.mc_s;
  fleet_nodes += o.fleet_nodes;
  fleet_s += o.fleet_s;
  return *this;
}

std::vector<std::pair<std::string, std::uint64_t>> Layers::counts() const {
  return {{"trace.ops", trace_ops},
          {"cache.probes", cache_probes},
          {"cache.hits", cache_hits},
          {"cache.writebacks", cache_writebacks},
          {"cache.replay_ops", cache_replay_ops},
          {"dram.reads", dram_reads},
          {"dram.writes", dram_writes},
          {"dram.requests", dram_requests},
          {"dram.ticks", dram_ticks},
          {"dram.enqueue_rejects", dram_enqueue_rejects},
          {"sim.mem_cycles", sim_mem_cycles},
          {"sim.instructions", sim_instructions},
          {"ecc.lines", ecc_lines},
          {"ecc.corrects", ecc_corrects},
          {"ecc.rs16_words", rs16_words},
          {"eccparity.writes", ep_writes},
          {"eccparity.reads", ep_reads},
          {"eccparity.scrub_lines", ep_scrub_lines},
          {"eccparity.reconstructions", ep_reconstructions},
          {"faults.systems", mc_systems},
          {"fleet.nodes", fleet_nodes}};
}

UnitResult guarded(const std::function<UnitResult()>& fn) {
  try {
    return fn();
  } catch (const std::exception& e) {
    UnitResult r;
    r.outcome.threw = true;
    r.outcome.detail = std::string("threw: ") + e.what();
    return r;
  } catch (...) {
    UnitResult r;
    r.outcome.threw = true;
    r.outcome.detail = "threw a non-standard exception";
    return r;
  }
}

}  // namespace perfbench
