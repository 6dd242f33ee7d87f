// Ablation: where to cache the ECC/XOR lines (Sec. IV-C).  Multi-ECC [13]
// used a dedicated 128 KB ECC cache; the paper's methodology caches
// ECC-related lines in the 8 MB LLC alongside data ("identical to [13]
// with the exception that we cache the ECC correction bits in the 8MB LLC
// instead of a much smaller but dedicated 128KB ECC cache").  This bench
// quantifies the difference: XOR-cacheline hit rates, parity-update
// traffic, and EPI for LLC-shared vs dedicated caches of several sizes.
#include <cstdio>

#include "bench_common.hpp"

using namespace eccsim;

int main(int argc, char** argv) {
  eccsim::bench::init(argc, argv);
  std::printf("Ablation -- ECC-line cache placement (Sec. IV-C)\n\n");
  const auto desc = ecc::make_scheme(ecc::SchemeId::kLotEcc5Parity,
                                     ecc::SystemScale::kQuadEquivalent);
  Table t({"ECC cache", "EPI (pJ/instr)", "parity traffic/KI", "MAPI"});
  struct Cfg {
    const char* label;
    std::uint64_t bytes;
  };
  const Cfg cfgs[] = {
      {"shared 8MB LLC (paper)", 0},
      {"dedicated 512KB", 512ULL * 1024},
      {"dedicated 128KB ([13])", 128ULL * 1024},
      {"dedicated 32KB", 32ULL * 1024},
  };
  for (const Cfg& cfg : cfgs) {
    sim::SimOptions opts;
    opts.target_instructions = bench::target_instructions();
    opts.dedicated_ecc_cache_bytes = cfg.bytes;
    opts.stats = bench::new_collector(
        "milc", "lotecc5+parity-ecc" + std::to_string(cfg.bytes));
    sim::SystemSim s(desc, trace::workload_by_name("milc"),
                     sim::CpuConfig{}, opts);
    const auto r = s.run();
    const double ki = static_cast<double>(r.instructions) / 1000.0;
    t.add_row({cfg.label, Table::num(r.epi_pj, 1),
               Table::num(static_cast<double>(r.mem.ecc_reads +
                                              r.mem.ecc_writes) /
                              ki,
                          2),
               Table::num(r.mapi, 4)});
  }
  bench::emit("ablation_ecc_cache", t);
  std::printf(
      "Smaller dedicated caches evict XOR lines sooner, inflating parity\n"
      "read-modify-write traffic -- the reason the paper co-locates ECC\n"
      "lines in the big LLC.  (A dedicated cache does free LLC data\n"
      "capacity, which can offset part of the loss on cache-tight\n"
      "workloads.)\n");
  return 0;
}
