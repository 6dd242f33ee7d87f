// Ablation: scrub-rate cost (Sec. VI-C).  ECC Parity relies on periodic
// scrubbing to catch a channel fault before a second channel faults at the
// same relative location; Fig. 18 quantifies the reliability side.  This
// bench quantifies the *cost* side: the performance and energy impact of
// issuing scrub reads at different rates, which is why the paper argues an
// 8-hour window (vanishing overhead) is enough.
//
// Scale note: a real 32 GiB system scrubbed every 8 hours needs ~19 reads
// per millisecond -- noise.  To make the trend measurable inside a short
// simulation we sweep far more aggressive rates and report overhead per
// scrub-read-per-kilocycle, which extrapolates down to the real rates.
#include <cstdio>

#include "bench_common.hpp"

using namespace eccsim;

int main(int argc, char** argv) {
  eccsim::bench::init(argc, argv);
  std::printf("Ablation -- scrub traffic cost (Sec. VI-C)\n\n");
  const auto desc = ecc::make_scheme(ecc::SchemeId::kLotEcc5Parity,
                                     ecc::SystemScale::kQuadEquivalent);
  Table t({"scrub interval (cycles)", "scrub reads/KC", "EPI (pJ/instr)",
           "IPC", "EPI overhead"});
  double base_epi = 0;
  for (std::uint64_t interval : {0ULL, 1024ULL, 256ULL, 64ULL, 16ULL}) {
    sim::SimOptions opts;
    opts.target_instructions = bench::target_instructions();
    opts.scrub_read_interval = interval;
    opts.stats = bench::new_collector(
        "milc", "lotecc5+parity-scrub" + std::to_string(interval));
    sim::SystemSim s(desc, trace::workload_by_name("milc"),
                     sim::CpuConfig{}, opts);
    const auto r = s.run();
    if (interval == 0) base_epi = r.epi_pj;
    t.add_row({interval == 0 ? "off" : std::to_string(interval),
               interval == 0 ? "0" : Table::num(1000.0 / interval, 1),
               Table::num(r.epi_pj, 1), Table::num(r.ipc, 2),
               interval == 0
                   ? "--"
                   : Table::num((r.epi_pj / base_epi - 1) * 100, 1) + "%"});
  }
  bench::emit("ablation_scrub", t);
  std::printf(
      "An 8-hour full-memory scrub corresponds to ~2e-5 reads per\n"
      "kilocycle -- orders of magnitude below the smallest rate above, so\n"
      "its EPI/IPC cost is unmeasurable (the paper's premise in Sec. VI-C).\n");
  return 0;
}
