// Integration tests for the full-system simulator: cross-scheme invariants
// that the paper's evaluation rests on (Sec. V).  These use shortened runs;
// the bench binaries reproduce the full figures.
#include <gtest/gtest.h>

#include "sim/system.hpp"

namespace eccsim::sim {
namespace {

SimOptions quick() {
  SimOptions o;
  o.target_instructions = 400'000;
  o.seed = 3;
  return o;
}

RunResult run(ecc::SchemeId id, const std::string& wl,
              ecc::SystemScale scale = ecc::SystemScale::kQuadEquivalent,
              SimOptions opts = quick()) {
  return run_experiment(id, scale, wl, opts);
}

TEST(SystemSim, CompletesAndCountsInstructions) {
  const RunResult r = run(ecc::SchemeId::kChipkill18, "lbm");
  EXPECT_GE(r.instructions, 400'000u);
  EXPECT_GT(r.mem_cycles, 0u);
  EXPECT_GT(r.ipc, 0.0);
  EXPECT_LE(r.ipc, 16.0);  // 8 cores x width 2
  EXPECT_GT(r.mem.reads + r.mem.writes, 0u);
  EXPECT_GT(r.epi_pj, 0.0);
}

TEST(SystemSim, EnergyPartsSumToTotal) {
  const RunResult r = run(ecc::SchemeId::kLotEcc5Parity, "milc");
  EXPECT_NEAR(r.epi_pj, r.dynamic_epi_pj + r.background_epi_pj,
              r.epi_pj * 1e-9);
}

TEST(SystemSim, EpiOrderingMatchesPaperFig10) {
  // The core energy result (Fig. 10, Bin2): chipkill36 > chipkill18 >
  // LOT-ECC9 > LOT-ECC5(+Parity); and RAIM > RAIM+Parity.
  const RunResult ck36 = run(ecc::SchemeId::kChipkill36, "lbm");
  const RunResult ck18 = run(ecc::SchemeId::kChipkill18, "lbm");
  const RunResult lot9 = run(ecc::SchemeId::kLotEcc9, "lbm");
  const RunResult lot5p = run(ecc::SchemeId::kLotEcc5Parity, "lbm");
  const RunResult raim = run(ecc::SchemeId::kRaim, "lbm");
  const RunResult raimp = run(ecc::SchemeId::kRaimParity, "lbm");
  EXPECT_GT(ck36.epi_pj, ck18.epi_pj);
  EXPECT_GT(ck18.epi_pj, lot9.epi_pj);
  EXPECT_GT(lot9.epi_pj, lot5p.epi_pj);
  EXPECT_GT(raim.epi_pj, raimp.epi_pj);
  // Headline: >40% EPI reduction vs 36-device commercial chipkill for a
  // memory-intensive workload (paper: 59.5% Bin2 average).
  EXPECT_GT(1.0 - lot5p.epi_pj / ck36.epi_pj, 0.40);
}

TEST(SystemSim, ParityCostsLittleVsLotEcc5) {
  // Fig. 10: LOT-ECC5+ECC Parity has EPI similar to LOT-ECC5.
  const RunResult lot5 = run(ecc::SchemeId::kLotEcc5, "lbm");
  const RunResult lot5p = run(ecc::SchemeId::kLotEcc5Parity, "lbm");
  EXPECT_NEAR(lot5p.epi_pj / lot5.epi_pj, 1.0, 0.15);
}

TEST(SystemSim, Bin2SavesMoreThanBin1) {
  // Sec. V-A: EPI reduction is larger for high-bandwidth workloads.
  const double red_bin2 =
      1.0 - run(ecc::SchemeId::kLotEcc5Parity, "lbm").epi_pj /
                run(ecc::SchemeId::kChipkill36, "lbm").epi_pj;
  const double red_bin1 =
      1.0 - run(ecc::SchemeId::kLotEcc5Parity, "sjeng").epi_pj /
                run(ecc::SchemeId::kChipkill36, "sjeng").epi_pj;
  EXPECT_GT(red_bin2, red_bin1);
}

TEST(SystemSim, EccTrafficOnlyForMaintSchemes) {
  const RunResult ck18 = run(ecc::SchemeId::kChipkill18, "milc");
  EXPECT_EQ(ck18.mem.ecc_reads + ck18.mem.ecc_writes, 0u);
  const RunResult lot9 = run(ecc::SchemeId::kLotEcc9, "milc");
  EXPECT_GT(lot9.mem.ecc_writes, 0u);
  EXPECT_EQ(lot9.mem.ecc_reads, 0u);  // LOT-ECC evictions are write-only
  const RunResult lot5p = run(ecc::SchemeId::kLotEcc5Parity, "milc");
  EXPECT_GT(lot5p.mem.ecc_reads, 0u);  // parity updates are RMW
  EXPECT_GE(lot5p.mem.ecc_writes, lot5p.mem.ecc_reads);
}

TEST(SystemSim, DualEquivalentHasHigherParityOverhead) {
  // Sec. V-D: fewer channels -> each XOR line covers fewer data lines ->
  // more parity traffic per instruction.
  const RunResult quad =
      run(ecc::SchemeId::kLotEcc5Parity, "milc",
          ecc::SystemScale::kQuadEquivalent);
  const RunResult dual =
      run(ecc::SchemeId::kLotEcc5Parity, "milc",
          ecc::SystemScale::kDualEquivalent);
  const double quad_ecc =
      static_cast<double>(quad.mem.ecc_reads + quad.mem.ecc_writes) /
      static_cast<double>(quad.instructions);
  const double dual_ecc =
      static_cast<double>(dual.mem.ecc_reads + dual.mem.ecc_writes) /
      static_cast<double>(dual.instructions);
  EXPECT_GT(dual_ecc, quad_ecc);
}

TEST(SystemSim, LargerLineFetchesMoreData) {
  // Fig. 16 context: 128B-line chipkill36 moves more 64B units per
  // instruction than 64B-line schemes on a low-spatial-locality workload.
  const RunResult ck36 = run(ecc::SchemeId::kChipkill36, "mcf");
  const RunResult ck18 = run(ecc::SchemeId::kChipkill18, "mcf");
  EXPECT_GT(ck36.mapi, ck18.mapi);
}

TEST(SystemSim, DeterministicForSeed) {
  const RunResult a = run(ecc::SchemeId::kLotEcc9, "gcc");
  const RunResult b = run(ecc::SchemeId::kLotEcc9, "gcc");
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.mem_cycles, b.mem_cycles);
  EXPECT_DOUBLE_EQ(a.epi_pj, b.epi_pj);
}

TEST(SystemSim, FaultyBankModeAddsEccTraffic) {
  // Degraded mode (steps B/D of Fig. 6): reads/writes to faulty banks
  // touch the materialized ECC lines.
  SimOptions opts = quick();
  const RunResult healthy =
      run(ecc::SchemeId::kLotEcc5Parity, "lbm",
          ecc::SystemScale::kQuadEquivalent, opts);
  // Mark every bank of channel 0 faulty.
  for (std::uint32_t rank = 0; rank < 4; ++rank) {
    for (std::uint32_t bank = 0; bank < 8; ++bank) {
      opts.faulty_banks.push_back((0u << 16) | (rank << 8) | bank);
    }
  }
  const RunResult degraded =
      run(ecc::SchemeId::kLotEcc5Parity, "lbm",
          ecc::SystemScale::kQuadEquivalent, opts);
  EXPECT_GT(degraded.mem.ecc_reads + degraded.mem.ecc_writes,
            healthy.mem.ecc_reads + healthy.mem.ecc_writes);
}

TEST(SystemSim, FaultyBankCellIsPinned) {
  // Degraded-mode reads and evictions decode their address to match it
  // against the faulty-bank list, a path no bench sweep cell takes.  Every
  // field is pinned exactly to the values this configuration produced
  // before the LLC tag store and warm-up path were restructured.
  SimOptions opts = quick();
  opts.target_instructions = 200'000;
  for (std::uint32_t bank = 0; bank < 8; ++bank) {
    opts.faulty_banks.push_back((0u << 16) | (0u << 8) | bank);
  }
  opts.faulty_banks.push_back((1u << 16) | (2u << 8) | 5u);
  const RunResult r = run(ecc::SchemeId::kLotEcc5Parity, "milc",
                          ecc::SystemScale::kQuadEquivalent, opts);
  EXPECT_EQ(r.instructions, 202415u);
  EXPECT_EQ(r.mem_cycles, 13312u);
  EXPECT_EQ(r.mem.reads, 5761u);
  EXPECT_EQ(r.mem.writes, 2525u);
  EXPECT_EQ(r.mem.ecc_reads, 546u);
  EXPECT_EQ(r.mem.ecc_writes, 486u);
  EXPECT_EQ(r.llc.hits, 1635u);
  EXPECT_EQ(r.llc.misses, 5784u);
  EXPECT_EQ(r.llc.writebacks, 2525u);
  // 17 significant digits: each literal round-trips to the exact double.
  EXPECT_EQ(r.ipc, 7.6027268629807692);
  EXPECT_EQ(r.epi_pj, 1737.0724370723451);
  EXPECT_EQ(r.dynamic_epi_pj, 983.21277400390102);
  EXPECT_EQ(r.background_epi_pj, 753.85966306844387);
  EXPECT_EQ(r.mapi, 0.040935701405528248);
  EXPECT_EQ(r.bandwidth_utilization, 0.31122295673076922);
  EXPECT_EQ(r.avg_read_latency, 117.72904009720534);
  EXPECT_EQ(r.mem.energy.activate_pj, 160324778.25);
  EXPECT_EQ(r.mem.energy.read_pj, 26422250.399999671);
  EXPECT_EQ(r.mem.energy.write_pj, 12269984.999999952);
  EXPECT_EQ(r.mem.energy.refresh_pj, 7338240.0);
  EXPECT_EQ(r.mem.energy.background_pj, 145254263.69999906);
}

TEST(SystemSim, BandwidthUtilizationBounded) {
  for (const char* wl : {"lbm", "sjeng"}) {
    const RunResult r = run(ecc::SchemeId::kChipkill18, wl);
    EXPECT_GE(r.bandwidth_utilization, 0.0);
    EXPECT_LE(r.bandwidth_utilization, 1.0);
  }
}

TEST(SystemSim, LowBandwidthWorkloadUsesLessBandwidth) {
  const RunResult heavy = run(ecc::SchemeId::kChipkill18, "lbm");
  const RunResult light = run(ecc::SchemeId::kChipkill18, "sjeng");
  EXPECT_GT(heavy.bandwidth_utilization, light.bandwidth_utilization);
}

TEST(SystemSim, PowerdownDisabledRaisesBackgroundEnergy) {
  SimOptions opts = quick();
  const RunResult on = run(ecc::SchemeId::kLotEcc5Parity, "sjeng",
                           ecc::SystemScale::kQuadEquivalent, opts);
  opts.powerdown_enabled = false;
  const RunResult off = run(ecc::SchemeId::kLotEcc5Parity, "sjeng",
                            ecc::SystemScale::kQuadEquivalent, opts);
  EXPECT_GT(off.background_epi_pj, on.background_epi_pj);
}

TEST(SystemSim, OpenPageShiftsEnergyFromDynamicToBackground) {
  SimOptions opts = quick();
  const RunResult close = run(ecc::SchemeId::kLotEcc5Parity, "lbm",
                              ecc::SystemScale::kQuadEquivalent, opts);
  opts.row_policy = dram::RowPolicy::kOpenPage;
  const RunResult open = run(ecc::SchemeId::kLotEcc5Parity, "lbm",
                             ecc::SystemScale::kQuadEquivalent, opts);
  EXPECT_LE(open.dynamic_epi_pj, close.dynamic_epi_pj * 1.02);
  EXPECT_GT(open.background_epi_pj, close.background_epi_pj);
}

TEST(SystemSim, ScrubInjectionAddsEccReads) {
  SimOptions opts = quick();
  const RunResult without = run(ecc::SchemeId::kChipkill18, "gcc",
                                ecc::SystemScale::kQuadEquivalent, opts);
  opts.scrub_read_interval = 64;
  const RunResult with = run(ecc::SchemeId::kChipkill18, "gcc",
                             ecc::SystemScale::kQuadEquivalent, opts);
  EXPECT_GT(with.mem.ecc_reads, without.mem.ecc_reads);
}

TEST(SystemSim, TinyDedicatedEccCacheInflatesParityTraffic) {
  SimOptions opts = quick();
  const RunResult shared = run(ecc::SchemeId::kLotEcc5Parity, "milc",
                               ecc::SystemScale::kQuadEquivalent, opts);
  opts.dedicated_ecc_cache_bytes = 16 * 1024;
  const RunResult dedicated = run(ecc::SchemeId::kLotEcc5Parity, "milc",
                                  ecc::SystemScale::kQuadEquivalent, opts);
  EXPECT_GT(dedicated.mem.ecc_reads + dedicated.mem.ecc_writes,
            shared.mem.ecc_reads + shared.mem.ecc_writes);
}

TEST(SystemSim, FasterSpeedBinCostsEnergyBuysLatency) {
  SimOptions opts = quick();
  ecc::SchemeDesc base = ecc::make_scheme(ecc::SchemeId::kLotEcc5Parity,
                                          ecc::SystemScale::kQuadEquivalent);
  ecc::SchemeDesc fast = base;
  fast.speed_factor = 1.16;
  SystemSim sb(base, trace::workload_by_name("lbm"), CpuConfig{}, opts);
  SystemSim sf(fast, trace::workload_by_name("lbm"), CpuConfig{}, opts);
  const RunResult rb = sb.run();
  const RunResult rf = sf.run();
  // Sec. V-D's point: the faster bin's energy premium is small (the paper
  // estimates ~5%) compared to the ~45-50% EPI advantage it protects.
  // (Its throughput benefit only materializes when bandwidth-bound; at
  // this short run length IPC is within noise, so we don't assert on it.)
  EXPECT_GT(rf.epi_pj, rb.epi_pj);
  EXPECT_LT(rf.epi_pj, rb.epi_pj * 1.12);
}

}  // namespace
}  // namespace eccsim::sim
