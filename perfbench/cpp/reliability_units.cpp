// reliability: the fault-side calls behind Figs. 2, 8 and 18 and
// Secs. VI-B and VI-D, plus volume drawn from the run's seed.
//
// Reference units rebuild each committed table exactly as its bench does
// (same seeds, system budgets and formatting) and compare the CSV text
// byte for byte with bench_results/<name>.csv.  Volume units -- extra
// Monte Carlo seeds, codec round trips, FaultInjector campaigns on an
// EccParityManager and an in-process fleet run -- have no committed
// reference; their outputs are checked for internal correctness (codec
// round trips, no miscorrected line, parity invariant, fleet shard-count
// identity), repeated across passes and folded into the digest.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "dram/spec.hpp"
#include "ecc/codec.hpp"
#include "eccparity/manager.hpp"
#include "faults/injector.hpp"
#include "faults/montecarlo.hpp"
#include "fleet/coordinator.hpp"
#include "fleet/spec.hpp"
#include "gf/rs.hpp"
#include "runner/json.hpp"
#include "units.hpp"

namespace perfbench {

using namespace eccsim;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string g17(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Times one Monte Carlo entry point and tallies its systems.  The engine
/// runs inline on the calling runner worker (it detects the nesting), so
/// its default options are the benchmark's.
template <typename Fn>
auto timed_mc(UnitResult& out, Fn&& fn) {
  const auto t0 = Clock::now();
  auto res = fn();
  out.layers.mc_s += seconds_since(t0);
  out.layers.mc_systems += res.mc.systems_merged;
  return res;
}

/// Compares a rebuilt table with its committed CSV.
void check_table(UnitResult& out, const Table& t, const std::string& root,
                 const std::string& name) {
  const std::string csv = t.csv();
  out.output = csv + out.output;
  const std::string path = root + "/bench_results/" + name + ".csv";
  if (read_file(path) != csv) {
    out.outcome.mismatch = true;
    out.outcome.detail = "differs from bench_results/" + name + ".csv";
  }
}

// --- reference tables (bench/<name>.cpp at DDR3, full fidelity) ----------

UnitResult fig02(const std::string& root) {
  UnitResult out;
  const dram::DramSpec device =
      dram::spec_for(dram::Generation::kDdr3, dram::DeviceWidth::kX8);
  faults::SystemShape shape;
  shape.banks_per_rank = device.banks;
  Table t({"FIT/chip", "analytic MTBF (days)", "simulated (days)",
           "gaps observed"});
  for (double fit : {10.0, 25.0, 44.0, 60.0, 80.0, 100.0}) {
    const auto rates = faults::on_die_ecc_filter(
        faults::ddr3_vendor_average().scaled_to(fit),
        device.on_die_ecc.bit_fault_coverage);
    const auto res = timed_mc(out, [&] {
      return faults::mtbf_between_channels(
          shape, rates, 200, 400 * units::kHoursPerYear, 2014);
    });
    t.add_row({Table::num(fit, 0), Table::num(res.analytic_hours / 24.0, 0),
               res.has_data() ? Table::num(res.simulated_hours / 24.0, 0)
                              : std::string("n/a"),
               std::to_string(res.gaps_observed)});
  }
  check_table(out, t, root, "fig02_mtbf_channels");
  return out;
}

UnitResult fig08(const std::string& root) {
  UnitResult out;
  const double life = 7 * units::kHoursPerYear;
  const auto rates = faults::ddr3_vendor_average();
  Table t({"channels", "avg fraction", "99.9th pct", "systems w/ faulty pair"});
  for (unsigned channels : {2u, 4u, 6u, 8u, 12u, 16u}) {
    faults::SystemShape shape;
    shape.channels = channels;
    const auto res = timed_mc(out, [&] {
      return faults::eol_materialized_fraction(shape, rates, 20'000, life,
                                               88);
    });
    t.add_row({std::to_string(channels), Table::pct(res.mean_fraction, 3),
               Table::pct(res.p999_fraction, 2),
               Table::pct(res.systems_with_any, 1)});
  }
  check_table(out, t, root, "fig08_eol_correction_fraction");
  return out;
}

UnitResult fig18(const std::string& root) {
  UnitResult out;
  faults::SystemShape shape;
  const double life = 7 * units::kHoursPerYear;
  Table t({"scrub window", "25 FIT", "44 FIT", "100 FIT"});
  for (double w : {0.5, 1.0, 2.0, 4.0, 8.0, 24.0, 72.0, 168.0}) {
    std::vector<std::string> row;
    row.push_back(w < 1.5 ? Table::num(w, 1) + " h" : Table::num(w, 0) + " h");
    for (double fit : {25.0, 44.0, 100.0}) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.2e",
                    faults::analytic_multichannel_window_probability(
                        shape, fit, w, life));
      row.push_back(buf);
    }
    t.add_row(row);
  }
  // The figure's Monte Carlo cross-check is printed, not stored; it joins
  // the digest.
  const auto mc = timed_mc(out, [&] {
    return faults::multichannel_window_probability(
        shape, faults::ddr3_vendor_average().scaled_to(100.0), 24.0 * 30,
        life, 30'000, 7);
  });
  out.output = "mc " + g17(mc.simulated_probability) + " " +
               std::to_string(mc.bad_systems) + "\n";
  check_table(out, t, root, "fig18_scrub_window");
  return out;
}

UnitResult sec6b(const std::string& root) {
  UnitResult out;
  const auto rates = faults::ddr3_vendor_average();
  Table t({"total memory", "node memory", "NIC BW", "stall fraction",
           "simulated"});
  struct Cfg {
    double total_pb, node_gb, nic_gbs;
  };
  for (const Cfg& c : {Cfg{2.0, 128, 1}, Cfg{2.0, 128, 10}, Cfg{2.0, 64, 1},
                       Cfg{10.0, 128, 1}}) {
    faults::HpcStallParams p;
    p.total_memory_bytes = c.total_pb * 1024 * 1024 * 1024 * 1024 * 1024;
    p.node_memory_bytes = c.node_gb * 1024 * 1024 * 1024;
    p.nic_bandwidth_bytes_per_s = c.nic_gbs * 1024 * 1024 * 1024;
    const auto res = timed_mc(out, [&] {
      return faults::hpc_stall_fraction_mc(p, rates, 2'000, 1977);
    });
    t.add_row({Table::num(c.total_pb, 0) + " PB",
               Table::num(c.node_gb, 0) + " GB",
               Table::num(c.nic_gbs, 0) + " GB/s",
               Table::pct(res.analytic_fraction, 2),
               Table::pct(res.simulated_fraction, 2)});
  }
  check_table(out, t, root, "sec6b_hpc_stall");
  return out;
}

UnitResult sec6d(const std::string& root) {
  UnitResult out;
  Rng rng(2014);
  gf::Rs16 detector(9, 8);
  const unsigned trials = 2'000'000;
  unsigned undetected = 0;
  const auto t0 = Clock::now();
  for (unsigned i = 0; i < trials; ++i) {
    std::vector<std::uint16_t> data(8);
    for (auto& d : data) d = static_cast<std::uint16_t>(rng.next_below(65536));
    auto cw = detector.encode(data);
    const unsigned chip = static_cast<unsigned>(rng.next_below(4));
    cw[1 + 2 * chip] ^= static_cast<std::uint16_t>(1 + rng.next_below(65535));
    cw[1 + 2 * chip + 1] ^=
        static_cast<std::uint16_t>(1 + rng.next_below(65535));
    if (detector.check(cw)) ++undetected;
  }
  out.layers.rs16_s += seconds_since(t0);
  out.layers.rs16_words += trials;
  const double escape = static_cast<double>(undetected) / trials;

  faults::SystemShape shape;
  const auto rates = faults::ddr3_vendor_average();
  const double faults_per_hour = rates.total() * 1e-9 * shape.total_chips();
  const unsigned threshold = 4;
  const double escape_used = escape > 0 ? escape : 1.0 / 65536.0;
  const double years_per_undetected =
      1.0 / (faults_per_hour * threshold * escape_used * units::kHoursPerYear);
  Table t({"quantity", "value", "paper"});
  t.add_row({"fault events before pair marked", std::to_string(threshold),
             "4"});
  t.add_row({"escape probability per event",
             Table::num(escape_used * 65536, 2) + " x 2^-16", "~2^-16"});
  t.add_row({"years per undetected error",
             Table::num(years_per_undetected, 0), "~300,000"});
  t.add_row({"target (Bossen)", "1,000 years", "1,000 years"});
  check_table(out, t, root, "sec6d_undetected");
  return out;
}

// --- volume units (seeded) ------------------------------------------------

/// One extra Monte Carlo study at a seed drawn from the run's seed; the
/// kind cycles through the four entry points.  The study's size depends
/// only on `kind`, so every seed does the same amount of work.
UnitResult mc_volume(unsigned kind, std::uint64_t seed) {
  UnitResult out;
  const double life = 7 * units::kHoursPerYear;
  const auto rates = faults::ddr3_vendor_average();
  faults::SystemShape shape;
  std::ostringstream os;
  switch (kind % 4) {
    case 0: {
      shape.channels = 4u << (kind / 4 % 3);
      const auto r = timed_mc(out, [&] {
        return faults::eol_materialized_fraction(shape, rates, 20'000, life,
                                                 seed);
      });
      os << "eol " << g17(r.mean_fraction) << ' ' << g17(r.p999_fraction)
         << ' ' << g17(r.systems_with_any);
      break;
    }
    case 1: {
      const auto r = timed_mc(out, [&] {
        return faults::mtbf_between_channels(
            shape, rates.scaled_to(44.0), 400, 400 * units::kHoursPerYear,
            seed);
      });
      os << "mtbf " << g17(r.simulated_hours) << ' ' << r.gaps_observed;
      break;
    }
    case 2: {
      const auto r = timed_mc(out, [&] {
        return faults::multichannel_window_probability(
            shape, rates.scaled_to(100.0), 720.0, life, 30'000, seed);
      });
      os << "window " << g17(r.simulated_probability) << ' ' << r.bad_systems;
      break;
    }
    default: {
      const auto r = timed_mc(out, [&] {
        return faults::hpc_stall_fraction_mc(faults::HpcStallParams{}, rates,
                                             1'000, seed);
      });
      os << "hpc " << g17(r.simulated_fraction) << ' ' << r.events_sampled;
      break;
    }
  }
  out.output = os.str();
  return out;
}

/// Encodes random lines with every per-line codec, corrupts one chip's
/// share of each and checks that correct(), told which chip failed (the
/// erasure a recorded-faulty chip provides), restores the line exactly.
UnitResult codec_round_trips(std::uint64_t seed) {
  UnitResult out;
  Rng rng(seed);
  constexpr unsigned kLines = 1500;
  std::uint64_t digest_acc = 0;
  for (const auto id :
       {ecc::SchemeId::kChipkill36, ecc::SchemeId::kChipkill18,
        ecc::SchemeId::kLotEcc5, ecc::SchemeId::kLotEcc9,
        ecc::SchemeId::kRaim, ecc::SchemeId::kRaimParity}) {
    const auto codec = ecc::make_codec(id);
    std::vector<std::vector<std::uint8_t>> lines(kLines);
    for (auto& l : lines) {
      l.resize(codec->data_bytes());
      for (auto& b : l) b = static_cast<std::uint8_t>(rng.next_below(256));
    }
    std::vector<std::vector<std::uint8_t>> det(kLines), corr(kLines);
    const auto t0 = Clock::now();
    for (unsigned i = 0; i < kLines; ++i) {
      det[i] = codec->detection_bits(lines[i]);
      corr[i] = codec->correction_bits(lines[i]);
    }
    out.layers.ecc_encode_s += seconds_since(t0);
    out.layers.ecc_lines += kLines;

    std::vector<std::vector<std::uint8_t>> bad = lines;
    for (unsigned i = 0; i < kLines; ++i) {
      const unsigned chip = i % codec->chips();
      for (unsigned off : codec->chip_data_offsets(chip)) {
        bad[i][off] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
      }
    }
    std::uint64_t failures = 0;
    const auto t1 = Clock::now();
    for (unsigned i = 0; i < kLines; ++i) {
      const unsigned chip = i % codec->chips();
      const auto r = codec->correct(bad[i], det[i], corr[i], {&chip, 1});
      if (!r.ok) ++failures;
    }
    out.layers.ecc_correct_s += seconds_since(t1);
    out.layers.ecc_corrects += kLines;
    for (unsigned i = 0; i < kLines; ++i) {
      if (bad[i] != lines[i]) ++failures;
      for (auto b : corr[i]) digest_acc = digest_acc * 131 + b;
    }
    if (failures != 0 && !out.outcome.mismatch) {
      out.outcome.mismatch = true;
      out.outcome.detail = ecc::to_string(id) + ": " +
                           std::to_string(failures) +
                           " single-chip erasures not corrected";
    }
  }
  out.output = "codec " + std::to_string(digest_acc);
  return out;
}

/// A sampled fault history played through the functional ECC Parity
/// manager with scrubs between events (tests/integration_lifetime_test's
/// setting), then a read-back audit of every line and the parity invariant.
UnitResult injector_campaign(std::uint64_t seed) {
  UnitResult out;
  dram::MemGeometry geom;
  geom.channels = 8;
  geom.ranks_per_channel = 2;
  geom.banks_per_rank = 8;
  geom.rows_per_bank = 16;
  geom.line_bytes = 64;
  eccparity::EccParityManager mgr(
      geom, ecc::make_codec(ecc::SchemeId::kLotEcc5), 4);
  Rng rng(seed);
  constexpr std::uint64_t kLines = 4096;
  std::vector<std::vector<std::uint8_t>> oracle(kLines);
  for (auto& v : oracle) {
    v.resize(64);
    for (auto& b : v) b = static_cast<std::uint8_t>(rng.next_below(256));
  }
  Layers& l = out.layers;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kLines; ++i) mgr.write_line(i, oracle[i]);
  l.ep_write_s += seconds_since(t0);
  l.ep_timed_writes += kLines;

  faults::SystemShape shape;
  shape.channels = 8;
  shape.ranks_per_channel = 2;
  shape.chips_per_rank = 4;
  // The first kEvents faults of a sampled lifetime (resampled while it has
  // fewer), so a campaign does the same amount of work at every seed.
  constexpr std::size_t kEvents = 20;
  Rng sample_rng(seed ^ 0x5bd1e995ULL);
  std::vector<faults::FaultEvent> events;
  while (events.size() < kEvents) {
    events = faults::sample_lifetime(
        shape, faults::ddr3_vendor_average().scaled_to(6000.0),
        7 * units::kHoursPerYear, sample_rng);
  }
  std::sort(events.begin(), events.end());
  events.resize(kEvents);
  const std::uint64_t reads_before = mgr.stats().reads;
  faults::FaultInjector injector(mgr, 128);
  injector.inject_history(events);
  l.ep_scrub_lines += mgr.stats().reads - reads_before;

  // A corruption the line's detection bits cannot see (an escape the
  // code allows, ~2^-16 per corrupted LOT-ECC5 line; Sec. VI-D) reads back
  // unflagged: it is counted, not failed.  A line the manager detected and
  // reported corrected must hold the written data.
  std::uint64_t undetected = 0;
  std::uint64_t miscorrected = 0;
  std::uint64_t flagged = 0;
  const auto t1 = Clock::now();
  for (std::uint64_t i = 0; i < kLines; ++i) {
    const auto r = mgr.read_line(i);
    if (r.uncorrectable) {
      ++flagged;
    } else if (r.data != oracle[i]) {
      ++(r.error_detected ? miscorrected : undetected);
    }
  }
  l.ep_read_s += seconds_since(t1);
  l.ep_timed_reads += kLines;
  const std::uint64_t violations = mgr.verify_parity_invariant();
  const auto& s = mgr.stats();
  l.ep_writes += s.writes;
  l.ep_reads += s.reads;
  l.ep_reconstructions += s.corrected_via_parity;
  if (miscorrected != 0 || violations != 0) {
    out.outcome.mismatch = true;
    out.outcome.detail = std::to_string(miscorrected) +
                         " lines corrected to wrong data, " +
                         std::to_string(violations) + " parity violations";
  }
  std::ostringstream os;
  os << "campaign events=" << events.size() << " flagged=" << flagged
     << " undetected=" << undetected
     << " detected=" << s.errors_detected << " via_parity="
     << s.corrected_via_parity << " via_materialized="
     << s.corrected_via_materialized << " pairs=" << s.pairs_marked_faulty
     << " retired=" << s.pages_retired;
  out.output = os.str();
  return out;
}

/// A generated three-generation fleet, seeded from the run's seed.
fleet::FleetSpec fleet_spec(std::uint64_t seed) {
  fleet::FleetSpec spec;
  spec.name = "perfbench";
  spec.seed = seed;
  spec.window_hours = 72;
  spec.repair.spares = 64;
  auto pool = [](std::string name, std::uint64_t nodes, std::string dram,
                 std::string ecc, unsigned channels, unsigned ranks,
                 unsigned chips, double fit, double speed) {
    fleet::PoolSpec p;
    p.name = std::move(name);
    p.nodes = nodes;
    p.dram = std::move(dram);
    p.ecc = std::move(ecc);
    p.channels = channels;
    p.ranks_per_channel = ranks;
    p.chips_per_rank = chips;
    p.fit_per_chip = fit;
    p.speed_factor = speed;
    return p;
  };
  spec.pools = {
      pool("ddr3-chipkill", 12'000, "ddr3", "chipkill36", 4, 4, 36, 100, 1.0),
      pool("ddr4-parity", 8'000, "ddr4", "lotecc5+parity", 8, 4, 9, 44, 1.0),
      pool("ddr5-parity", 4'000, "ddr5", "raim+parity", 8, 2, 10, 44, 1.5)};
  return spec;
}

/// Runs the generated fleet whole and in four shards; the merged results
/// must be identical (the coordinator's shard-count contract).
UnitResult fleet_runs(std::uint64_t seed) {
  UnitResult out;
  const fleet::FleetSpec spec = fleet_spec(seed);
  const std::string err = fleet::validate(spec);
  if (!err.empty()) throw std::runtime_error("fleet spec: " + err);
  const fleet::Coordinator coord(spec);
  std::string dumps[2];
  for (unsigned i = 0; i < 2; ++i) {
    fleet::RunOptions opts;
    opts.threads = 1;
    opts.shards = i == 0 ? 1 : 4;
    const auto t0 = Clock::now();
    const fleet::FleetResult res = coord.run(opts);
    out.layers.fleet_s += seconds_since(t0);
    out.layers.fleet_nodes += res.nodes;
    dumps[i] = fleet::result_to_json(res).dump(0);
  }
  if (dumps[0] != dumps[1]) {
    out.outcome.mismatch = true;
    out.outcome.detail = "fleet result differs between 1 and 4 shards";
  }
  out.output = dumps[0];
  return out;
}

}  // namespace

std::vector<Unit> reliability_units(const std::string& root,
                                    std::uint64_t seed) {
  std::vector<Unit> units;
  auto add = [&units](std::string name, std::function<UnitResult()> fn) {
    Unit u;
    u.name = std::move(name);
    u.run = [fn = std::move(fn)](bool, const std::string&) {
      return guarded(fn);
    };
    units.push_back(std::move(u));
  };
  // Longest first (sec6d and sec6b take about 40% of a pass's CPU time), so
  // the pool's tail is made of short volume units whatever the seed.
  add("sec6d", [root] { return sec6d(root); });
  add("sec6b", [root] { return sec6b(root); });
  add("fig18", [root] { return fig18(root); });
  add("fig08", [root] { return fig08(root); });
  add("fig02", [root] { return fig02(root); });

  // Volume: distinct substreams of the run's seed per unit, the longer
  // units (campaigns and the fleet, ~0.1 s) before the MC studies and codec
  // sets.
  SplitMix64 sm(seed);
  constexpr unsigned kCampaigns = 12;
  for (unsigned k = 0; k < kCampaigns; ++k) {
    const std::uint64_t s = sm.next();
    add("campaign" + std::to_string(k), [s] { return injector_campaign(s); });
  }
  const std::uint64_t fleet_seed = sm.next();
  add("fleet", [fleet_seed] { return fleet_runs(fleet_seed); });
  constexpr unsigned kMcUnits = 64;
  for (unsigned k = 0; k < kMcUnits; ++k) {
    const std::uint64_t s = sm.next();
    add("mc" + std::to_string(k), [k, s] { return mc_volume(k, s); });
  }
  constexpr unsigned kCodecUnits = 8;
  for (unsigned k = 0; k < kCodecUnits; ++k) {
    const std::uint64_t s = sm.next();
    add("codec" + std::to_string(k), [s] { return codec_round_trips(s); });
  }
  return units;
}

}  // namespace perfbench
