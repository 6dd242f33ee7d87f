// Lifetime study: seven years in the life of a server fleet.
//
// Uses the Monte Carlo fault engine to sample device-level fault histories
// for a fleet of 8-channel servers, narrates the event log of the most
// eventful machine, and reports the fleet-level statistics that motivate
// ECC Parity: faults per system, how rarely two channels fault close
// together, and how much memory ends up with materialized correction bits.
//
// Usage: ./build/examples/lifetime_study [fleet_size] [seed]
#include <cstdio>
#include <cstdlib>

#include "common/units.hpp"
#include "faults/montecarlo.hpp"

using namespace eccsim;

int main(int argc, char** argv) {
  const unsigned fleet = argc > 1 ? std::atoi(argv[1]) : 10'000;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                                      : 7;
  faults::SystemShape shape;  // 8 ch x 4 ranks x 9 chips = 288 DDR3 chips
  const auto rates = faults::ddr3_vendor_average();
  const double life = 7 * units::kHoursPerYear;

  std::printf("Seven-year lifetime study, fleet of %u servers\n", fleet);
  std::printf("(8 channels x 4 ranks x 9 chips, %.0f FIT/chip total)\n\n",
              rates.total());

  // Fleet statistics.
  std::vector<std::vector<faults::FaultEvent>> histories(fleet);
  for (unsigned i = 0; i < fleet; ++i) {
    Rng rng = faults::mc_system_rng(seed, i);
    histories[i] = faults::sample_lifetime(shape, rates, life, rng);
  }

  std::uint64_t total_faults = 0, saturating = 0;
  unsigned busiest = 0;
  unsigned multi_channel_8h = 0;
  for (unsigned i = 0; i < fleet; ++i) {
    total_faults += histories[i].size();
    if (histories[i].size() > histories[busiest].size()) busiest = i;
    for (const auto& e : histories[i]) {
      if (faults::saturates_error_counter(e.type)) ++saturating;
    }
    // Any two faults in different channels within 8 hours?
    for (std::size_t a = 1; a < histories[i].size(); ++a) {
      const auto& prev = histories[i][a - 1];
      const auto& cur = histories[i][a];
      if (cur.channel != prev.channel &&
          cur.time_hours - prev.time_hours < 8.0) {
        ++multi_channel_8h;
        break;
      }
    }
  }
  std::printf("fleet totals over 7 years:\n");
  std::printf("  faults per server (mean)            : %.2f\n",
              static_cast<double>(total_faults) / fleet);
  std::printf("  device-level (counter-saturating)   : %.3f per server\n",
              static_cast<double>(saturating) / fleet);
  std::printf("  servers with 2-channel faults <8h apart: %u of %u (%.4f%%)\n",
              multi_channel_8h, fleet,
              100.0 * multi_channel_8h / fleet);

  const auto eol = faults::eol_materialized_fraction(shape, rates, fleet,
                                                     life, seed);
  std::printf("  EOL materialized memory (mean)      : %.3f%%\n",
              eol.mean_fraction * 100);
  std::printf("  EOL materialized memory (99.9th pct): %.2f%%\n\n",
              eol.p999_fraction * 100);

  // Narrate the busiest machine.
  std::printf("event log of the most eventful server (#%u):\n", busiest);
  for (const auto& e : histories[busiest]) {
    std::printf(
        "  day %5.0f: %-10s fault, channel %u rank %u chip %u  -> %s\n",
        e.time_hours / 24.0, faults::to_string(e.type).c_str(), e.channel,
        e.rank, e.chip,
        faults::saturates_error_counter(e.type)
            ? "saturates counter: materialize pair's correction bits"
            : "absorbed by page retirement");
  }
  if (histories[busiest].empty()) {
    std::printf("  (no faults -- a quiet seven years)\n");
  }
  return 0;
}
