// Output gate and summary arithmetic for the benchmark.
//
// Everything here is pure (no timing, no simulation) so the self-test can
// pin it: reference-row comparison, per-unit outcome bookkeeping, the
// percentile rule, and the output digest that lets two commits be compared
// for identity at any seed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/system.hpp"

namespace perfbench {

/// Field names of one sweep CSV row, in file order (the 15 fields the
/// bench sweep cache stores for every (scheme, workload) cell).
const std::vector<std::string>& sweep_fields();

/// Serializes a run exactly as the committed bench_results/sweep_*.csv
/// rows are written (comma-separated, 17 significant digits).
std::string sweep_row(const eccsim::sim::RunResult& r);

/// Splits one CSV line on commas (sweep rows never quote).
std::vector<std::string> split_csv(const std::string& line);

/// Reference rows of a sweep CSV keyed by "scheme/workload".  Returns an
/// empty map when the file is missing or unreadable.
std::map<std::string, std::string> load_sweep_reference(
    const std::string& path);

/// Names of the fields where `actual` differs from `expected` (both sweep
/// rows).  A row with the wrong field count reports "field_count".
std::vector<std::string> diff_sweep_row(const std::string& expected,
                                        const std::string& actual);

/// Whole-file read; empty string when the file is missing.
std::string read_file(const std::string& path);

/// What happened to one timed unit.
struct Outcome {
  bool threw = false;        ///< the unit raised an exception
  bool incomplete = false;   ///< instructions < target_instructions
  bool mismatch = false;     ///< output differs from its reference
  std::string detail;        ///< first failure reason, for the log

  bool failed() const { return threw || incomplete || mismatch; }
};

/// Gate for one timing-sweep cell: a run that stopped short of its
/// instruction target is incomplete (SystemSim::run returns normally when
/// max_mem_cycles cuts it off), and its row must equal `reference`
/// exactly; a null reference is a mismatch.
Outcome check_cell(const eccsim::sim::RunResult& r,
                   std::uint64_t target_instructions,
                   const std::string* reference);

/// Attempted / failed unit counts.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(const Outcome& o) {
    ++attempted;
    if (o.failed()) ++failed;
  }
  /// failed / attempted; 0 when nothing was attempted.
  double fail_frac() const;
};

/// Nearest-rank percentile (p in (0, 100]) of `samples`; 0 when empty.
double percentile(std::vector<double> samples, double p);

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> samples);

/// FNV-1a 64-bit digest, rendered as 16 lowercase hex digits.
std::string digest(const std::vector<std::string>& parts);

}  // namespace perfbench
