// Fleet model description: a datacenter as named node pools.
//
// The paper evaluates ECC Parity on one memory system; the fleet layer
// scales the same fault Monte Carlo to datacenter economics (SCREME
// direction, PAPERS.md): heterogeneous pools of nodes -- each pool with
// its own DRAM generation, channel/rank organization, ECC scheme, and
// speed-bin-scaled fault rates -- plus a repair/replacement policy, with
// fleet availability and annual node-loss as the output metrics.
//
// A FleetSpec is a plain value, serialized as canonical JSON (fixed field
// order, every field explicit) so that `config_hash()` is a stable
// identity: two documents describing the same fleet hash identically
// whatever their field order or defaulting.
//
// Layering note: this module deliberately does NOT include src/dram or
// src/ecc.  Pools carry their DRAM generation and ECC scheme as validated
// *names*; the per-generation fault-level parameters the model needs
// (banks per rank, on-die-ECC bit-fault coverage) live in a small table
// here that tests/fleet_test.cpp pins against dram::spec_for(), following
// the same independence precedent as faults::on_die_ecc_filter().
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace eccsim::runner {
class Json;
}

namespace eccsim::fleet {

/// Fleet-wide repair/replacement policy.  An uncorrected error crashes
/// the node: after `detect_hours` the fault is detected and the node is
/// drained, and `repair_hours` later it is back in service -- provided a
/// spare was available for its first (replacement-consuming) event.  Once
/// the spare pool is depleted, a newly failing node stays down for the
/// remainder of the fleet lifetime.
struct RepairPolicy {
  double detect_hours = 1.0;
  double repair_hours = 24.0;
  /// Fleet-wide spare-node pool; negative = unlimited.
  std::int64_t spares = -1;
};

/// One homogeneous pool of nodes.
struct PoolSpec {
  std::string name;
  std::uint64_t nodes = 0;
  /// DRAM generation name: "ddr3", "ddr4", or "ddr5" (the --dram set).
  std::string dram = "ddr3";
  /// ECC scheme name (the Table II set, e.g. "chipkill36",
  /// "lotecc5+parity"); determines the fleet-level failure class.
  std::string ecc = "lotecc5+parity";
  unsigned channels = 8;
  unsigned ranks_per_channel = 4;
  unsigned chips_per_rank = 9;
  /// All-type per-chip fault rate (FIT), distributed per the DDR3
  /// vendor-average split and filtered by the generation's on-die ECC.
  double fit_per_chip = 44.0;
  /// Speed-bin scaling of the fault rates (Sec. V-D: faster bins fault
  /// more); the effective rate is fit_per_chip * speed_factor.
  double speed_factor = 1.0;
};

/// A complete fleet description.
struct FleetSpec {
  std::string name = "fleet";
  std::uint64_t seed = 2014;
  double lifetime_hours = 5 * 8766.0;  ///< five deployment years
  /// Detection/scrub window for cross-parity double-fault coincidence
  /// (Fig. 18).  Isolated schemes are windowless: their chip-class
  /// faults are permanent damage that stays exposed until repair.
  double window_hours = 12.0;
  RepairPolicy repair;
  std::vector<PoolSpec> pools;

  std::uint64_t total_nodes() const;
  /// Divides every pool's node count by `factor` (floor 1 node) -- the
  /// smoke-scaling knob used by run_all.sh and the CI identity check.
  void scale_nodes(std::uint64_t factor);
};

/// Fault-level parameters of one DRAM generation, mirroring src/dram's
/// spec factories (pinned against dram::spec_for by tests/fleet_test.cpp).
struct GenFaultParams {
  unsigned banks_per_rank = 8;
  /// DramSpec::on_die_ecc.bit_fault_coverage of the generation's default
  /// device (0 when on-die ECC is absent).
  double on_die_bit_coverage = 0.0;
};

/// Parameters for a generation name; std::nullopt for anything else.
std::optional<GenFaultParams> gen_fault_params(const std::string& dram);

/// Fleet-level failure class of an ECC scheme: schemes that correct
/// within one rank/channel fail on a second overlapping fault in the same
/// rank (kIsolated); the ECC Parity schemes correct across channels and
/// fail when faults land in more than one channel within the detection
/// window (kCrossParity, the paper's Fig. 18 coincidence).
enum class SchemeClass { kIsolated, kCrossParity };

/// Failure class of a Table II scheme name; std::nullopt for unknown
/// names.  Covers every ecc::SchemeId spelling (pinned by tests).
std::optional<SchemeClass> scheme_class(const std::string& ecc);

/// Canonical JSON form: fixed field order, every field explicit.
runner::Json to_json(const FleetSpec& spec);

/// Parses a spec document.  Unknown members throw; absent members
/// take their defaults.  Throws std::runtime_error with a field path on
/// malformed input.
FleetSpec spec_from_json(const runner::Json& doc);

/// Validates semantic constraints (known generation/scheme names, nonzero
/// pools, positive rates/durations, total node budget).  Returns "" when
/// valid, else a one-line diagnostic.
std::string validate(const FleetSpec& spec);

/// Config hash: 16 lowercase hex digits, FNV-1a over the canonical JSON
/// dump of the spec.  Stable across field order and defaulting of the
/// source document (both normalize through spec_from_json/to_json).
std::string config_hash(const FleetSpec& spec);

}  // namespace eccsim::fleet
