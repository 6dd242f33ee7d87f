// One fleet run on the Monte Carlo engine.
//
// Layer (2) of the fleet subsystem.  A fleet run is a single
// faults::mc_run over the fleet's nodes: FleetModel::node_fields is the
// per-system function and FleetAccumulator::add the in-order merge.  The
// engine owns the fan-out (chunks on the shared runner::ThreadPool), the
// per-node RNG substream and the heartbeat ticks.
//
// Byte-identity argument: each node's fields depend only on
// (spec.seed, node index) via faults::mc_system_rng, and the engine merges
// them in strict node index order whatever the chunking or thread count.
// Therefore the merged FleetResult -- and its JSON dump -- is
// byte-identical at any shard count, which the fleet rows of
// scripts/identity_check.sh gate in CI.
#pragma once

#include "fleet/model.hpp"
#include "fleet/spec.hpp"

namespace eccsim::fleet {

struct RunOptions {
  /// Engine chunks: the nodes are split into at most `shards` contiguous
  /// chunks of ceil(nodes / shards) nodes (0 counts as 1).  Results are
  /// identical for any value.
  unsigned shards = 1;
  /// Pool width; 0 = runner::ThreadPool::default_thread_count().
  unsigned threads = 0;
};

/// Runs a validated FleetSpec end to end: simulate every node, merge in
/// strict node index order, finalize.
class Coordinator {
 public:
  explicit Coordinator(const FleetSpec& spec);

  const FleetModel& model() const { return model_; }

  /// Executes the fleet and returns the merged result.
  FleetResult run(const RunOptions& opts) const;

 private:
  FleetModel model_;
};

}  // namespace eccsim::fleet
