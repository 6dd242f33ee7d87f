#include "fleet/coordinator.hpp"

#include <algorithm>

#include "faults/mc_engine.hpp"

namespace eccsim::fleet {

Coordinator::Coordinator(const FleetSpec& spec) : model_(spec) {}

FleetResult Coordinator::run(const RunOptions& opts) const {
  // validate() bounds total_nodes() to unsigned, the engine's index type.
  const auto nodes = static_cast<unsigned>(model_.nodes());
  const unsigned shards = std::max(opts.shards, 1u);
  faults::McOptions mc;
  mc.threads = opts.threads;
  mc.chunk_size = static_cast<unsigned>((model_.nodes() + shards - 1) / shards);
  FleetAccumulator acc(model_);
  faults::mc_run(
      nodes, model_.spec().seed, kNodeFields, "fleet", mc,
      [this](unsigned node, Rng& rng, double* fields) {
        model_.node_fields(node, rng, fields);
      },
      [&acc](unsigned node, const double* fields) { acc.add(node, fields); });
  return acc.finalize();
}

}  // namespace eccsim::fleet
