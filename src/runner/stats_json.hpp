// JSON encoding of stats::Registry into the runner's Json document model.
//
// Lives in the runner -- not in src/stats -- because the stats library
// sits below every simulation component while the Json model sits above
// them (ecc_runner links ecc_sim links ecc_stats); encoding here keeps
// the dependency graph acyclic.  The Tracer writes its own JSON.
#pragma once

#include "runner/json.hpp"
#include "stats/stats.hpp"

namespace eccsim::runner {

/// Encodes one registry: epoch marks, every stat (kind, final value,
/// epoch-delta series for sampled kinds, summary/bins for distributions
/// and histograms), and the derived series.  The registry should be
/// finalized first; gauge values read 0.0 otherwise.
Json to_json(const stats::Registry& reg);

}  // namespace eccsim::runner
