// Tests for src/fleet: spec round-trip and config-hash stability, the
// pinned generation/scheme tables, the per-node failure model under a
// high-FIT stress spec, byte-identity of the coordinator across shard
// counts, the pinned demo-fleet result, and strict flag parsing in the
// fleetd CLI.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "dram/spec.hpp"
#include "ecc/scheme.hpp"
#include "fleet/coordinator.hpp"
#include "fleet/model.hpp"
#include "fleet/spec.hpp"
#include "runner/json.hpp"

namespace eccsim::fleet {
namespace {

/// A small heterogeneous fleet with FIT rates cranked high enough that
/// coincident hard faults are common, so every code path (events, spare
/// depletion, both scheme classes) is exercised with a few hundred nodes.
FleetSpec stress_spec() {
  FleetSpec spec;
  spec.name = "stress";
  spec.seed = 99;
  spec.lifetime_hours = 5 * 8766.0;
  spec.window_hours = 72.0;
  spec.repair.spares = 3;
  PoolSpec a;
  a.name = "isolated";
  a.nodes = 300;
  a.dram = "ddr3";
  a.ecc = "chipkill36";
  a.channels = 4;
  a.ranks_per_channel = 2;
  a.chips_per_rank = 36;
  a.fit_per_chip = 20000.0;
  PoolSpec b;
  b.name = "parity";
  b.nodes = 200;
  b.dram = "ddr5";
  b.ecc = "raim+parity";
  b.channels = 8;
  b.ranks_per_channel = 2;
  b.chips_per_rank = 10;
  b.fit_per_chip = 20000.0;
  b.speed_factor = 1.5;
  spec.pools = {a, b};
  return spec;
}

/// stress_spec() shrunk to a few dozen nodes, renamed so each test's runs
/// hash independently.
FleetSpec tiny_spec(const std::string& name) {
  FleetSpec spec = stress_spec();
  spec.name = name;
  spec.scale_nodes(10);
  return spec;
}

std::string dump_of(const FleetResult& result) {
  return result_to_json(result).dump(2);
}

// ---------------------------------------------------------------------------
// Spec, hash, and the pinned tables
// ---------------------------------------------------------------------------

TEST(FleetSpec, JsonRoundTripPreservesEverything) {
  const FleetSpec spec = stress_spec();
  const FleetSpec back = spec_from_json(to_json(spec));
  EXPECT_EQ(to_json(back).dump(0), to_json(spec).dump(0));
  EXPECT_EQ(config_hash(back), config_hash(spec));
  EXPECT_EQ(back.total_nodes(), 500u);
  EXPECT_EQ(validate(back), "");
}

TEST(FleetSpec, HashIgnoresFieldOrderAndDefaulting) {
  // The same fleet written three ways: canonical, reordered, and with
  // every defaultable field omitted.  All must hash identically, because
  // a fleet's identity must not depend on how its document is spelled.
  const std::string canonical =
      "{\"name\":\"n\",\"seed\":2014,\"pools\":[{\"name\":\"p\","
      "\"nodes\":10,\"dram\":\"ddr3\",\"ecc\":\"lotecc5+parity\","
      "\"channels\":8,\"ranks_per_channel\":4,\"chips_per_rank\":9,"
      "\"fit_per_chip\":44.0,\"speed_factor\":1.0}]}";
  const std::string reordered =
      "{\"pools\":[{\"fit_per_chip\":44.0,\"nodes\":10,\"name\":\"p\","
      "\"dram\":\"ddr3\",\"speed_factor\":1.0,\"chips_per_rank\":9,"
      "\"channels\":8,\"ranks_per_channel\":4,\"ecc\":\"lotecc5+parity\"}],"
      "\"seed\":2014,\"name\":\"n\"}";
  const std::string defaulted =
      "{\"name\":\"n\",\"pools\":[{\"name\":\"p\",\"nodes\":10}]}";
  const std::string h =
      config_hash(spec_from_json(runner::Json::parse(canonical)));
  EXPECT_EQ(config_hash(spec_from_json(runner::Json::parse(reordered))), h);
  EXPECT_EQ(config_hash(spec_from_json(runner::Json::parse(defaulted))), h);
}

TEST(FleetSpec, UnknownMembersThrow) {
  EXPECT_THROW(spec_from_json(runner::Json::parse(
                   "{\"pools\":[],\"sede\":1}")),
               std::runtime_error);
  EXPECT_THROW(spec_from_json(runner::Json::parse(
                   "{\"pools\":[{\"name\":\"p\",\"nodes\":1,"
                   "\"chanels\":8}]}")),
               std::runtime_error);
  EXPECT_THROW(spec_from_json(runner::Json::parse("[1,2]")),
               std::runtime_error);
}

TEST(FleetSpec, ValidateDiagnosesBadFleets) {
  FleetSpec spec = stress_spec();
  spec.pools.clear();
  EXPECT_NE(validate(spec), "");

  spec = stress_spec();
  spec.pools[0].dram = "lpddr4";
  EXPECT_NE(validate(spec).find("unknown dram"), std::string::npos);

  spec = stress_spec();
  spec.pools[0].ecc = "tripleecc";
  EXPECT_NE(validate(spec).find("unknown ecc"), std::string::npos);

  spec = stress_spec();
  spec.pools[1].channels = 1;  // cross-channel parity needs >= 2
  EXPECT_NE(validate(spec).find("channels"), std::string::npos);

  spec = stress_spec();
  spec.pools[0].nodes = 0;
  EXPECT_NE(validate(spec), "");
}

TEST(FleetSpec, GenFaultParamsMatchTheDramLayer) {
  // src/fleet deliberately does not include src/dram (layers.txt); this
  // pin is what keeps its private generation table honest.
  using dram::DeviceWidth;
  using dram::Generation;
  const struct {
    const char* name;
    Generation gen;
  } gens[] = {{"ddr3", Generation::kDdr3},
              {"ddr4", Generation::kDdr4},
              {"ddr5", Generation::kDdr5}};
  for (const auto& g : gens) {
    const auto params = gen_fault_params(g.name);
    ASSERT_TRUE(params.has_value()) << g.name;
    const dram::DramSpec ds = dram::spec_for(g.gen, DeviceWidth::kX8);
    EXPECT_EQ(params->banks_per_rank, ds.banks) << g.name;
    EXPECT_EQ(params->on_die_bit_coverage, ds.on_die_ecc.bit_fault_coverage)
        << g.name;
  }
  EXPECT_FALSE(gen_fault_params("lpddr4").has_value());
}

TEST(FleetSpec, SchemeClassCoversEveryTableIIScheme) {
  for (const ecc::SchemeId id : ecc::all_schemes()) {
    const std::string name = ecc::to_string(id);
    const auto cls = scheme_class(name);
    ASSERT_TRUE(cls.has_value()) << name;
    // The + parity variants are exactly the cross-channel class.
    EXPECT_EQ(cls == SchemeClass::kCrossParity,
              name.find("+parity") != std::string::npos)
        << name;
  }
  EXPECT_FALSE(scheme_class("secded").has_value());
}

// ---------------------------------------------------------------------------
// Model and accumulator
// ---------------------------------------------------------------------------

TEST(FleetModel, PoolLayoutIsContiguous) {
  const FleetModel model(stress_spec());
  EXPECT_EQ(model.nodes(), 500u);
  EXPECT_EQ(model.pool_of(0), 0u);
  EXPECT_EQ(model.pool_of(299), 0u);
  EXPECT_EQ(model.pool_of(300), 1u);
  EXPECT_EQ(model.pool_of(499), 1u);
  EXPECT_THROW(model.pool_of(500), std::out_of_range);
}

TEST(FleetModel, StressFleetProducesConsistentMetrics) {
  const FleetSpec spec = stress_spec();
  Coordinator coordinator(spec);
  RunOptions opts;
  opts.threads = 2;
  opts.shards = 8;
  const FleetResult r = coordinator.run(opts);

  EXPECT_EQ(r.nodes, 500u);
  EXPECT_EQ(r.config_hash, config_hash(spec));
  // At 20k FIT/chip both pools see plenty of hard faults and events.
  EXPECT_GT(r.pools[0].hard_faults, 0.0);
  EXPECT_GT(r.pools[1].hard_faults, 0.0);
  EXPECT_GT(r.nodes_with_events, 0u);
  EXPECT_GT(r.uncorrected_events, 0.0);
  // Each failing node demands exactly one replacement, so depletion is
  // exact: everyone past the 3 spares is lost.
  ASSERT_GT(r.nodes_with_events, 3u);
  EXPECT_EQ(r.nodes_lost, r.nodes_with_events - 3u);
  EXPECT_GT(r.annual_node_loss, 0.0);
  EXPECT_GT(r.availability, 0.0);
  EXPECT_LT(r.availability, 1.0);
  EXPECT_GT(r.availability_nines, 0.0);
  // 500 nodes fit the reservoir exhaustively.
  EXPECT_TRUE(r.quantiles_exact);
  EXPECT_LE(r.events_p50, r.events_p99);
  EXPECT_LE(r.events_p99, r.events_p999);
}

// ---------------------------------------------------------------------------
// Sharded coordinator
// ---------------------------------------------------------------------------

TEST(FleetCoordinator, MergedResultIsByteIdenticalAcrossShardCounts) {
  Coordinator coordinator(stress_spec());
  RunOptions base;
  base.shards = 1;
  base.threads = 1;
  const std::string reference = dump_of(coordinator.run(base));
  for (const unsigned shards : {0u, 2u, 3u, 8u, 1000u}) {
    RunOptions opts = base;
    opts.shards = shards;
    opts.threads = 4;
    EXPECT_EQ(dump_of(coordinator.run(opts)), reference) << shards;
  }
}

/// FNV-1a of the bytes `fleetd run` writes for `spec`.
std::uint64_t result_digest(const FleetSpec& spec) {
  RunOptions opts;
  opts.shards = 4;
  opts.threads = 2;
  const std::string doc = dump_of(Coordinator(spec).run(opts)) + "\n";
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : doc) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(FleetCoordinator, PinnedResultDigest) {
  // Every other coordinator check compares one shard count against
  // another, so a drift shared by all of them (the per-node RNG stream,
  // the model, the merge order) would pass.  This pins absolute bytes:
  // first those of `fleetd run --spec examples/fleet_demo.json --scale 50`.
  std::ifstream in(ECCSIM_FLEET_DEMO_SPEC, std::ios::binary);
  ASSERT_TRUE(in) << ECCSIM_FLEET_DEMO_SPEC;
  std::ostringstream text;
  text << in.rdbuf();
  FleetSpec demo = spec_from_json(runner::Json::parse(text.str()));
  ASSERT_EQ(validate(demo), "");
  demo.scale_nodes(50);
  EXPECT_EQ(result_digest(demo), 0x37bd9232fd99e43fULL)
      << std::hex << "0x" << result_digest(demo);
  // The demo's FIT rates leave most nodes fault-free, so node i drawing
  // stream i+1 only swaps fault-free boundary nodes and keeps its bytes.
  // In the stress fleet every node sees hard faults, so that shift shows.
  EXPECT_EQ(result_digest(stress_spec()), 0xfd472daa74986384ULL)
      << std::hex << "0x" << result_digest(stress_spec());
}

// ---------------------------------------------------------------------------
// fleetd CLI
// ---------------------------------------------------------------------------

TEST(FleetdCli, HalfParsedNumbersExitWithUsageError) {
  const std::string spec_path = testing::TempDir() + "/fleetd_cli_spec.json";
  {
    std::ofstream out(spec_path, std::ios::binary | std::ios::trunc);
    out << to_json(tiny_spec("cli")).dump(2) << "\n";
  }
  const std::string out_path = testing::TempDir() + "/fleetd_cli_out.json";
  // Each value starts like a number but is not one.  A lenient strtoul
  // reads `4x` as 4 and `abc` as 0, and the run goes on with them.
  for (const char* bad : {"--shards 4x", "--shards abc", "--shards ''",
                          "--threads 2.5", "--scale 10k"}) {
    const std::string cmd = std::string(ECCSIM_FLEETD_BINARY) +
                            " run --spec " + spec_path + " --out " +
                            out_path + " " + bad + " 2>&1";
    FILE* pipe = ::popen(cmd.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::string output;
    char buf[256];
    while (std::fgets(buf, sizeof buf, pipe) != nullptr) output += buf;
    const int status = ::pclose(pipe);
    ASSERT_TRUE(WIFEXITED(status)) << bad;
    EXPECT_EQ(WEXITSTATUS(status), 2) << bad << ": " << output;
    EXPECT_NE(output.find("expects an integer"), std::string::npos)
        << bad << ": " << output;
  }
}

}  // namespace
}  // namespace eccsim::fleet
