// fleetd: fleet-scale Monte Carlo front door.
//
//   fleetd run --spec FILE [options]       one fleet evaluation, to a file
//
// `fleetd run --shards 8` produces the same bytes as a single-shard run
// -- the property the fleet rows of scripts/identity_check.sh gate in CI.
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/parse.hpp"
#include "fleet/coordinator.hpp"
#include "fleet/model.hpp"
#include "fleet/spec.hpp"
#include "obs/heartbeat.hpp"
#include "obs/manifest.hpp"
#include "obs/run_info.hpp"
#include "runner/json.hpp"

namespace {

using namespace eccsim;

int usage(FILE* out, int code) {
  std::fprintf(
      out,
      "usage: fleetd <command> [options]\n"
      "  run --spec FILE       evaluate one fleet spec\n"
      "      --out FILE        result JSON (default results/fleet/<name>."
      "json)\n"
      "      --shards N        Monte Carlo chunks (default 1; results are\n"
      "                        identical for any value)\n"
      "      --threads N       pool width (default RUNNER_THREADS)\n"
      "      --scale N         divide every pool's node count by N (smoke\n"
      "                        runs)\n");
  return code;
}

fleet::FleetSpec load_spec(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("fleetd: cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  fleet::FleetSpec spec = fleet::spec_from_json(runner::Json::parse(os.str()));
  const std::string diag = fleet::validate(spec);
  if (!diag.empty()) throw std::runtime_error(diag);
  return spec;
}

int cmd_run(int argc, char** argv) {
  std::string spec_path, out_path;
  fleet::RunOptions run;
  std::uint64_t scale = 1;
  for (int i = 2; i < argc; ++i) {
    const char* v = nullptr;
    if ((v = flag_value("fleetd", argc, argv, i, "--spec")) != nullptr) {
      spec_path = v;
    } else if ((v = flag_value("fleetd", argc, argv, i, "--out")) != nullptr) {
      out_path = v;
    } else if ((v = flag_value("fleetd", argc, argv, i,
                               "--shards")) != nullptr) {
      run.shards = parse_uint<unsigned>("fleetd", "--shards", v);
    } else if ((v = flag_value("fleetd", argc, argv, i,
                               "--threads")) != nullptr) {
      run.threads = parse_uint<unsigned>("fleetd", "--threads", v);
    } else if ((v = flag_value("fleetd", argc, argv, i,
                               "--scale")) != nullptr) {
      scale = parse_uint<std::uint64_t>("fleetd", "--scale", v);
    } else {
      std::fprintf(stderr, "fleetd run: unknown flag '%s'\n", argv[i]);
      return 2;
    }
  }
  if (spec_path.empty()) {
    std::fprintf(stderr, "fleetd run: --spec is required\n");
    return 2;
  }
  fleet::FleetSpec spec = load_spec(spec_path);
  spec.scale_nodes(scale);
  if (out_path.empty()) out_path = "results/fleet/" + spec.name + ".json";

  obs::Heartbeat& hb = obs::Heartbeat::global();
  hb.set_tool("fleetd");
  obs::Manifest& man = obs::manifest();
  const std::string manifest_path = "results/fleetd.manifest.json";
  man.tool = "fleetd";
  for (int i = 1; i < argc; ++i) man.args.emplace_back(argv[i]);
  man.git_sha = obs::git_head_sha();
  man.seed_regime = "fleet spec seed";
  man.host = obs::hostname();
  man.host_cpus = obs::cpu_count();
  man.started_utc = obs::utc_timestamp();
  obs::write_manifest(manifest_path, man);
  man.extra.emplace_back("config_hash", fleet::config_hash(spec));
  const double start = obs::monotonic_seconds();
  const auto finish = [&](int rc) {
    obs::note_exit_code(rc);
    man.finished_utc = obs::utc_timestamp();
    man.wall_seconds = obs::monotonic_seconds() - start;
    if (man.status == "running") man.status = "completed";
    obs::write_manifest(manifest_path, man);
    return rc;
  };

  const fleet::Coordinator coordinator(spec);
  const fleet::FleetResult result = coordinator.run(run);
  const std::string doc = fleet::result_to_json(result).dump(2) + "\n";
  if (!obs::atomic_write_file(out_path, doc)) {
    std::fprintf(stderr, "fleetd run: cannot write %s\n", out_path.c_str());
    return finish(1);
  }
  std::printf("fleet %-12s %" PRIu64
              " nodes  events %.1f  lost %" PRIu64
              "  availability %.9f  -> %s\n",
              result.name.c_str(), result.nodes, result.uncorrected_events,
              result.nodes_lost, result.availability, out_path.c_str());
  return finish(0);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(stderr, 2);
  const std::string cmd = argv[1];
  try {
    if (cmd == "run") return cmd_run(argc, argv);
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
      return usage(stdout, 0);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleetd: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "fleetd: unknown command '%s'\n", cmd.c_str());
  return usage(stderr, 2);
}
