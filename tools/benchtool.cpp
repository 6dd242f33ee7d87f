// benchtool: perf-trajectory tracking and live run monitoring.
//
//   benchtool record [--smoke] [--bin DIR] [--history DIR]
//                    [--skip-micro] [--skip-sweep]
//       Runs the library microbenchmarks (microbench_codecs,
//       microbench_cache, microbench_tracefile, microbench_dram via their
//       google-benchmark JSON output) and a pinned smoke-sized fig10 sweep, and appends one
//       timing record per benchmark -- stamped with git SHA, host, and
//       thread count -- to results/history/BENCH_<name>.json.
//   benchtool compare [--history DIR] [--threshold X] [--window N]
//       Compares each history file's newest record against the median of
//       up to N prior records from the same host/smoke/threads context;
//       exits 1 when any metric's wall clock regressed by more than X
//       (default 0.15 = 15%).  With no comparable baseline (first run,
//       new CI host) it passes vacuously and says so.
//   benchtool watch FILE [--interval-ms N] [--once]
//       Tails the heartbeat snapshots a long run publishes via --status
//       FILE (see docs/OBSERVABILITY.md), printing one line per update
//       with progress, throughput, ETA, and Monte Carlo rel-CI; exits
//       when the run's final snapshot arrives.
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/parse.hpp"
#include "obs/manifest.hpp"
#include "obs/perf_history.hpp"
#include "obs/run_info.hpp"
#include "runner/json.hpp"
#include "runner/thread_pool.hpp"
#include "stats/stats.hpp"

namespace {

using namespace eccsim;

int usage(FILE* out, int code) {
  std::fprintf(out,
               "usage: benchtool <command> [options]\n"
               "  record [--smoke] [--bin DIR] [--history DIR]\n"
               "         [--skip-micro] [--skip-sweep]\n"
               "      run the microbenchmarks and a pinned smoke sweep,\n"
               "      appending one timing record per benchmark to\n"
               "      HISTORY/BENCH_<name>.json (default results/history)\n"
               "      --bin DIR  directory holding the bench binaries\n"
               "                 (default build/bench)\n"
               "  compare [--history DIR] [--threshold X] [--window N]\n"
               "          [--min-samples M]\n"
               "      gate on perf regressions: exit 1 when any metric of\n"
               "      any history file regressed >X (default 0.15) vs the\n"
               "      median of up to N (default 10) comparable records;\n"
               "      metrics gate only once M (default 2) comparable\n"
               "      records exist\n"
               "  watch FILE [--interval-ms N] [--once]\n"
               "      tail the heartbeat snapshots of a run started with\n"
               "      --status FILE; exits when the run finishes\n");
  return code;
}

bool executable_exists(const std::string& path) {
  struct stat st{};
  return stat(path.c_str(), &st) == 0 && (st.st_mode & S_IXUSR) != 0;
}

/// Runs a shell command, returning its exit code and the wall-clock it
/// took; the child's stdout is discarded (stderr stays visible).
int run_command(const std::string& cmd, double* wall_seconds) {
  const double t0 = obs::monotonic_seconds();
  const int rc = std::system((cmd + " > /dev/null").c_str());
  if (wall_seconds != nullptr) {
    *wall_seconds = obs::monotonic_seconds() - t0;
  }
  return rc;
}

double time_unit_seconds(const std::string& unit) {
  if (unit == "ns") return 1e-9;
  if (unit == "us") return 1e-6;
  if (unit == "ms") return 1e-3;
  return 1.0;
}

/// Parses a google-benchmark --benchmark_out JSON file into (name,
/// real_time seconds) metrics.  Aggregate rows (mean/median/stddev from
/// --benchmark_repetitions) are skipped so each benchmark contributes one
/// stable metric name.
std::vector<std::pair<std::string, double>> parse_gbench_json(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const runner::Json doc = runner::Json::parse(buf.str());
  std::vector<std::pair<std::string, double>> metrics;
  for (const auto& b : doc.at("benchmarks").items()) {
    if (b.contains("run_type") &&
        b.at("run_type").as_string() != "iteration") {
      continue;
    }
    const std::string unit = b.contains("time_unit")
                                 ? b.at("time_unit").as_string()
                                 : std::string("ns");
    metrics.emplace_back(
        b.at("name").as_string(),
        b.at("real_time").as_number() * time_unit_seconds(unit));
  }
  return metrics;
}

obs::perf::Record base_record(bool smoke) {
  obs::perf::Record rec;
  rec.git_sha = obs::git_head_sha();
  rec.timestamp_utc = obs::utc_timestamp();
  rec.host = obs::hostname();
  rec.threads = runner::ThreadPool::default_thread_count();
  rec.smoke = smoke;
  return rec;
}

int cmd_record(int argc, char** argv) {
  bool smoke = false, skip_micro = false, skip_sweep = false;
  std::string bin_dir = "build/bench";
  std::string history_dir = "results/history";
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = nullptr;
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--skip-micro") {
      skip_micro = true;
    } else if (arg == "--skip-sweep") {
      skip_sweep = true;
    } else if ((v = flag_value("benchtool", argc, argv, i,
                               "--bin")) != nullptr) {
      bin_dir = v;
    } else if ((v = flag_value("benchtool", argc, argv, i,
                               "--history")) != nullptr) {
      history_dir = v;
    } else {
      std::fprintf(stderr, "benchtool record: unknown flag '%s'\n",
                   arg.c_str());
      return 2;
    }
  }

  obs::Manifest& man = obs::manifest();
  man.tool = "benchtool";
  for (int i = 1; i < argc; ++i) man.args.emplace_back(argv[i]);
  man.git_sha = obs::git_head_sha();
  man.seed_regime = "paper_sweep_seed(root=1)";
  man.threads = runner::ThreadPool::default_thread_count();
  man.host = obs::hostname();
  man.host_cpus = obs::cpu_count();
  man.started_utc = obs::utc_timestamp();
  const std::string manifest_path = "results/benchtool.manifest.json";
  obs::write_manifest(manifest_path, man);
  const double start = obs::monotonic_seconds();
  const auto finish = [&](int rc) {
    obs::note_exit_code(rc);
    man.finished_utc = obs::utc_timestamp();
    man.wall_seconds = obs::monotonic_seconds() - start;
    man.peak_rss_bytes = stats::process_peak_rss_bytes();
    if (man.status == "running") man.status = "completed";
    obs::write_manifest(manifest_path, man);
    return rc;
  };

  std::error_code ec;
  std::filesystem::create_directories(history_dir, ec);

  if (!skip_micro) {
    for (const char* name :
         {"microbench_codecs", "microbench_cache", "microbench_tracefile",
          "microbench_dram"}) {
      const std::string bin = bin_dir + "/" + name;
      if (!executable_exists(bin)) {
        std::fprintf(stderr, "benchtool record: %s not found (build the "
                     "bench targets first, or pass --bin)\n", bin.c_str());
        return finish(1);
      }
      const std::string tmp =
          history_dir + "/." + std::string(name) + ".gbench.json";
      // min_time keeps a record run under ~15s.
      const int rc = run_command(bin + " --benchmark_out=" + tmp +
                                     " --benchmark_out_format=json" +
                                     " --benchmark_min_time=0.05",
                                 nullptr);
      if (rc != 0) {
        std::fprintf(stderr, "benchtool record: %s exited with %d\n",
                     bin.c_str(), rc);
        return finish(1);
      }
      obs::perf::Record rec = base_record(smoke);
      try {
        rec.metrics = parse_gbench_json(tmp);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "benchtool record: bad benchmark output: %s\n",
                     e.what());
        return finish(1);
      }
      std::filesystem::remove(tmp, ec);
      if (rec.metrics.empty()) {
        std::fprintf(stderr, "benchtool record: %s produced no benchmark "
                     "results\n", bin.c_str());
        return finish(1);
      }
      const std::string hist =
          history_dir + "/BENCH_" + std::string(name) + ".json";
      obs::perf::append_record(hist, name, rec);
      std::printf("recorded %-22s %zu metrics -> %s\n", name,
                  rec.metrics.size(), hist.c_str());
    }
  }

  if (!skip_sweep) {
    // The end-to-end datapoint: one full smoke-sized fig10 sweep with the
    // cache bypassed so simulation work is actually measured.  Pinned to
    // smoke scale regardless of --smoke: the flag only labels the record's
    // comparability context.
    const std::string bin = bin_dir + "/fig10_epi_quad";
    if (!executable_exists(bin)) {
      std::fprintf(stderr, "benchtool record: %s not found (build the "
                   "bench targets first, or pass --bin)\n", bin.c_str());
      return finish(1);
    }
    double wall = 0.0;
    const int rc = run_command(
        "ECCSIM_SMOKE=1 ECCSIM_SWEEP_CACHE=0 " + bin, &wall);
    if (rc != 0) {
      std::fprintf(stderr, "benchtool record: %s exited with %d\n",
                   bin.c_str(), rc);
      return finish(1);
    }
    obs::perf::Record rec = base_record(smoke);
    rec.metrics.emplace_back("wall_seconds", wall);
    const std::string hist = history_dir + "/BENCH_smoke_sweep.json";
    obs::perf::append_record(hist, "smoke_sweep", rec);
    std::printf("recorded %-22s %.2fs -> %s\n", "smoke_sweep", wall,
                hist.c_str());
  }
  return finish(0);
}

int cmd_compare(int argc, char** argv) {
  std::string history_dir = "results/history";
  double threshold = 0.15;
  std::size_t window = 10;
  std::size_t min_samples = 2;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = nullptr;
    if ((v = flag_value("benchtool", argc, argv, i, "--history")) != nullptr) {
      history_dir = v;
    } else if ((v = flag_value("benchtool", argc, argv, i,
                               "--threshold")) != nullptr) {
      threshold = parse_double("benchtool", "--threshold", v);
    } else if ((v = flag_value("benchtool", argc, argv, i,
                               "--window")) != nullptr) {
      window = parse_uint<std::size_t>("benchtool", "--window", v);
    } else if ((v = flag_value("benchtool", argc, argv, i,
                               "--min-samples")) != nullptr) {
      min_samples = parse_uint<std::size_t>("benchtool", "--min-samples", v);
    } else {
      std::fprintf(stderr, "benchtool compare: unknown flag '%s'\n",
                   arg.c_str());
      return 2;
    }
  }

  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(history_dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 && entry.path().extension() == ".json") {
      files.push_back(entry.path().string());
    }
  }
  if (files.empty()) {
    std::printf("benchtool compare: no BENCH_*.json under %s -- nothing to "
                "gate (pass)\n", history_dir.c_str());
    return 0;
  }
  std::sort(files.begin(), files.end());

  bool any_regressed = false;
  for (const std::string& file : files) {
    obs::perf::History hist;
    try {
      hist = obs::perf::load_history(file, "");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "benchtool compare: %s: %s\n", file.c_str(),
                   e.what());
      return 1;
    }
    const auto result =
        obs::perf::compare(hist, threshold, window, min_samples);
    if (!result.comparable) {
      std::printf("%-24s no comparable baseline (first run on this "
                  "host/config) -- pass\n", hist.bench.c_str());
      continue;
    }
    for (const auto& mc : result.metrics) {
      std::printf("%-24s %-40s %8.4fs vs median %8.4fs (%+5.1f%%, n=%zu)%s\n",
                  hist.bench.c_str(), mc.name.c_str(), mc.current,
                  mc.baseline, (mc.ratio - 1.0) * 100.0, mc.samples,
                  mc.regressed ? "  REGRESSED" : "");
    }
    if (result.regressed) any_regressed = true;
  }
  if (any_regressed) {
    std::fprintf(stderr, "benchtool compare: wall-clock regression over "
                 "%.0f%% threshold\n", threshold * 100.0);
    return 1;
  }
  return 0;
}

/// Renders one heartbeat snapshot as a single line.  Tolerates nulls for
/// the derived fields (throughput/ETA before they are measurable).
void print_snapshot(const runner::Json& doc) {
  std::string line = "[" + doc.at("tool").as_string() + "] " +
                     doc.at("phase").as_string();
  char buf[128];
  std::snprintf(buf, sizeof buf, " %" PRIu64 "/%" PRIu64,
                static_cast<std::uint64_t>(doc.at("done").as_number()),
                static_cast<std::uint64_t>(doc.at("total").as_number()));
  line += buf;
  if (!doc.at("throughput_per_s").is_null()) {
    std::snprintf(buf, sizeof buf, " (%.1f/s)",
                  doc.at("throughput_per_s").as_number());
    line += buf;
  }
  if (!doc.at("eta_seconds").is_null()) {
    std::snprintf(buf, sizeof buf, " eta %.0fs",
                  doc.at("eta_seconds").as_number());
    line += buf;
  }
  if (!doc.at("rel_ci").is_null()) {
    std::snprintf(buf, sizeof buf, " rel_ci %.4g",
                  doc.at("rel_ci").as_number());
    line += buf;
  }
  std::snprintf(buf, sizeof buf, " rss %.0fMB elapsed %.0fs",
                doc.at("peak_rss_bytes").as_number() / (1024.0 * 1024.0),
                doc.at("elapsed_seconds").as_number());
  line += buf;
  if (doc.at("final").as_bool()) line += " [final]";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

int cmd_watch(int argc, char** argv) {
  std::string path;
  std::uint64_t interval_ms = 500;
  bool once = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = nullptr;
    if ((v = flag_value("benchtool", argc, argv, i,
                        "--interval-ms")) != nullptr) {
      interval_ms = parse_uint<std::uint64_t>("benchtool", "--interval-ms", v);
    } else if (arg == "--once") {
      once = true;
    } else if (path.empty() && arg.rfind("--", 0) != 0) {
      path = arg;
    } else {
      std::fprintf(stderr, "benchtool watch: unknown flag '%s'\n",
                   arg.c_str());
      return 2;
    }
  }
  if (path.empty()) return usage(stderr, 2);

  std::uint64_t last_seq = 0;
  bool seen = false;
  for (;;) {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      try {
        // The writer replaces the file atomically, so a successful read
        // is always a complete document.
        const runner::Json doc = runner::Json::parse(buf.str());
        const auto seq = static_cast<std::uint64_t>(
            doc.at("seq").as_number());
        if (!seen || seq != last_seq) {
          print_snapshot(doc);
          seen = true;
          last_seq = seq;
        }
        if (doc.at("final").as_bool()) return 0;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "benchtool watch: %s: %s\n", path.c_str(),
                     e.what());
        return 1;
      }
    } else if (once) {
      std::fprintf(stderr, "benchtool watch: %s does not exist (yet)\n",
                   path.c_str());
      return 1;
    }
    if (once) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(stderr, 2);
  const std::string cmd = argv[1];
  try {
    if (cmd == "record") return cmd_record(argc, argv);
    if (cmd == "compare") return cmd_compare(argc, argv);
    if (cmd == "watch") return cmd_watch(argc, argv);
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
      return usage(stdout, 0);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchtool %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  return usage(stderr, 2);
}
