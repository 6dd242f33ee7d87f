#include "obs/heartbeat.hpp"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "common/parse.hpp"
#include "obs/run_info.hpp"
#include "runner/json.hpp"
#include "stats/stats.hpp"

namespace eccsim::obs {

namespace {

/// Snapshots keep at most this many trailing rel-CI observations; enough
/// to see the convergence trend without unbounded growth on million-chunk
/// runs.
constexpr std::size_t kMaxRelCiSeries = 64;

std::string human_eta(double seconds) {
  char buf[32];
  if (seconds >= 3600.0) {
    std::snprintf(buf, sizeof buf, "%.1fh", seconds / 3600.0);
  } else if (seconds >= 60.0) {
    std::snprintf(buf, sizeof buf, "%.1fm", seconds / 60.0);
  } else {
    std::snprintf(buf, sizeof buf, "%.0fs", seconds);
  }
  return buf;
}

}  // namespace

HeartbeatConfig HeartbeatConfig::from_env() {
  HeartbeatConfig cfg;
  if (const char* v = std::getenv("ECCSIM_STATUS")) cfg.status_path = v;
  if (const char* v = std::getenv("ECCSIM_PROGRESS")) {
    cfg.stderr_line = std::string(v) != "0";
  }
  if (const char* v = std::getenv("ECCSIM_STATUS_INTERVAL_MS")) {
    cfg.min_interval_ms = parse_uint<std::uint64_t>(
        "eccsim", "ECCSIM_STATUS_INTERVAL_MS", v);
  }
  return cfg;
}

void Heartbeat::set_tool(std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  tool_ = std::move(name);
}

std::uint64_t Heartbeat::snapshots_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seq_;
}

std::string Heartbeat::render_json(const Tick& t, double now) const {
  runner::Json doc = runner::Json::object();
  doc.set("schema", "eccsim.heartbeat/1");
  doc.set("pid", static_cast<std::int64_t>(getpid()));
  doc.set("tool", tool_);
  doc.set("phase", t.phase);
  doc.set("seq", seq_);
  doc.set("timestamp_utc", utc_timestamp());
  doc.set("elapsed_seconds", now - start_);
  const double phase_elapsed = now - phase_start_;
  doc.set("phase_elapsed_seconds", phase_elapsed);
  doc.set("done", t.done);
  doc.set("total", t.total);
  const double throughput =
      phase_elapsed > 0.0 ? static_cast<double>(t.done) / phase_elapsed : 0.0;
  doc.set("throughput_per_s",
          throughput > 0.0 ? runner::Json(throughput) : runner::Json());
  if (throughput > 0.0 && t.total >= t.done) {
    doc.set("eta_seconds",
            static_cast<double>(t.total - t.done) / throughput);
  } else {
    doc.set("eta_seconds", runner::Json());
  }
  doc.set("rel_ci",
          std::isnan(t.rel_ci) ? runner::Json() : runner::Json(t.rel_ci));
  runner::Json series = runner::Json::array();
  for (const double v : rel_ci_series_) series.push_back(v);
  doc.set("rel_ci_series", series);
  runner::Json counters = runner::Json::object();
  for (const auto& [name, value] : t.counters) counters.set(name, value);
  doc.set("counters", counters);
  doc.set("peak_rss_bytes", stats::process_peak_rss_bytes());
  doc.set("final", t.total > 0 && t.done >= t.total);
  return doc.dump(2) + "\n";
}

void Heartbeat::tick(const Tick& t) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  const double now = monotonic_seconds();
  if (start_ < 0.0) start_ = now;
  if (t.phase != phase_) {
    phase_ = t.phase;
    phase_start_ = now;
    rel_ci_series_.clear();
  }
  if (!std::isnan(t.rel_ci)) {
    rel_ci_series_.push_back(t.rel_ci);
    if (rel_ci_series_.size() > kMaxRelCiSeries) {
      rel_ci_series_.erase(rel_ci_series_.begin());
    }
  }
  const bool final_tick = t.total > 0 && t.done >= t.total;
  if (!t.force && !final_tick && last_write_ >= 0.0 &&
      (now - last_write_) * 1000.0 <
          static_cast<double>(cfg_.min_interval_ms)) {
    return;
  }
  last_write_ = now;
  ++seq_;
  if (!cfg_.status_path.empty()) {
    atomic_write_file(cfg_.status_path, render_json(t, now));
  }
  if (cfg_.stderr_line) {
    const double phase_elapsed = now - phase_start_;
    const double throughput = phase_elapsed > 0.0
                                  ? static_cast<double>(t.done) / phase_elapsed
                                  : 0.0;
    std::string extra;
    if (throughput > 0.0 && t.total >= t.done) {
      extra = " eta " + human_eta(static_cast<double>(t.total - t.done) /
                                  throughput);
    }
    if (!std::isnan(t.rel_ci)) {
      char buf[40];
      std::snprintf(buf, sizeof buf, " rel_ci %.4g", t.rel_ci);
      extra += buf;
    }
    std::fprintf(stderr, "\r[%s] %s %llu/%llu (%.1f/s)%s        ",
                 tool_.c_str(), t.phase.c_str(),
                 static_cast<unsigned long long>(t.done),
                 static_cast<unsigned long long>(t.total), throughput,
                 extra.c_str());
    if (final_tick) std::fprintf(stderr, "\n");
    std::fflush(stderr);
  }
}

Heartbeat& Heartbeat::global() {
  static Heartbeat hb(HeartbeatConfig::from_env());
  return hb;
}

bool atomic_write_file(const std::string& path, const std::string& content) {
  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::filesystem::create_directories(parent, ec);
    if (ec) return false;
  }
  const std::string tmp = path + ".tmp." + std::to_string(getpid());
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    if (!out) return false;
    out << content;
    if (!out.flush()) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace eccsim::obs
