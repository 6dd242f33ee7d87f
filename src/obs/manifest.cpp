#include "obs/manifest.hpp"

#include <mutex>
#include <stdexcept>

#include "obs/heartbeat.hpp"
#include "runner/json.hpp"

namespace eccsim::obs {

namespace {

std::mutex g_manifest_mu;

}  // namespace

runner::Json to_json(const Manifest& m) {
  runner::Json doc = runner::Json::object();
  doc.set("schema", "eccsim.manifest/1");
  doc.set("tool", m.tool);
  runner::Json args = runner::Json::array();
  for (const auto& a : m.args) args.push_back(a);
  doc.set("args", args);
  doc.set("git_sha", m.git_sha);
  doc.set("dram", m.dram);
  doc.set("seed_regime", m.seed_regime);
  doc.set("threads", static_cast<std::uint64_t>(m.threads));
  doc.set("host", m.host);
  doc.set("host_cpus", static_cast<std::uint64_t>(m.host_cpus));
  doc.set("started_utc", m.started_utc);
  doc.set("finished_utc",
          m.finished_utc.empty() ? runner::Json() : runner::Json(m.finished_utc));
  doc.set("wall_seconds", m.wall_seconds);
  doc.set("peak_rss_bytes", m.peak_rss_bytes);
  doc.set("status", m.status);
  doc.set("exit_code", static_cast<std::int64_t>(m.exit_code));
  doc.set("resumed", m.resumed);
  if (!m.extra.empty()) {
    runner::Json extra = runner::Json::object();
    for (const auto& [key, value] : m.extra) extra.set(key, value);
    doc.set("extra", extra);
  }
  if (!m.profile.empty()) {
    runner::Json profile = runner::Json::object();
    for (const auto& [scope, totals] : m.profile) {
      runner::Json s = runner::Json::object();
      s.set("calls", totals.calls);
      s.set("seconds", totals.seconds);
      profile.set(scope, s);
    }
    doc.set("profile", profile);
  }
  return doc;
}

Manifest manifest_from_json(const runner::Json& doc) {
  if (!doc.is_object()) throw std::runtime_error("manifest: not an object");
  Manifest m;
  m.tool = doc.at("tool").as_string();
  for (const auto& a : doc.at("args").items()) m.args.push_back(a.as_string());
  m.git_sha = doc.at("git_sha").as_string();
  m.dram = doc.at("dram").as_string();
  m.seed_regime = doc.at("seed_regime").as_string();
  m.threads = static_cast<unsigned>(doc.at("threads").as_number());
  m.host = doc.at("host").as_string();
  m.host_cpus = static_cast<unsigned>(doc.at("host_cpus").as_number());
  m.started_utc = doc.at("started_utc").as_string();
  if (!doc.at("finished_utc").is_null()) {
    m.finished_utc = doc.at("finished_utc").as_string();
  }
  m.wall_seconds = doc.at("wall_seconds").as_number();
  m.peak_rss_bytes =
      static_cast<std::uint64_t>(doc.at("peak_rss_bytes").as_number());
  m.status = doc.at("status").as_string();
  m.exit_code = static_cast<int>(doc.at("exit_code").as_number());
  m.resumed = doc.at("resumed").as_bool();
  if (doc.contains("extra")) {
    for (const auto& [key, value] : doc.at("extra").members()) {
      m.extra.emplace_back(key, value.as_string());
    }
  }
  if (doc.contains("profile")) {
    for (const auto& [scope, totals] : doc.at("profile").members()) {
      m.profile.emplace_back(
          scope, stats::ScopeTotals{static_cast<std::uint64_t>(
                                        totals.at("calls").as_number()),
                                    totals.at("seconds").as_number()});
    }
  }
  return m;
}

bool write_manifest(const std::string& path, const Manifest& m) {
  return atomic_write_file(path, to_json(m).dump(2) + "\n");
}

Manifest& manifest() {
  static Manifest m;
  return m;
}

void note_resumed() {
  std::lock_guard<std::mutex> lock(g_manifest_mu);
  manifest().resumed = true;
}

void note_exit_code(int code) {
  std::lock_guard<std::mutex> lock(g_manifest_mu);
  Manifest& m = manifest();
  m.exit_code = code;
  if (code != 0) m.status = "failed";
}

}  // namespace eccsim::obs
