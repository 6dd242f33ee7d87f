#include "gate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

const std::vector<std::string>& sweep_fields() {
  static const std::vector<std::string> kFields = {
      "scheme",        "workload",         "instructions",
      "mem_cycles",    "ipc",              "epi_pj",
      "dynamic_epi_pj", "background_epi_pj", "mapi",
      "bandwidth_utilization", "avg_read_latency", "reads",
      "writes",        "ecc_reads",        "ecc_writes"};
  return kFields;
}

std::string sweep_row(const eccsim::sim::RunResult& r) {
  std::ostringstream os;
  os.precision(17);
  os << r.scheme << ',' << r.workload << ',' << r.instructions << ','
     << r.mem_cycles << ',' << r.ipc << ',' << r.epi_pj << ','
     << r.dynamic_epi_pj << ',' << r.background_epi_pj << ',' << r.mapi
     << ',' << r.bandwidth_utilization << ',' << r.avg_read_latency << ','
     << r.mem.reads << ',' << r.mem.writes << ',' << r.mem.ecc_reads << ','
     << r.mem.ecc_writes;
  return os.str();
}

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> out;
  std::string cell;
  std::istringstream is(line);
  while (std::getline(is, cell, ',')) out.push_back(cell);
  if (!line.empty() && line.back() == ',') out.emplace_back();
  return out;
}

std::map<std::string, std::string> load_sweep_reference(
    const std::string& path) {
  std::map<std::string, std::string> rows;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const auto f = split_csv(line);
    if (f.size() < 2) continue;
    rows[f[0] + "/" + f[1]] = line;
  }
  return rows;
}

std::vector<std::string> diff_sweep_row(const std::string& expected,
                                        const std::string& actual) {
  const auto e = split_csv(expected);
  const auto a = split_csv(actual);
  const auto& names = sweep_fields();
  if (e.size() != names.size() || a.size() != names.size()) {
    return {"field_count"};
  }
  std::vector<std::string> diffs;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (e[i] != a[i]) diffs.push_back(names[i]);
  }
  return diffs;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

Outcome check_cell(const eccsim::sim::RunResult& r,
                   std::uint64_t target_instructions,
                   const std::string* reference) {
  Outcome o;
  if (r.instructions < target_instructions) {
    o.incomplete = true;
    o.detail = "incomplete: " + std::to_string(r.instructions) + " < " +
               std::to_string(target_instructions) + " instructions";
  }
  if (reference == nullptr) {
    o.mismatch = true;
    if (o.detail.empty()) o.detail = "no reference row";
    return o;
  }
  const auto diffs = diff_sweep_row(*reference, sweep_row(r));
  if (!diffs.empty()) {
    o.mismatch = true;
    if (o.detail.empty()) {
      o.detail = "differs from reference in";
      for (const auto& f : diffs) o.detail += " " + f;
    }
  }
  return o;
}

double Tally::fail_frac() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

std::string digest(const std::vector<std::string>& parts) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& s : parts) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
    h ^= 0xff;  // part separator, so {"ab","c"} != {"a","bc"}
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace perfbench
