#include "stats/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "common/parse.hpp"
#include "stats/trace.hpp"

namespace eccsim::stats {

// --- Histogram -------------------------------------------------------------

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  if (!(lo < hi) || bins == 0) {
    throw std::invalid_argument("Histogram: require lo < hi and bins > 0");
  }
}

void Histogram::add(double x) {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto idx = static_cast<std::int64_t>(std::floor((x - lo_) / width));
  idx = std::clamp<std::int64_t>(idx, 0,
                                 static_cast<std::int64_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

void Histogram::merge(const Histogram& other) {
  if (other.counts_.size() != counts_.size() || other.lo_ != lo_ ||
      other.hi_ != hi_) {
    throw std::invalid_argument("Histogram::merge: shape mismatch");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

double Histogram::percentile(double p) const {
  if (total_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double target = p / 100.0 * static_cast<double>(total_);
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  double cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cum + static_cast<double>(counts_[i]);
    if (next >= target && counts_[i] > 0) {
      // Linear interpolation within the bin.
      const double frac = (target - cum) / static_cast<double>(counts_[i]);
      return lo_ + (static_cast<double>(i) + frac) * width;
    }
    cum = next;
  }
  return hi_;
}

// --- Registry --------------------------------------------------------------

Registry::Entry& Registry::add_entry(const std::string& path, Kind kind,
                                     std::size_t slot) {
  Entry e;
  e.path = path;
  e.kind = kind;
  e.slot = slot;
  if (sampled(kind)) {
    // A stat registered after sampling started contributes zero to the
    // epochs it did not witness, keeping all series equally long.
    e.epoch_deltas.assign(marks_.size(), 0.0);
  }
  index_.emplace(path, entries_.size());
  entries_.push_back(std::move(e));
  return entries_.back();
}

const Registry::Entry* Registry::find(const std::string& path) const {
  const auto it = index_.find(path);
  return it == index_.end() ? nullptr : &entries_[it->second];
}

Counter* Registry::counter(const std::string& path) {
  if (const Entry* e = find(path)) {
    if (e->kind != Kind::kCounter) {
      throw std::invalid_argument("Registry: path '" + path +
                                  "' already registered with another kind");
    }
    return &counters_[e->slot];
  }
  counters_.emplace_back();
  add_entry(path, Kind::kCounter, counters_.size() - 1);
  return &counters_.back();
}

Accum* Registry::accum(const std::string& path) {
  if (const Entry* e = find(path)) {
    if (e->kind != Kind::kAccum) {
      throw std::invalid_argument("Registry: path '" + path +
                                  "' already registered with another kind");
    }
    return &accums_[e->slot];
  }
  accums_.emplace_back();
  add_entry(path, Kind::kAccum, accums_.size() - 1);
  return &accums_.back();
}

RunningStat* Registry::distribution(const std::string& path) {
  if (const Entry* e = find(path)) {
    if (e->kind != Kind::kDistribution) {
      throw std::invalid_argument("Registry: path '" + path +
                                  "' already registered with another kind");
    }
    return &distributions_[e->slot];
  }
  distributions_.emplace_back();
  add_entry(path, Kind::kDistribution, distributions_.size() - 1);
  return &distributions_.back();
}

Histogram* Registry::histogram(const std::string& path, double lo, double hi,
                               std::size_t bins) {
  if (const Entry* e = find(path)) {
    if (e->kind != Kind::kHistogram) {
      throw std::invalid_argument("Registry: path '" + path +
                                  "' already registered with another kind");
    }
    return &histograms_[e->slot];
  }
  histograms_.emplace_back(lo, hi, bins);
  add_entry(path, Kind::kHistogram, histograms_.size() - 1);
  return &histograms_.back();
}

void Registry::gauge(const std::string& path, GaugeFn poll) {
  if (const Entry* e = find(path)) {
    if (e->kind != Kind::kGauge) {
      throw std::invalid_argument("Registry: path '" + path +
                                  "' already registered with another kind");
    }
    gauges_[e->slot] = std::move(poll);
    return;
  }
  gauges_.push_back(std::move(poll));
  add_entry(path, Kind::kGauge, gauges_.size() - 1);
}

double Registry::current(const Entry& e, std::uint64_t cycle) const {
  switch (e.kind) {
    case Kind::kCounter:
      return static_cast<double>(counters_[e.slot].value());
    case Kind::kAccum:
      return accums_[e.slot].value();
    case Kind::kGauge:
      // After finalize() the poll function is gone (it may reference a
      // destroyed component); the stored final value stands in.
      return finalized_ || !gauges_[e.slot] ? e.final_value
                                            : gauges_[e.slot](cycle);
    default:
      throw std::invalid_argument("Registry: '" + e.path +
                                  "' is not a sampled stat");
  }
}

double Registry::value(const std::string& path, std::uint64_t cycle) const {
  const Entry* e = find(path);
  if (e == nullptr) {
    throw std::out_of_range("Registry: unknown path '" + path + "'");
  }
  return current(*e, cycle);
}

void Registry::sample_epoch(std::uint64_t cycle) {
  if (finalized_) return;
  marks_.push_back(cycle);
  for (auto& e : entries_) {
    if (!sampled(e.kind)) continue;
    const double cur = current(e, cycle);
    e.epoch_deltas.push_back(cur - e.last_sample);
    e.last_sample = cur;
  }
}

const std::vector<double>* Registry::epoch_series(
    const std::string& path) const {
  const Entry* e = find(path);
  if (e == nullptr || !sampled(e->kind)) return nullptr;
  return &e->epoch_deltas;
}

void Registry::add_series(const std::string& path,
                          std::vector<double> values) {
  for (auto& [name, existing] : series_) {
    if (name == path) {
      existing = std::move(values);
      return;
    }
  }
  series_.emplace_back(path, std::move(values));
}

void Registry::finalize(std::uint64_t cycle) {
  if (finalized_) return;
  if (!marks_.empty() && marks_.back() < cycle) {
    sample_epoch(cycle);  // final, partial epoch
  } else if (marks_.empty() && epoch_cycles_ != 0 && cycle != 0) {
    sample_epoch(cycle);  // the run was shorter than one epoch
  }
  for (auto& e : entries_) {
    if (sampled(e.kind)) e.final_value = current(e, cycle);
  }
  finalized_ = true;
  // Release gauge closures: they may reference components that die before
  // this registry is serialized.
  for (auto& g : gauges_) g = nullptr;
}

void Registry::merge(const Registry& other) {
  for (const auto& oe : other.entries_) {
    switch (oe.kind) {
      case Kind::kCounter:
        counter(oe.path)->inc(other.counters_[oe.slot].value());
        break;
      case Kind::kAccum:
        accum(oe.path)->add(other.accums_[oe.slot].value());
        break;
      case Kind::kDistribution:
        distribution(oe.path)->merge(other.distributions_[oe.slot]);
        break;
      case Kind::kHistogram: {
        const Histogram& oh = other.histograms_[oe.slot];
        histogram(oe.path, oh.lo(), oh.hi(), oh.bins().size())->merge(oh);
        break;
      }
      case Kind::kGauge:
        break;  // per-run poll; not mergeable
    }
  }
}

std::vector<Registry::EntryView> Registry::view() const {
  std::vector<EntryView> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) {
    EntryView v{};
    v.path = &e.path;
    v.kind = e.kind;
    v.epochs = sampled(e.kind) ? &e.epoch_deltas : nullptr;
    v.dist = e.kind == Kind::kDistribution ? &distributions_[e.slot] : nullptr;
    v.hist = e.kind == Kind::kHistogram ? &histograms_[e.slot] : nullptr;
    if (sampled(e.kind)) {
      v.value = e.kind == Kind::kGauge && !finalized_ ? 0.0
                                                      : current(e, 0);
    }
    out.push_back(v);
  }
  return out;
}

// --- Config ----------------------------------------------------------------

namespace {

/// Strict: `5x`, `abc` or an empty value exits 2 instead of silently
/// running with the default.
std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? parse_uint<std::uint64_t>("eccsim", name, v)
                      : fallback;
}

}  // namespace

Config Config::from_env(std::uint64_t default_epoch) {
  Config cfg;
  const char* on = std::getenv("ECCSIM_STATS");
  cfg.enabled = on != nullptr && std::string(on) != "0";
  cfg.epoch_cycles = env_u64("STATS_EPOCH", default_epoch);
  if (const char* dir = std::getenv("STATS_TRACE"); dir != nullptr && *dir) {
    cfg.trace_dir = dir;
    cfg.enabled = true;  // tracing implies stats collection
  }
  cfg.trace_limit = env_u64("STATS_TRACE_LIMIT", cfg.trace_limit);
  return cfg;
}

// --- Collector -------------------------------------------------------------

Collector::Collector(const Config& cfg) : cfg_(cfg) {
  registry_.set_epoch_cycles(cfg.epoch_cycles);
}

Collector::~Collector() = default;

void Collector::open_trace(const std::string& path) {
  if (tracer_ == nullptr) {
    tracer_ = std::make_unique<Tracer>(path, cfg_.trace_limit);
  }
}

// --- process metrics -------------------------------------------------------

std::uint64_t process_peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

}  // namespace eccsim::stats
