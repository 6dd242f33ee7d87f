#include "runner/stats_json.hpp"

namespace eccsim::runner {

namespace {

Json number_array(const std::vector<double>& values) {
  Json arr = Json::array();
  for (double v : values) arr.push_back(v);
  return arr;
}

const char* kind_name(stats::Registry::Kind kind) {
  using Kind = stats::Registry::Kind;
  switch (kind) {
    case Kind::kCounter: return "counter";
    case Kind::kAccum: return "accum";
    case Kind::kGauge: return "gauge";
    case Kind::kDistribution: return "distribution";
    case Kind::kHistogram: return "histogram";
  }
  return "?";
}

}  // namespace

Json to_json(const stats::Registry& reg) {
  Json j = Json::object();
  j.set("epoch_cycles", reg.epoch_cycles());

  Json marks = Json::array();
  for (std::uint64_t m : reg.epoch_marks()) marks.push_back(m);
  j.set("epoch_marks", marks);

  Json stats = Json::object();
  for (const auto& entry : reg.view()) {
    Json s = Json::object();
    s.set("kind", kind_name(entry.kind));
    if (entry.dist != nullptr) {
      // The mean comes from the exact sum, so merged registries serialize
      // identically in any merge order.
      const auto n = entry.dist->count();
      s.set("count", n);
      s.set("sum", entry.dist->sum());
      s.set("mean", n ? entry.dist->sum() / static_cast<double>(n) : 0.0);
      s.set("min", entry.dist->min());
      s.set("max", entry.dist->max());
    } else if (entry.hist != nullptr) {
      s.set("lo", entry.hist->lo());
      s.set("hi", entry.hist->hi());
      s.set("total", entry.hist->total());
      s.set("p50", entry.hist->percentile(50));
      s.set("p95", entry.hist->percentile(95));
      s.set("p99", entry.hist->percentile(99));
      Json bins = Json::array();
      for (std::uint64_t b : entry.hist->bins()) bins.push_back(b);
      s.set("bins", bins);
    } else {
      s.set("value", entry.value);
      if (entry.epochs != nullptr && !entry.epochs->empty()) {
        s.set("epochs", number_array(*entry.epochs));
      }
    }
    stats.set(*entry.path, s);
  }
  j.set("stats", stats);

  Json series = Json::object();
  for (const auto& [path, values] : reg.series()) {
    series.set(path, number_array(values));
  }
  j.set("series", series);
  return j;
}

}  // namespace eccsim::runner
