// google-benchmark microbenchmarks for the shared LLC model: one
// Cache::access into a warm 8 MB / 16-way LLC (Table I) per iteration, for
// a hit-heavy and a miss-heavy address stream.  Engineering benchmarks for
// the cache layer's own line in the perf history (`benchtool record`), not
// paper figures.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "cache/cache.hpp"
#include "common/rng.hpp"

using namespace eccsim;

namespace {

constexpr std::size_t kStreamLen = std::size_t{1} << 20;  // power of two

struct Op {
  std::uint64_t line;
  bool is_write;
};

/// Uniform random lines over `footprint` with 30% writes, so dirty victims
/// and their writebacks occur at a realistic rate.
std::vector<Op> stream(std::uint64_t footprint, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Op> ops(kStreamLen);
  for (auto& op : ops) {
    op = Op{rng.next_below(footprint), rng.next_below(10) < 3};
  }
  return ops;
}

/// Times warm LLC accesses over a footprint of `footprint_x4 / 4` LLCs.
void run_stream(benchmark::State& state, std::uint64_t footprint_x4) {
  const cache::CacheConfig cfg;
  const std::uint64_t llc_lines = cfg.size_bytes / cfg.line_bytes;
  const std::vector<Op> ops = stream(llc_lines * footprint_x4 / 4, 1);
  cache::Cache llc(cfg);
  for (const Op& op : ops) llc.access(op.line, op.is_write);  // warm
  llc.reset_stats();
  std::size_t i = 0;
  for (auto _ : state) {
    const Op& op = ops[i++ & (kStreamLen - 1)];
    benchmark::DoNotOptimize(llc.access(op.line, op.is_write));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["hit_rate"] = llc.stats().hit_rate();
}

/// Footprint half the LLC: nearly every access hits.
void BM_LlcAccessHitHeavy(benchmark::State& state) { run_stream(state, 2); }
BENCHMARK(BM_LlcAccessHitHeavy);

/// Footprint four LLCs: about three accesses in four miss and evict.
void BM_LlcAccessMissHeavy(benchmark::State& state) { run_stream(state, 16); }
BENCHMARK(BM_LlcAccessMissHeavy);

}  // namespace

BENCHMARK_MAIN();
