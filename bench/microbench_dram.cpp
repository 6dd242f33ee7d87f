// google-benchmark microbenchmarks for the DRAM scheduler under load: a
// DDR3 channel (Table I part, 2 ranks x 8 banks) whose 64-deep transaction
// queue is topped up before every memory cycle, so each Most-Pending
// decision sees a full window.  Timed per memory cycle (tick) and per
// issued request, for a write-heavy and a read-heavy mix.  Engineering
// benchmarks for the DRAM layer's own line in the perf history
// (`benchtool record`), not paper figures.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "dram/channel.hpp"

using namespace eccsim;

namespace {

constexpr std::size_t kStreamLen = std::size_t{1} << 16;  // power of two

/// Uniform random lines over both ranks, all banks and 4096 rows, with
/// `write_pct` percent writes.
std::vector<dram::MemRequest> stream(const dram::ChannelConfig& cc,
                                     unsigned write_pct) {
  Rng rng(1);
  std::vector<dram::MemRequest> reqs(kStreamLen);
  std::uint64_t id = 0;
  for (auto& r : reqs) {
    r.id = ++id;
    r.addr.rank = static_cast<std::uint32_t>(rng.next_below(cc.ranks));
    r.addr.bank = static_cast<std::uint32_t>(rng.next_below(cc.banks));
    r.addr.row = rng.next_below(4096);
    r.addr.col = static_cast<std::uint32_t>(rng.next_below(64));
    r.is_write = rng.next_below(100) < write_pct;
  }
  return reqs;
}

/// A DDR3 channel kept at a full queue.  step() tops the queue up and
/// advances one memory cycle; it returns true if the cycle issued a
/// request.
class FullQueue {
 public:
  explicit FullQueue(unsigned write_pct)
      : ch_(config()), reqs_(stream(ch_.config(), write_pct)) {
    for (int i = 0; i < 10'000; ++i) step();  // reach steady state
  }

  bool step() {
    while (ch_.enqueue(next_request())) ++next_;
    const std::size_t before = ch_.pending();
    ch_.tick(++now_, out_);
    out_.clear();
    return ch_.pending() < before;
  }

 private:
  static dram::ChannelConfig config() {
    dram::ChannelConfig cc;
    cc.device = dram::micron_2gb(dram::DeviceWidth::kX8);
    cc.ranks = 2;
    return cc;
  }

  dram::MemRequest next_request() const {
    dram::MemRequest r = reqs_[next_ & (kStreamLen - 1)];
    r.enqueue_cycle = now_;
    return r;
  }

  dram::Channel ch_;
  std::vector<dram::MemRequest> reqs_;
  std::vector<dram::MemCompletion> out_;
  std::size_t next_ = 0;
  std::uint64_t now_ = 0;
};

/// One iteration = one memory cycle.
void run_per_tick(benchmark::State& state, unsigned write_pct) {
  FullQueue q(write_pct);
  std::uint64_t issued = 0;
  for (auto _ : state) issued += q.step();
  state.counters["requests_per_tick"] =
      static_cast<double>(issued) / static_cast<double>(state.iterations());
}

/// One iteration = memory cycles until one request issues.
void run_per_request(benchmark::State& state, unsigned write_pct) {
  FullQueue q(write_pct);
  std::uint64_t ticks = 0;
  for (auto _ : state) {
    do {
      ++ticks;
    } while (!q.step());
  }
  state.counters["ticks_per_request"] =
      static_cast<double>(ticks) / static_cast<double>(state.iterations());
}

void BM_DramFullQueuePerTickWriteHeavy(benchmark::State& state) {
  run_per_tick(state, 60);
}
BENCHMARK(BM_DramFullQueuePerTickWriteHeavy);

void BM_DramFullQueuePerTickReadHeavy(benchmark::State& state) {
  run_per_tick(state, 10);
}
BENCHMARK(BM_DramFullQueuePerTickReadHeavy);

void BM_DramFullQueuePerRequestWriteHeavy(benchmark::State& state) {
  run_per_request(state, 60);
}
BENCHMARK(BM_DramFullQueuePerRequestWriteHeavy);

void BM_DramFullQueuePerRequestReadHeavy(benchmark::State& state) {
  run_per_request(state, 10);
}
BENCHMARK(BM_DramFullQueuePerRequestReadHeavy);

}  // namespace

BENCHMARK_MAIN();
