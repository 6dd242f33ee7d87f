#include "host_ref.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>

namespace perfbench {
namespace {

constexpr std::uint32_t kSets = 8192;
constexpr std::uint32_t kWays = 16;
constexpr int kProbesPerCall = 100000;
// Twice the store's lines, so about half the probes miss.
constexpr std::uint64_t kAddrMask = (2ull * kSets * kWays) - 1;

struct Line {
  std::uint64_t addr = 0;
  std::uint64_t lru = 0;
  std::uint32_t flags = 0;  ///< bit 0 valid, bit 1 dirty
};

struct Store {
  std::vector<Line> lines = std::vector<Line>(kSets * kWays);
  std::uint64_t tick = 0;
  std::uint64_t rng = 7;
};

/// The calling thread's store.  The runner starts new threads for every
/// pass, so a thread returns its store to a free list when it exits and the
/// next pass reuses it: the process allocates one store per concurrent
/// thread, once, and its peak RSS does not depend on allocator timing.
Store& thread_store() {
  static std::mutex mu;
  static std::vector<std::unique_ptr<Store>> free_list;
  struct Claim {
    std::unique_ptr<Store> store;
    ~Claim() {
      if (!store) return;
      const std::lock_guard<std::mutex> lock(mu);
      free_list.push_back(std::move(store));
    }
  };
  thread_local Claim claim;
  if (!claim.store) {
    const std::lock_guard<std::mutex> lock(mu);
    if (free_list.empty()) {
      claim.store = std::make_unique<Store>();
    } else {
      claim.store = std::move(free_list.back());
      free_list.pop_back();
    }
  }
  return *claim.store;
}

/// One LRU probe: a hit refreshes the line, a miss replaces the oldest way.
void probe(Store& s, std::uint64_t addr, bool write) {
  Line* set = &s.lines[(addr % kSets) * kWays];
  Line* victim = set;
  for (std::uint32_t w = 0; w < kWays; ++w) {
    Line& l = set[w];
    if ((l.flags & 1) && l.addr == addr) {
      l.lru = ++s.tick;
      l.flags |= write ? 2 : 0;
      return;
    }
    if (!(l.flags & 1) || l.lru < victim->lru) victim = &l;
  }
  victim->addr = addr;
  victim->lru = ++s.tick;
  victim->flags = write ? 3 : 1;
}

}  // namespace

double run_ref_kernel() {
  Store& store = thread_store();
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kProbesPerCall; ++i) {
    store.rng = store.rng * 6364136223846793005ull + 1442695040888963407ull;
    probe(store, (store.rng >> 30) & kAddrMask, (store.rng >> 62) == 0);
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

KernelSamples sample_ref_kernel(double unit_s) {
  KernelSamples k;
  k.calls = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(unit_s / kRefPeriodS)));
  for (std::uint64_t i = 0; i < k.calls; ++i) k.seconds += run_ref_kernel();
  return k;
}

double host_slowdown(const std::vector<KernelSamples>& samples) {
  double seconds = 0;
  std::uint64_t calls = 0;
  for (const auto& k : samples) {
    seconds += k.seconds;
    calls += k.calls;
  }
  if (calls == 0) return 1.0;
  return seconds / static_cast<double>(calls) / kRefKernelS;
}

}  // namespace perfbench
