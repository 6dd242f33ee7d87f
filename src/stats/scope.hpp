// Scoped wall-clock profiling: STATS_SCOPE("codec.rs_decode") at the top
// of a function (or block) attributes its wall-clock to that name in the
// process-wide profile that lands in the `profile` object of the run's
// results/<bench>.manifest.json.
//
// Cost model: when profiling is disabled (the default) a scope is one
// relaxed atomic load and a predictable branch -- cheap enough for
// per-DRAM-cycle call sites.  When enabled it adds two steady_clock reads
// plus an uncontended per-thread lock, so enabling --stats measurably
// slows hot paths; that is expected of a profiling run and is documented
// in docs/OBSERVABILITY.md.  Profiling never touches simulation state.
//
// Threading: each thread accumulates into its own buffer (registered
// globally on first use); Profiler::snapshot() merges all buffers by
// scope name -- the merge-on-finalize discipline shared with the stat
// registry.  Compile with -DECCSIM_DISABLE_PROFILING to remove every
// scope at compile time.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace eccsim::stats {

/// Global profiling switch; namespace-scope so the disabled fast path is
/// a single load with no static-init guard.
inline std::atomic<bool> g_profiling_enabled{false};

struct ScopeTotals {
  std::uint64_t calls = 0;
  double seconds = 0;
};

class Profiler {
 public:
  static void set_enabled(bool on) {
    g_profiling_enabled.store(on, std::memory_order_relaxed);
  }
  static bool enabled() {
    return g_profiling_enabled.load(std::memory_order_relaxed);
  }

  /// Adds one finished scope to the calling thread's buffer.  `name` must
  /// be a string literal (keyed by pointer in the per-thread buffer,
  /// merged by content at snapshot time).
  static void record(const char* name, double seconds);

  /// Totals across every thread that ever recorded, sorted by name.
  static std::vector<std::pair<std::string, ScopeTotals>> snapshot();

  /// Clears all buffers (tests).
  static void reset();
};

/// RAII timer behind STATS_SCOPE.
class ScopeTimer {
 public:
  explicit ScopeTimer(const char* name) {
    if (Profiler::enabled()) {
      name_ = name;
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopeTimer() {
    if (name_ != nullptr) {
      Profiler::record(
          name_, std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start_)
                     .count());
    }
  }
  ScopeTimer(const ScopeTimer&) = delete;
  ScopeTimer& operator=(const ScopeTimer&) = delete;

 private:
  const char* name_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace eccsim::stats

#define ECCSIM_STATS_CONCAT2(a, b) a##b
#define ECCSIM_STATS_CONCAT(a, b) ECCSIM_STATS_CONCAT2(a, b)
#ifndef ECCSIM_DISABLE_PROFILING
#define STATS_SCOPE(name) \
  ::eccsim::stats::ScopeTimer ECCSIM_STATS_CONCAT(eccsim_scope_, __LINE__)(name)
#else
#define STATS_SCOPE(name) ((void)0)
#endif
