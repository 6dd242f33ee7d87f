#include "faults/mc_engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "obs/heartbeat.hpp"
#include "obs/manifest.hpp"
#include "runner/thread_pool.hpp"
#include "stats/stats.hpp"

namespace eccsim::faults {

namespace {

/// FNV-1a over the tag string, used to match checkpoint lines to runs.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t mix64(std::uint64_t x) {
  SplitMix64 sm(x);
  return sm.next();
}

constexpr const char* kChunkLineTag = "mcchunk1";

/// Identity of a run for checkpoint-chunk matching: FNV-1a of the tag,
/// mixed (SplitMix64) with the seed, system budget, chunk size, and field
/// count.  A chunk recorded under any differing parameter never matches.
std::uint64_t mc_run_identity(const std::string& tag, std::uint64_t seed,
                              unsigned systems, unsigned chunk_size,
                              std::size_t nfields) {
  std::uint64_t id = fnv1a(tag);
  id = mix64(id ^ seed);
  id = mix64(id ^ systems);
  id = mix64(id ^ chunk_size);
  id = mix64(id ^ nfields);
  return id;
}

/// Appends one completed chunk (`count` systems' fields, flattened) to a
/// checkpoint stream as a single flushed line.
void mc_checkpoint_append(std::ostream& out, std::uint64_t run_id,
                          std::uint64_t index, unsigned count,
                          const std::vector<double>& fields) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s %016" PRIx64 " %" PRIu64 " %u",
                kChunkLineTag, run_id, index, count);
  out << buf;
  for (const double d : fields) {
    std::snprintf(buf, sizeof buf, " %016" PRIx64,
                  std::bit_cast<std::uint64_t>(d));
    out << buf;
  }
  // One line per chunk, flushed immediately: a kill can lose at most the
  // line being written, and the loader discards a partial trailer.
  out << '\n' << std::flush;
}

/// Parses every complete chunk recorded for `run_id` in the file at
/// `path`, keyed by chunk index; a missing or unreadable file is an empty
/// (fresh) checkpoint.  `chunk_systems(ci)` must return the expected
/// system count of chunk `ci`; lines with a mismatched count, an
/// out-of-range index, or a truncated field list are skipped (resuming
/// from a damaged file degrades to re-simulating the missing chunks, never
/// to failing).
std::unordered_map<std::uint64_t, std::vector<double>> mc_checkpoint_load(
    const std::string& path, std::uint64_t run_id, std::uint64_t nchunks,
    const std::function<unsigned(std::uint64_t)>& chunk_systems,
    std::size_t nfields) {
  std::unordered_map<std::uint64_t, std::vector<double>> loaded;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::string word;
    std::uint64_t id = 0, index = 0, count = 0;
    is >> word >> std::hex >> id >> std::dec >> index >> count;
    if (!is || word != kChunkLineTag || id != run_id) continue;
    if (index >= nchunks || count != chunk_systems(index)) continue;
    if (loaded.count(index) != 0) continue;  // identical by construction
    std::vector<double> fields;
    fields.reserve(count * nfields);
    bool ok = true;
    for (std::uint64_t k = 0; k < count * nfields; ++k) {
      std::uint64_t bits = 0;
      if (!(is >> std::hex >> bits)) {
        ok = false;  // partial line (killed mid-write): discard
        break;
      }
      fields.push_back(std::bit_cast<double>(bits));
    }
    if (ok) loaded.emplace(index, std::move(fields));
  }
  return loaded;
}

void maybe_delay(unsigned ms) {
  if (ms == 0) return;
  timespec ts{static_cast<time_t>(ms / 1000),
              static_cast<long>(ms % 1000) * 1000000L};
  nanosleep(&ts, nullptr);
}

double now_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// mc.* observability; every pointer is null when stats are off.
struct McStats {
  stats::Counter* systems_simulated = nullptr;
  stats::Counter* systems_merged = nullptr;
  stats::Counter* chunks_merged = nullptr;
  stats::Counter* chunks_loaded = nullptr;
  stats::Counter* chunks_skipped = nullptr;
  stats::Counter* early_stops = nullptr;
  RunningStat* chunk_seconds = nullptr;

  explicit McStats(stats::Registry* reg) {
    if (reg == nullptr) return;
    systems_simulated = reg->counter("mc.systems_simulated");
    systems_merged = reg->counter("mc.systems_merged");
    chunks_merged = reg->counter("mc.chunks_merged");
    chunks_loaded = reg->counter("mc.chunks_loaded");
    chunks_skipped = reg->counter("mc.chunks_skipped");
    early_stops = reg->counter("mc.early_stops");
    chunk_seconds = reg->distribution("mc.chunk_seconds");
  }
};

}  // namespace

Rng mc_system_rng(std::uint64_t seed, unsigned index) {
  SplitMix64 sm(seed ^ (0x9e3779b97f4a7c15ULL * (index + 1)));
  return Rng(sm.next());
}

std::uint64_t mc_sample_key(std::uint64_t seed, unsigned index) {
  // Different mixing path than mc_system_rng (extra round, distinct
  // constant) so retention keys are uncorrelated with the sample streams.
  SplitMix64 sm(seed ^ (0xbf58476d1ce4e5b9ULL * (index + 1)));
  sm.next();
  return sm.next();
}

McRunInfo mc_run(unsigned systems, std::uint64_t seed, std::size_t nfields,
                 const std::string& tag, const McOptions& opts,
                 const McSystemFn& fn, const McMergeFn& merge,
                 const McRelCiFn& rel_ci) {
  McRunInfo info;
  info.systems_requested = systems;
  if (systems == 0) return info;

  const unsigned chunk =
      opts.chunk_size != 0 ? opts.chunk_size : kMcDefaultChunkSize;
  const std::uint64_t nchunks = (systems + chunk - 1) / chunk;
  info.chunks_total = nchunks;
  const auto chunk_base = [chunk](std::uint64_t ci) {
    return static_cast<unsigned>(ci * chunk);
  };
  const auto chunk_systems = [&](std::uint64_t ci) {
    return std::min(chunk, systems - chunk_base(ci));
  };

  McStats mc(opts.stats);

  // --- checkpoint: restore already-completed chunks ------------------------
  const std::uint64_t run_id =
      mc_run_identity(tag, seed, systems, chunk, nfields);
  std::unordered_map<std::uint64_t, std::vector<double>> loaded;
  std::ofstream ckpt;
  if (!opts.checkpoint_path.empty()) {
    loaded = mc_checkpoint_load(opts.checkpoint_path, run_id, nchunks,
                                chunk_systems, nfields);
    ckpt.open(opts.checkpoint_path, std::ios::app);
    if (ckpt && loaded.empty()) {
      ckpt << "# eccsim mc checkpoint: tag=" << tag << " seed=" << seed
           << " systems=" << systems << " chunk=" << chunk
           << " nfields=" << nfields << '\n'
           << std::flush;
    }
    if (!loaded.empty()) {
      std::fprintf(stderr, "[mc] %s: resuming %zu/%" PRIu64
                   " chunks from %s\n",
                   tag.c_str(), loaded.size(), nchunks,
                   opts.checkpoint_path.c_str());
      obs::note_resumed();
    }
  }

  const auto compute_chunk = [&](std::uint64_t ci,
                                 const std::atomic<std::uint64_t>* stop_before)
      -> std::vector<double> {
    maybe_delay(opts.chunk_delay_ms);
    const unsigned base = chunk_base(ci);
    const unsigned count = chunk_systems(ci);
    std::vector<double> fields(static_cast<std::size_t>(count) * nfields,
                               0.0);
    for (unsigned k = 0; k < count; ++k) {
      // Bail quickly once the merger has decided to stop before this
      // chunk; the partial buffer is discarded, never merged.
      if (stop_before != nullptr &&
          ci >= stop_before->load(std::memory_order_relaxed)) {
        return {};
      }
      Rng rng = mc_system_rng(seed, base + k);
      fn(base + k, rng, fields.data() + static_cast<std::size_t>(k) * nfields);
    }
    return fields;
  };

  // Merges one completed chunk (strict index order across calls) and
  // evaluates the early-stop rule; returns true to keep going.
  std::vector<double> ci_series;
  obs::Heartbeat& hb = obs::Heartbeat::global();
  const auto heartbeat_tick = [&](bool run_complete) {
    if (!hb.enabled()) return;
    obs::Heartbeat::Tick t;
    t.phase = "mc:" + tag;
    t.done = info.systems_merged;
    // Early stop ends the run with systems_merged < systems; shrink the
    // plan so the snapshot reads as final rather than abandoned.
    t.total = run_complete ? info.systems_merged : systems;
    if (rel_ci && info.chunks_merged > 0) t.rel_ci = info.final_rel_ci;
    t.counters = {
        {"chunks_merged", static_cast<double>(info.chunks_merged)},
        {"chunks_loaded", static_cast<double>(info.chunks_loaded)},
    };
    t.force = run_complete;
    hb.tick(t);
  };
  const auto merge_chunk = [&](std::uint64_t ci,
                               const std::vector<double>& fields,
                               bool was_loaded) {
    const unsigned base = chunk_base(ci);
    const unsigned count = chunk_systems(ci);
    for (unsigned k = 0; k < count; ++k) {
      merge(base + k, fields.data() + static_cast<std::size_t>(k) * nfields);
    }
    info.systems_merged += count;
    ++info.chunks_merged;
    if (was_loaded) {
      ++info.chunks_loaded;
      if (mc.chunks_loaded != nullptr) mc.chunks_loaded->inc();
    }
    if (mc.chunks_merged != nullptr) mc.chunks_merged->inc();
    if (mc.systems_merged != nullptr) mc.systems_merged->inc(count);
    if (!was_loaded && ckpt.is_open()) {
      mc_checkpoint_append(ckpt, run_id, ci, count, fields);
    }
    if (rel_ci) {
      info.final_rel_ci = rel_ci();
      ci_series.push_back(info.final_rel_ci);
      if (opts.target_rel_ci > 0.0 &&
          info.systems_merged >= opts.min_systems &&
          info.final_rel_ci <= opts.target_rel_ci) {
        info.early_stopped = true;
        heartbeat_tick(true);
        return false;
      }
    }
    heartbeat_tick(false);
    return true;
  };

  const unsigned threads = opts.threads != 0
                               ? opts.threads
                               : runner::ThreadPool::default_thread_count();
  const bool inline_run = threads <= 1 ||
                          runner::ThreadPool::on_worker_thread() ||
                          nchunks <= 1;

  if (inline_run) {
    for (std::uint64_t ci = 0; ci < nchunks; ++ci) {
      const auto it = loaded.find(ci);
      const bool was_loaded = it != loaded.end();
      std::vector<double> fields;
      if (was_loaded) {
        fields = std::move(it->second);
      } else {
        const double t0 = now_seconds();
        fields = compute_chunk(ci, nullptr);
        if (mc.chunk_seconds != nullptr) {
          mc.chunk_seconds->add(now_seconds() - t0);
        }
        if (mc.systems_simulated != nullptr) {
          mc.systems_simulated->inc(chunk_systems(ci));
        }
      }
      if (!merge_chunk(ci, fields, was_loaded)) {
        info.chunks_total = nchunks;
        break;
      }
    }
  } else {
    std::mutex mu;
    std::condition_variable cv;
    std::map<std::uint64_t, std::vector<double>> ready;
    std::atomic<std::uint64_t> stop_before{nchunks};
    {
      runner::ThreadPool pool(std::min<unsigned>(
          threads, static_cast<unsigned>(nchunks)));
      for (std::uint64_t ci = 0; ci < nchunks; ++ci) {
        if (loaded.count(ci) != 0) continue;  // merged from the checkpoint
        pool.submit([&, ci] {
          const double t0 = now_seconds();
          std::vector<double> fields = compute_chunk(ci, &stop_before);
          const double dt = now_seconds() - t0;
          std::lock_guard<std::mutex> lock(mu);
          if (!fields.empty() || chunk_systems(ci) == 0) {
            // Timings and simulated-system counts are recorded under the
            // merge lock so the registry stays single-writer.
            if (mc.chunk_seconds != nullptr) mc.chunk_seconds->add(dt);
            if (mc.systems_simulated != nullptr) {
              mc.systems_simulated->inc(chunk_systems(ci));
            }
          }
          ready.emplace(ci, std::move(fields));
          cv.notify_all();
        });
      }
      for (std::uint64_t ci = 0; ci < nchunks; ++ci) {
        const auto it = loaded.find(ci);
        const bool was_loaded = it != loaded.end();
        std::vector<double> fields;
        if (was_loaded) {
          fields = std::move(it->second);
        } else {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return ready.count(ci) != 0; });
          fields = std::move(ready.at(ci));
          ready.erase(ci);
        }
        bool keep_going;
        {
          // merge_chunk touches the registry; hold the lock so in-flight
          // workers recording timings cannot interleave.
          std::lock_guard<std::mutex> lock(mu);
          keep_going = merge_chunk(ci, fields, was_loaded);
        }
        if (!keep_going) {
          stop_before.store(ci + 1, std::memory_order_relaxed);
          break;
        }
      }
      // ~ThreadPool drains the remaining (bailing) chunk tasks.
    }
  }

  const std::uint64_t skipped = nchunks - info.chunks_merged;
  if (info.early_stopped) {
    if (mc.early_stops != nullptr) mc.early_stops->inc();
    if (mc.chunks_skipped != nullptr) mc.chunks_skipped->inc(skipped);
  }
  if (opts.stats != nullptr && !ci_series.empty()) {
    opts.stats->add_series("mc.rel_ci." + tag, std::move(ci_series));
  }
  return info;
}

}  // namespace eccsim::faults
