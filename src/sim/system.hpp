// Full-system performance/energy simulator (Sec. IV methodology).
//
// Pipeline per simulated memory-clock cycle (1 GHz):
//   1. The DRAM simulator advances; completed reads unblock waiting cores
//     and fill the LLC (128B-line schemes fill both 64B halves -- the
//     prefetch effect that lets commercial chipkill win on some
//     spatially-local workloads, Sec. V-C).
//   2. Each of the eight 2 GHz cores runs two CPU cycles: committing up to
//     `width` instructions, issuing its next memory operation when its
//     instruction gap elapses.  Reads that miss the LLC occupy one of the
//     core's MLP slots; a core with all slots full stalls -- this is the
//     latency feedback that turns DRAM contention into IPC loss.
//   3. LLC evictions expand into ECC-maintenance traffic per the scheme's
//     model (Sec. IV-C): dirty data -> memory write (+ an ECC/XOR
//     cacheline touch for tiered/parity schemes); dirty ECC line -> one
//     write; dirty XOR line -> parity read-modify-write (one read + one
//     write).
//
// The result captures exactly what Figs. 9-17 report: memory energy split
// into dynamic/background, performance (IPC), bandwidth utilization, and
// memory accesses (64B units) per instruction.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/cache.hpp"
#include "check/protocol_checker.hpp"
#include "dram/memory_system.hpp"
#include "ecc/scheme.hpp"
#include "eccparity/layout.hpp"
#include "stats/stats.hpp"
#include "stats/trace.hpp"
#include "trace/source.hpp"
#include "trace/workload.hpp"
#include "tracefile/replay.hpp"
#include "tracefile/writer.hpp"

namespace eccsim::sim {

/// Processor parameters (Table I).
struct CpuConfig {
  unsigned cores = 8;
  unsigned width = 2;             ///< commit width per core cycle
  unsigned cpu_cycles_per_mem_cycle = 2;  ///< 2 GHz cores, 1 GHz memory
  unsigned mlp = 4;               ///< outstanding read misses per core
};

/// Run-control knobs.
struct SimOptions {
  std::uint64_t target_instructions = 2'000'000;  ///< total across cores
  std::uint64_t max_mem_cycles = 20'000'000;      ///< safety stop
  std::uint64_t seed = 1;
  /// Banks recorded as faulty, for degraded-mode studies (steps B/D of
  /// Fig. 6).  Keys: (channel << 16) | (rank << 8) | bank.
  std::vector<std::uint32_t> faulty_banks;
  /// Rank power-down when idle (the Sec. IV-B close-page sleep policy);
  /// disable for the power-down ablation.
  bool powerdown_enabled = true;
  /// Row-buffer policy (the paper uses close-page; open-page is available
  /// for the row-policy ablation).
  dram::RowPolicy row_policy = dram::RowPolicy::kClosePage;
  /// DRAM generation to build the scheme's memory system on.  Unset means
  /// "consult the ECCSIM_DRAM environment variable (set by the bench
  /// front-end's --dram flag), else DDR3" -- the paper-faithful default.
  std::optional<dram::Generation> dram_gen;
  /// Demand-scrub injection: when nonzero, one extra scrub read is issued
  /// every this many memory cycles, sweeping addresses round-robin
  /// (Sec. VI-C's scrub-rate cost in performance/energy terms).
  std::uint64_t scrub_read_interval = 0;
  /// When nonzero, ECC/XOR cachelines live in a dedicated cache of this
  /// size instead of the LLC.  Multi-ECC [13] used a dedicated 128 KB ECC
  /// cache; the paper's methodology moves ECC lines into the 8 MB LLC
  /// (Sec. IV-C) -- this knob quantifies that choice.
  std::uint64_t dedicated_ecc_cache_bytes = 0;
  /// Attaches the independent DRAM protocol checker
  /// (check/protocol_checker.hpp) to every channel: each command the DRAM
  /// model issues is re-validated against the raw timing tables, and run()
  /// throws std::runtime_error with a full report if any violation was
  /// counted (in the checker's fatal mode a violation aborts immediately
  /// instead).  Observation only -- results are bit-identical.  Also
  /// enabled by setting the ECCSIM_CHECK environment variable to a value
  /// other than "0", which is how CI audits the benchmark sweeps.
  bool protocol_check = false;
  /// Replay stimulus from a recorded pre-LLC .ecctrace file instead of the
  /// synthetic generators.  The trace's workload name and core count must
  /// match this run's configuration (TraceError otherwise), and the trace
  /// must hold enough ops to cover warmup plus the measured phase -- a
  /// short trace throws rather than diverging.  With a trace recorded at
  /// the workload's canonical seed (trace::paper_sweep_seed), replay is
  /// bit-identical to live generation.
  std::string trace_in;
  /// Record this run's stimulus to an .ecctrace file at `trace_point`.
  /// Observation only: results are bit-identical with or without it.
  /// May be combined with trace_in (re-record a replay).
  std::string trace_out;
  /// Capture point for trace_out: kPreLlc records the per-core MemOp
  /// stream (replayable); kPostLlc records the DRAM request stream after
  /// LLC filtering and ECC expansion (analysis only -- it depends on the
  /// scheme and cannot be fed back in).
  tracefile::CapturePoint trace_point = tracefile::CapturePoint::kPreLlc;
  /// Observability sink for this run (optional).  When set and enabled,
  /// the simulator registers every component's stats in the collector's
  /// registry under stable dotted paths, samples the registry every
  /// Config::epoch_cycles memory cycles, and mirrors DRAM commands and
  /// ECC-parity slow-path events into the collector's tracer.
  /// Observation only: simulated results are bit-identical with or
  /// without it.  Must outlive run(); one collector per SystemSim.
  stats::Collector* stats = nullptr;
};

/// Everything a run produces.  Plain data: serialized to CSV by the bench
/// sweep cache and to JSON by runner::to_json(), so additions here should
/// be mirrored in both encoders.
struct RunResult {
  std::string scheme;             ///< ecc::SchemeDesc::name of the run
  std::string workload;           ///< trace::WorkloadDesc::name of the run
  std::uint64_t instructions = 0; ///< committed across all cores
  std::uint64_t mem_cycles = 0;   ///< measured-phase memory-clock cycles
  double ipc = 0;                ///< instructions per CPU cycle (all cores)
  dram::MemSystemStats mem;      ///< traffic, latency, and energy breakdown
  cache::Cache::Stats llc;       ///< LLC hits/misses/writebacks (post-warm)
  double epi_pj = 0;             ///< memory energy per instruction (pJ)
  double dynamic_epi_pj = 0;
  double background_epi_pj = 0;  ///< incl. refresh
  double mapi = 0;               ///< 64B memory accesses per instruction
  double bandwidth_utilization = 0;  ///< data-bus busy fraction (mean)
  double avg_read_latency = 0;
};

/// One workload on one memory system.
///
/// A SystemSim is fully self-contained -- it owns its DRAM model, caches,
/// cores, and RNG state (seeded from SimOptions::seed), and touches no
/// globals -- so independent instances may run concurrently on different
/// threads (the runner's fan-out relies on this).  A single instance is
/// not thread-safe and not reusable: construct, run() once, read the
/// result.
class SystemSim {
 public:
  /// Builds the system: DRAM channels per `scheme`'s organization, an
  /// 8 MB LLC (plus the optional dedicated ECC cache), the stimulus source
  /// for `workload` (synthetic generators, or .ecctrace replay/recording
  /// per SimOptions), and the ECC Parity layout when the scheme uses it.
  /// Throws std::invalid_argument if the scheme's memory-line size is not
  /// a 64B multiple, tracefile::TraceError on a bad or mismatched
  /// trace_in.
  SystemSim(const ecc::SchemeDesc& scheme, const trace::WorkloadDesc& workload,
            const CpuConfig& cpu = CpuConfig{},
            const SimOptions& opts = SimOptions{});

  /// Runs to completion and returns the metrics: warms the LLC to steady
  /// state (no timing side effects), simulates until
  /// SimOptions::target_instructions commit or max_mem_cycles elapse, then
  /// drains outstanding traffic so energy accounting is complete.
  /// Deterministic: equal configuration and seed give bit-identical
  /// results on every run and thread.
  RunResult run();

 private:
  struct Core {
    std::uint64_t committed = 0;
    std::uint32_t gap_remaining = 0;
    std::optional<trace::MemOp> waiting_op;  ///< op blocked on MLP/queue
    unsigned outstanding_reads = 0;
  };

  // Memory request plumbing -------------------------------------------------
  struct PendingReq {
    dram::DramAddress addr;
    bool is_write;
    dram::LineClass line_class;
    std::uint64_t id;
  };

  /// Converts a global 64B-line index to the scheme's memory-line index.
  std::uint64_t mem_line_of(std::uint64_t line64) const {
    return line64 / lines64_per_memline_;
  }
  /// Folds a memory-line index into the memory system's data capacity.
  std::uint64_t capped_line(std::uint64_t memline) const {
    return memline % mem_.config().geometry().total_data_lines();
  }

  void cpu_cycle();
  void core_cycle(unsigned c);
  /// Runs the LLC access for one op; returns false if the core must retry
  /// (MLP exhausted or request queue full).
  bool execute_op(unsigned c, const trace::MemOp& op);
  /// Handles an LLC eviction (and the ECC traffic it triggers).
  void process_eviction(std::uint64_t addr, cache::LineKind kind);
  /// Demand read for a memory line; registers the waiting core (or none).
  bool request_read(std::uint64_t memline, int core);
  /// Hands a request to the memory system, queueing it if the channel is
  /// full.  Never called during warm-up, which moves no memory traffic.
  void send_or_queue(const PendingReq& req);
  void drain_pending();
  void handle_completions();

  // ECC traffic helpers -----------------------------------------------------
  /// The LLC key of the ECC/XOR cacheline covering a data memory line.
  std::uint64_t ecc_cacheline_key(std::uint64_t memline) const;
  /// The memory address of the ECC/parity line behind an ECC cacheline key.
  dram::DramAddress ecc_line_address(std::uint64_t key) const;
  /// True if the memory line lies in a SimOptions::faulty_banks bank.
  bool bank_is_faulty(std::uint64_t memline) const;

  /// The cache holding ECC/XOR lines: the LLC itself, or the optional
  /// dedicated ECC cache.
  cache::Cache& ecc_cache() {
    return dedicated_ecc_cache_ ? *dedicated_ecc_cache_ : llc_;
  }

  // Observability (SimOptions::stats) ---------------------------------------
  /// Registers components in the collector's registry; no-op when stats
  /// are off, so the members below stay null and the hot paths pay one
  /// predictable branch.
  void attach_stats();
  /// Final epoch sample, gauge capture, and the derived per-channel
  /// bandwidth / EPI epoch series.
  void finalize_stats();

  /// Creates and attaches the per-channel protocol checkers when
  /// SimOptions::protocol_check or ECCSIM_CHECK asks for them.
  void attach_protocol_checkers();

  /// Builds the stimulus source per SimOptions: synthetic generators or
  /// .ecctrace replay, optionally tee'd through a pre-LLC recorder, plus
  /// the post-LLC writer when asked for.  Throws tracefile::TraceError on
  /// a bad/mismatched trace_in.
  void build_source(const trace::WorkloadDesc& workload);
  /// Flushes footers on any open trace writers; throws TraceError on I/O
  /// failure so a truncated recording cannot pass silently.
  void close_trace_outputs();

  ecc::SchemeDesc scheme_;
  CpuConfig cpu_;
  SimOptions opts_;
  /// One checker per channel (empty when checking is off).  Declared
  /// before mem_ so the observers strictly outlive the channels, which
  /// emit residual refresh commands from finalize().
  std::vector<std::unique_ptr<check::ProtocolChecker>> checkers_;
  dram::MemorySystem mem_;
  cache::Cache llc_;
  std::unique_ptr<cache::Cache> dedicated_ecc_cache_;
  std::vector<Core> cores_;
  /// Stimulus: one MemOp stream per core (synthetic, replay, or recording
  /// tee).  Owned here; never null after construction.
  std::unique_ptr<trace::TraceSource> source_;
  /// Non-owning view of source_ when it is a pre-LLC recording tee (for
  /// counters and the end-of-run close).
  tracefile::RecordingSource* recording_ = nullptr;
  /// Non-owning view of source_ when it is a replay (for counters).
  tracefile::ReplaySource* replay_ = nullptr;
  /// Post-LLC capture: every DRAM request send_or_queue accepts after
  /// warmup, in issue order.
  std::unique_ptr<tracefile::TraceWriter> post_writer_;
  std::optional<eccparity::ParityLayout> parity_layout_;

  std::uint32_t lines64_per_memline_;
  bool warmup_ = false;  ///< suppresses memory traffic during LLC warmup
  std::uint64_t next_id_ = 1;
  std::deque<PendingReq> pending_;
  // In-flight demand reads: memline -> cores waiting on it.
  std::unordered_map<std::uint64_t, std::vector<int>> mshr_;
  std::unordered_map<std::uint64_t, std::uint64_t> id_to_memline_;

  // Observability state: all null/zero when SimOptions::stats is unset.
  stats::Registry* streg_ = nullptr;
  stats::Tracer* tracer_ = nullptr;
  stats::Counter* slow_path_hits_ = nullptr;
  std::uint32_t ecc_trace_tid_ = 0;
  std::uint64_t epoch_cycles_ = 0;
  std::uint64_t next_epoch_ = 0;
};

/// Convenience: run one (scheme, scale, workload) experiment -- the unit
/// of work the bench sweep fans out, one call per grid cell.
///
/// \param scheme         which Table II scheme to instantiate
/// \param scale          dual- or quad-channel-equivalent system sizing
/// \param workload_name  one of trace::paper_workloads() (throws
///                       std::out_of_range if unknown)
/// \param opts           run-control knobs; opts.seed selects the
///                       workload-stimulus RNG stream
RunResult run_experiment(ecc::SchemeId scheme, ecc::SystemScale scale,
                         const std::string& workload_name,
                         const SimOptions& opts = SimOptions{});

}  // namespace eccsim::sim
