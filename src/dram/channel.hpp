// One DRAM channel: transaction queue, Most-Pending scheduler, bank/rank
// timing state, close-page row policy, rank power-down, refresh, and energy
// accounting.
//
// Modeling approach: forward scheduling.  When the scheduler selects a
// transaction it computes the earliest cycle every device constraint allows
// (bank tRC/tRP recovery, rank tRRD_S/tRRD_L and tFAW, bank-group
// tCCD_S/tCCD_L command spacing, power-down exit tXP, refresh blackout,
// shared data bus with read/write turnaround) and books the command's
// effects (bank recovery point, bus occupancy, activate energy, rank active
// window) into the future.  Completions are delivered from a min-heap when
// simulated time reaches them.  This reproduces DDR service times and
// utilization without per-cycle FSM stepping, which keeps the full
// 16-workload x 8-scheme sweep tractable on one host core.
//
// Every timing/energy number comes from the ChannelConfig's DramSpec (see
// dram/spec.hpp): generations without bank groups (DDR3) set the _S and _L
// constraints equal, which makes the group gates degenerate to the classic
// single-rank constraints; same-bank refresh (DDR5 REFsb) rotates REF
// commands through bank sets and only blacks out the targeted set.
//
// Scheduling decisions are event-driven.  A decision issues the window's
// best candidate only if it can activate within tRC of `now`; when none
// can, tick() skips every cycle before a wake cycle at which the decision
// could first come out differently.  The skip is exact, not approximate:
// earliest_act(req, now) depends on `now` only through max(now, ...),
// now + tXP (power-down exit), max(now, earliest_pre) + tRP (open-page
// conflict) and the open-page row-hit test now <= last_use +
// open_row_timeout.  The constructor requires tXP <= tRC and tRP <= tRC,
// so every time term is at most now + tRC: a candidate that cannot issue
// at `now` has a start time fixed by state alone, and nothing can issue
// before best_act - tRC.  That state changes only by an issue or by an
// enqueue that lands inside the window, and both reset the wake.  A
// window row hit cannot expire before the wake either: an access books
// next_cas = t_cas + tCCD_L and last_use = t_cas + CAS latency + tBurst
// together, so a waiting hit (act == next_cas) is still a hit at
// act - tRC >= best_act - tRC, given the constructor's tCCD_L <= tRC.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "dram/spec.hpp"
#include "dram/observer.hpp"
#include "dram/request.hpp"
#include "stats/stats.hpp"
#include "stats/trace.hpp"

namespace eccsim::dram {

/// Energy tally in picojoules, split the way Figs. 12/13 report it:
/// dynamic (activate + read/write bursts) vs background (standby,
/// power-down, refresh).
struct EnergyBreakdown {
  double activate_pj = 0;
  double read_pj = 0;
  double write_pj = 0;
  double refresh_pj = 0;
  double background_pj = 0;

  double dynamic_pj() const { return activate_pj + read_pj + write_pj; }
  double total_pj() const { return dynamic_pj() + refresh_pj + background_pj; }

  void add(const EnergyBreakdown& o) {
    activate_pj += o.activate_pj;
    read_pj += o.read_pj;
    write_pj += o.write_pj;
    refresh_pj += o.refresh_pj;
    background_pj += o.background_pj;
  }
};

/// Traffic and latency counters for one channel.
struct ChannelStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t ecc_reads = 0;   ///< reads with LineClass != kData
  std::uint64_t ecc_writes = 0;  ///< writes with LineClass != kData
  std::uint64_t read_latency_sum = 0;  ///< enqueue -> data (cycles)
  std::uint64_t busy_data_cycles = 0;  ///< data-bus occupancy
  EnergyBreakdown energy;
};

/// Row-buffer management policy.
enum class RowPolicy : std::uint8_t {
  /// Auto-precharge after every access (the paper's choice, Sec. IV-B):
  /// banks return to precharged immediately, letting idle ranks sleep.
  kClosePage,
  /// Keep the row open until a conflict or an idle timeout: cheaper row
  /// hits, but ranks stay in active standby longer.
  kOpenPage,
};

/// Configuration of one channel (shared by all channels of a system).
/// A "channel" here is one independently-scheduled command/data bus: for
/// DDR5 each physical channel contributes device.sub_channels of these,
/// each owning chips_per_rank / sub_channels chips (hence the double).
struct ChannelConfig {
  DramSpec device;
  std::uint32_t ranks = 1;
  std::uint32_t banks = 8;
  double chips_per_rank = 18;  ///< all chips incl. ECC: they all activate
                               ///< and burst together; fractional when a
                               ///< physical rank splits across sub-channels
  std::uint32_t queue_depth = 64;
  /// Oldest transactions examined per decision by DRAMsim's Most-Pending
  /// policy (ready-first, row-match tiebreak); 1 is strict arrival order.
  std::uint32_t scheduler_window = 16;
  std::uint32_t idle_pd_timeout = 100;  ///< cycles idle before power-down
  bool powerdown_enabled = true;        ///< close-page sleep (Sec. IV-B)
  RowPolicy row_policy = RowPolicy::kClosePage;
  std::uint32_t open_row_timeout = 200;  ///< idle-close under open-page
};

/// A single memory channel.
class Channel {
 public:
  explicit Channel(const ChannelConfig& cfg);

  /// True if the transaction queue has room.
  bool can_accept() const { return queue_.size() < cfg_.queue_depth; }

  /// Enqueues a transaction; returns false if the queue is full.
  bool enqueue(const MemRequest& req);

  /// Advances to `now`, scheduling as many transactions as constraints
  /// allow and appending finished requests to `out`.
  void tick(std::uint64_t now, std::vector<MemCompletion>& out);

  /// Number of queued-but-unscheduled transactions.
  std::size_t pending() const { return queue_.size(); }
  /// Number of scheduled transactions whose completion has not been
  /// delivered yet.
  std::size_t in_flight() const { return completions_.size(); }

  /// Finalizes background-energy integration up to `end_cycle`.  Call once
  /// when the simulation stops; tick() must not be called afterwards.
  void finalize(std::uint64_t end_cycle);

  const ChannelStats& stats() const { return stats_; }
  const ChannelConfig& config() const { return cfg_; }

  /// Row-buffer hit statistics (meaningful under open-page).
  std::uint64_t row_hits() const { return row_hits_; }

  /// Statistics as they would look if the channel finalized at `now`:
  /// stats() plus background-standby/power-down energy and residual
  /// refresh energy integrated up to `now`.  Pure observation -- never
  /// mutates, so peeking mid-run cannot perturb the simulation, and a
  /// peek immediately before finalize(now) matches it exactly.
  ChannelStats peek_stats(std::uint64_t now) const;

  /// Registers this channel's observability stats in `reg` under
  /// `prefix` (e.g. "dram.ch0"): polled gauges over the counters the
  /// channel already keeps, push counters for ACTs (total and per bank),
  /// refreshes, a read-latency histogram, and a queue-depth
  /// distribution.  When `tracer` is non-null every issued command is
  /// mirrored as a Chrome trace event on track `tracer_tid`.  Call once,
  /// before traffic; `reg` and `tracer` must outlive the channel's use.
  void attach_stats(stats::Registry& reg, const std::string& prefix,
                    stats::Tracer* tracer = nullptr,
                    std::uint32_t tracer_tid = 0);

  /// Attaches a passive command observer (see dram/observer.hpp): every
  /// booked ACT / RD / WR / PRE / REF is mirrored to it with the exact
  /// cycle the scheduler assigned.  Pass nullptr to detach.  The observer
  /// must outlive the channel's use (including finalize(), which emits the
  /// residual refresh commands).  Observation only: results are
  /// bit-identical with or without an observer.
  void set_observer(CommandObserver* observer) { observer_ = observer; }

 private:
  struct BankState {
    std::uint64_t next_act = 0;  ///< earliest cycle an ACT may issue
    // Open-page state: the currently-open row, if any, and the timing
    // anchors needed to precharge or CAS it.
    bool row_open = false;
    std::uint64_t open_row = 0;
    std::uint64_t act_time = 0;      ///< when the open row was activated
    std::uint64_t earliest_pre = 0;  ///< tRAS / tRTP / tWR recovery point
    std::uint64_t next_cas = 0;      ///< tRCD / tCCD_L gate for the open row
    std::uint64_t last_use = 0;      ///< for the idle-close timeout
  };

  struct RankState {
    std::vector<BankState> banks;
    std::uint64_t next_act_rrd_s = 0;  ///< tRRD_S gate (any bank group)
    std::vector<std::uint64_t> next_act_rrd_l;  ///< tRRD_L gate, per group
    std::vector<std::uint64_t> next_cas_group;  ///< tCCD_L gate, per group
    std::deque<std::uint64_t> act_times;  ///< last ACTs for tFAW
    std::uint64_t active_until = 0;     ///< last cycle any bank is active
    std::uint64_t next_refresh = 0;
    std::uint64_t refs_issued = 0;  ///< REFs so far (drives REFsb rotation)
    // Background integration state: everything before bg_accounted_until
    // has been charged.
    std::uint64_t bg_accounted_until = 0;
  };

  /// True if `req` is an open-page row hit at `now` (CAS, no ACT).
  bool row_hit(const BankState& bank, const MemRequest& req,
               std::uint64_t now) const {
    return cfg_.row_policy == RowPolicy::kOpenPage && bank.row_open &&
           bank.open_row == req.addr.row &&
           now <= bank.last_use + cfg_.open_row_timeout;
  }

  /// Computes the earliest ACT cycle for a transaction, given all
  /// constraints, without mutating state.
  std::uint64_t earliest_act(const MemRequest& req, std::uint64_t now) const;

  /// Books a transaction: advances bank/rank/bus state, charges energy,
  /// schedules the completion.  Returns the data-finish cycle.
  std::uint64_t issue(const MemRequest& req, std::uint64_t now);

  /// Background energy (pJ) one rank accrues over [from, until), given
  /// its current active/standby/power-down phase boundaries.  Const: the
  /// single source of truth shared by account_background (which also
  /// advances the rank's accounting marker) and peek_stats (which must
  /// not).  The active-standby and idle (precharge-standby + power-down)
  /// contributions stay separate so both callers can accumulate them in
  /// the exact order the original single-caller code did -- summing them
  /// first would perturb the last ULP of the committed energy numbers.
  struct BackgroundParts {
    double active_pj = 0;
    double idle_pj = 0;
  };
  BackgroundParts background_pj_between(const RankState& rank,
                                        std::uint64_t from,
                                        std::uint64_t until) const;

  /// Charges background energy for one rank up to `until`.
  void account_background(RankState& rank, std::uint64_t until);

  /// Applies any refresh blackout overlapping [t, ...) and charges refresh
  /// energy; returns the possibly-delayed ACT time.  Under kAllBank a
  /// blackout delays every bank of the rank; under kSameBank only ACTs to
  /// the refreshed bank set wait, identified via `bank_idx`.
  std::uint64_t apply_refresh(RankState& rank, std::uint32_t rank_idx,
                              std::uint32_t bank_idx, std::uint64_t t_act);

  /// Charges one REF's energy, mirrors it to the observer, and advances the
  /// rank's refresh schedule (next_refresh, refs_issued).
  void charge_refresh(RankState& rank, std::uint32_t rank_idx);

  /// Mirrors one REF command to the observer (observer_ must be non-null).
  /// `bank_set` is the refreshed bank set (always 0 under kAllBank).
  void emit_refresh(std::uint32_t rank_idx, std::uint64_t cycle,
                    std::uint32_t bank_set);

  ChannelConfig cfg_;
  std::vector<RankState> ranks_;
  std::deque<MemRequest> queue_;
  // Event-driven scheduling (see the note at the top of this file): no
  // decision runs before wake_; acts_ holds each window candidate's
  // earliest start during one decision.
  std::uint64_t wake_ = 0;
  std::vector<std::uint64_t> acts_;

  // Shared data bus: next free cycle, and whether the last burst was a
  // write (for turnaround penalties).
  std::uint64_t bus_free_ = 0;
  bool last_was_write_ = false;
  // Channel-wide CAS spacing gate: earliest cycle the next CAS command may
  // issue (last CAS + tCCD_S).  Never binds for DDR3, where tCCD_S equals
  // the burst length and the bus booking already spaces CAS commands.
  std::uint64_t next_cas_any_ = 0;

  struct PendingCompletion {
    std::uint64_t finish;
    MemCompletion completion;
    bool operator>(const PendingCompletion& o) const {
      return finish > o.finish;
    }
  };
  std::priority_queue<PendingCompletion, std::vector<PendingCompletion>,
                      std::greater<>>
      completions_;

  ChannelStats stats_;
  std::uint64_t row_hits_ = 0;

  // Observability hooks (attach_stats): resolved once, null when stats
  // are off so the hot path pays a single predictable branch.
  struct StatHooks {
    stats::Counter* acts = nullptr;
    stats::Counter* refreshes = nullptr;
    std::vector<stats::Counter*> bank_acts;  ///< rank-major, banks minor
    stats::Histogram* read_latency = nullptr;
    RunningStat* queue_depth = nullptr;
  };
  std::unique_ptr<StatHooks> hooks_;
  stats::Tracer* tracer_ = nullptr;
  std::uint32_t tracer_tid_ = 0;
  CommandObserver* observer_ = nullptr;
};

}  // namespace eccsim::dram
