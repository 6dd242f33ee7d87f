#include "dram/channel.hpp"

#include <algorithm>
#include <stdexcept>

#include "stats/scope.hpp"

namespace eccsim::dram {

namespace {

/// Trace-event labels per command; ECC-maintenance classes carry the
/// "eccparity" category so parity traffic is filterable in Perfetto.
const char* trace_cat(LineClass lc) {
  return lc == LineClass::kData ? "dram" : "dram,eccparity";
}

const char* trace_name(bool is_write, LineClass lc) {
  switch (lc) {
    case LineClass::kData: return is_write ? "WR" : "RD";
    case LineClass::kEccParity:
      return is_write ? "PARITY_WR" : "PARITY_RD";
    case LineClass::kEccCorrection:
      return is_write ? "ECC_CORR_WR" : "ECC_CORR_RD";
    case LineClass::kEccOther: return is_write ? "ECC_WR" : "ECC_RD";
  }
  return "?";
}

}  // namespace

const char* to_string(CmdKind kind) {
  switch (kind) {
    case CmdKind::kActivate: return "ACT";
    case CmdKind::kRead: return "RD";
    case CmdKind::kWrite: return "WR";
    case CmdKind::kPrecharge: return "PRE";
    case CmdKind::kRefresh: return "REF";
  }
  return "?";
}

Channel::Channel(const ChannelConfig& cfg) : cfg_(cfg) {
  if (cfg_.ranks == 0 || cfg_.banks == 0) {
    throw std::invalid_argument("Channel: ranks/banks must be nonzero");
  }
  if (cfg_.device.bank_groups == 0) {
    throw std::invalid_argument("Channel: device.bank_groups must be nonzero");
  }
  // The scheduler's wake cycle is exact only if no time term of
  // earliest_act() reaches past now + tRC (see channel.hpp).
  const auto& t = cfg_.device.timing;
  if (t.tXP > t.tRC || t.tRP > t.tRC || t.tCCD_L > t.tRC) {
    throw std::invalid_argument(
        "Channel: tXP, tRP and tCCD_L must not exceed tRC");
  }
  acts_.resize(cfg_.scheduler_window);
  ranks_.resize(cfg_.ranks);
  for (auto& r : ranks_) {
    r.banks.resize(cfg_.banks);
    r.next_act_rrd_l.resize(cfg_.device.bank_groups, 0);
    r.next_cas_group.resize(cfg_.device.bank_groups, 0);
    r.next_refresh = cfg_.device.timing.tREFI;
  }
}

bool Channel::enqueue(const MemRequest& req) {
  if (!can_accept()) return false;
  if (req.addr.rank >= cfg_.ranks || req.addr.bank >= cfg_.banks) {
    throw std::out_of_range("Channel::enqueue: rank/bank out of range");
  }
  // A request landing inside the window is a new candidate: decide again.
  if (queue_.size() < cfg_.scheduler_window) wake_ = 0;
  queue_.push_back(req);
  return true;
}

std::uint64_t Channel::earliest_act(const MemRequest& req,
                                    std::uint64_t now) const {
  const auto& t = cfg_.device.timing;
  const RankState& rank = ranks_[req.addr.rank];
  const BankState& bank = rank.banks[req.addr.bank];

  if (row_hit(bank, req, now)) {
    // Row hit: no ACT needed; the comparable "start" time is the CAS gate.
    return std::max(now, bank.next_cas);
  }

  std::uint64_t act = std::max(now, bank.next_act);
  if (cfg_.row_policy == RowPolicy::kOpenPage && bank.row_open) {
    // Row conflict: precharge the open row first.
    act = std::max(act, std::max(now, bank.earliest_pre) + t.tRP);
  }
  act = std::max(act, rank.next_act_rrd_s);
  act = std::max(act,
                 rank.next_act_rrd_l[cfg_.device.bank_group_of(req.addr.bank)]);
  // tFAW: a 5th ACT must wait for the oldest of the last 4 to age out.
  if (rank.act_times.size() >= 4) {
    act = std::max(act, rank.act_times.front() + t.tFAW);
  }
  // Power-down exit: if the rank has been idle past the timeout it is in
  // precharge power-down and costs tXP to wake.
  if (cfg_.powerdown_enabled && rank.active_until + cfg_.idle_pd_timeout < now) {
    act = std::max(act, now + t.tXP);
  }
  return act;
}

void Channel::charge_refresh(RankState& rank, std::uint32_t rank_idx) {
  stats_.energy.refresh_pj +=
      cfg_.device.energy.refresh_pj * cfg_.chips_per_rank;
  if (hooks_) hooks_->refreshes->inc();
  if (observer_) {
    emit_refresh(rank_idx, rank.next_refresh,
                 cfg_.device.refresh_set_of_ref(rank.refs_issued));
  }
  ++rank.refs_issued;
  rank.next_refresh += cfg_.device.timing.tREFI;
}

std::uint64_t Channel::apply_refresh(RankState& rank, std::uint32_t rank_idx,
                                     std::uint32_t bank_idx,
                                     std::uint64_t t_act) {
  const auto& t = cfg_.device.timing;
  // Consume refresh intervals that elapsed before this activate; each one
  // blocks its target banks for tRFC at its scheduled point if the ACT
  // would land inside the blackout.
  while (rank.next_refresh + t.tRFC <= t_act) {
    charge_refresh(rank, rank_idx);
  }
  if (t_act >= rank.next_refresh) {
    // The ACT falls inside the pending refresh's blackout window.  Under
    // all-bank refresh every ACT waits; under same-bank refresh (REFsb)
    // only ACTs to the refreshed bank set do -- others proceed, and the
    // pending REF stays unconsumed until time passes it.
    if (cfg_.device.refresh == RefreshPolicy::kAllBank ||
        cfg_.device.refresh_set_of_ref(rank.refs_issued) ==
            cfg_.device.refresh_set_of_bank(bank_idx)) {
      const std::uint64_t blackout_end = rank.next_refresh + t.tRFC;
      charge_refresh(rank, rank_idx);
      t_act = blackout_end;
    }
  }
  return t_act;
}

void Channel::emit_refresh(std::uint32_t rank_idx, std::uint64_t cycle,
                           std::uint32_t bank_set) {
  DramCommand cmd;
  cmd.kind = CmdKind::kRefresh;
  cmd.cycle = cycle;
  cmd.rank = rank_idx;
  cmd.bank = bank_set;
  observer_->on_command(cmd);
}

Channel::BackgroundParts Channel::background_pj_between(
    const RankState& rank, std::uint64_t from, std::uint64_t until) const {
  const auto& e = cfg_.device.energy;
  const double chips = cfg_.chips_per_rank;
  BackgroundParts parts;

  // Split [from, until) into: active-standby while any bank is open
  // (<= active_until), then precharge standby for the idle timeout, then
  // power-down for the remainder.
  if (from < rank.active_until) {
    const std::uint64_t active_span = std::min(until, rank.active_until) - from;
    parts.active_pj = static_cast<double>(active_span) * e.bg_act_pj_cyc *
                      chips;
    from += active_span;
  }
  if (from < until) {
    const std::uint64_t idle_span = until - from;
    std::uint64_t standby_span = idle_span;
    std::uint64_t pd_span = 0;
    if (cfg_.powerdown_enabled) {
      // The rank idles in precharge standby for idle_pd_timeout cycles
      // after its last precharge, then drops into power-down.
      const std::uint64_t already_idle = from - rank.active_until;
      const std::uint64_t timeout = cfg_.idle_pd_timeout;
      if (already_idle >= timeout) {
        standby_span = 0;
        pd_span = idle_span;
      } else if (idle_span > timeout - already_idle) {
        standby_span = timeout - already_idle;
        pd_span = idle_span - standby_span;
      }
    }
    parts.idle_pj = static_cast<double>(standby_span) * e.bg_pre_pj_cyc *
                        chips +
                    static_cast<double>(pd_span) * e.bg_pd_pj_cyc * chips;
  }
  return parts;
}

void Channel::account_background(RankState& rank, std::uint64_t until) {
  if (until <= rank.bg_accounted_until) return;
  const BackgroundParts parts =
      background_pj_between(rank, rank.bg_accounted_until, until);
  // Two separate adds, matching the pre-refactor accumulation order
  // exactly (x += 0.0 is exact for the finite non-negative tallies here).
  stats_.energy.background_pj += parts.active_pj;
  stats_.energy.background_pj += parts.idle_pj;
  rank.bg_accounted_until = until;
}

ChannelStats Channel::peek_stats(std::uint64_t now) const {
  ChannelStats s = stats_;
  const auto& t = cfg_.device.timing;
  for (const RankState& rank : ranks_) {
    // Residual refresh intervals finalize(now) would still charge.
    std::uint64_t next_refresh = rank.next_refresh;
    while (next_refresh < now) {
      s.energy.refresh_pj +=
          cfg_.device.energy.refresh_pj * cfg_.chips_per_rank;
      next_refresh += t.tREFI;
    }
    if (now > rank.bg_accounted_until) {
      const BackgroundParts parts =
          background_pj_between(rank, rank.bg_accounted_until, now);
      s.energy.background_pj += parts.active_pj;
      s.energy.background_pj += parts.idle_pj;
    }
  }
  return s;
}

void Channel::attach_stats(stats::Registry& reg, const std::string& prefix,
                           stats::Tracer* tracer, std::uint32_t tracer_tid) {
  hooks_ = std::make_unique<StatHooks>();
  hooks_->acts = reg.counter(prefix + ".acts");
  hooks_->refreshes = reg.counter(prefix + ".refreshes");
  hooks_->bank_acts.reserve(std::size_t{cfg_.ranks} * cfg_.banks);
  for (std::uint32_t r = 0; r < cfg_.ranks; ++r) {
    for (std::uint32_t b = 0; b < cfg_.banks; ++b) {
      hooks_->bank_acts.push_back(reg.counter(
          prefix + ".bank" + std::to_string(r * cfg_.banks + b) + ".acts"));
    }
  }
  hooks_->read_latency =
      reg.histogram(prefix + ".read_latency", 0.0, 2000.0, 100);
  hooks_->queue_depth = reg.distribution(prefix + ".queue_depth");

  // Polled gauges over the counters the channel keeps anyway for its
  // functional results, so the hot path is not touched twice.  Energy
  // gauges go through peek_stats so every epoch sample sees background
  // and refresh energy integrated up to the sample cycle.
  reg.gauge(prefix + ".reads", [this](std::uint64_t) {
    return static_cast<double>(stats_.reads);
  });
  reg.gauge(prefix + ".writes", [this](std::uint64_t) {
    return static_cast<double>(stats_.writes);
  });
  reg.gauge(prefix + ".ecc_reads", [this](std::uint64_t) {
    return static_cast<double>(stats_.ecc_reads);
  });
  reg.gauge(prefix + ".ecc_writes", [this](std::uint64_t) {
    return static_cast<double>(stats_.ecc_writes);
  });
  reg.gauge(prefix + ".busy_data_cycles", [this](std::uint64_t) {
    return static_cast<double>(stats_.busy_data_cycles);
  });
  reg.gauge(prefix + ".row_hits", [this](std::uint64_t) {
    return static_cast<double>(row_hits_);
  });
  reg.gauge(prefix + ".energy.dynamic_pj", [this](std::uint64_t) {
    return stats_.energy.dynamic_pj();
  });
  reg.gauge(prefix + ".energy.refresh_pj", [this](std::uint64_t cycle) {
    return peek_stats(cycle).energy.refresh_pj;
  });
  reg.gauge(prefix + ".energy.background_pj", [this](std::uint64_t cycle) {
    return peek_stats(cycle).energy.background_pj;
  });
  reg.gauge(prefix + ".energy.total_pj", [this](std::uint64_t cycle) {
    return peek_stats(cycle).energy.total_pj();
  });

  tracer_ = tracer;
  tracer_tid_ = tracer_tid;
  if (tracer_) tracer_->set_thread_name(tracer_tid_, prefix);
}

std::uint64_t Channel::issue(const MemRequest& req, std::uint64_t now) {
  const auto& t = cfg_.device.timing;
  const auto& e = cfg_.device.energy;
  RankState& rank = ranks_[req.addr.rank];
  BankState& bank = rank.banks[req.addr.bank];

  const std::uint32_t group = cfg_.device.bank_group_of(req.addr.bank);

  // Open-page row hit: CAS straight into the open row, no ACT energy.
  if (row_hit(bank, req, now)) {
    const unsigned cas_lat = req.is_write ? t.tCWL : t.tCL;
    std::uint64_t data_start =
        std::max(now, bank.next_cas) + cas_lat;
    std::uint64_t bus_ready = bus_free_;
    if (last_was_write_ && !req.is_write) bus_ready += t.tWTR;
    else if (!last_was_write_ && req.is_write) bus_ready += t.tRTW;
    data_start = std::max(data_start, bus_ready);
    // CAS command spacing: tCCD_S channel-wide, tCCD_L within the bank
    // group.  Both degenerate to the bus booking above for DDR3.
    data_start = std::max(data_start, next_cas_any_ + cas_lat);
    data_start =
        std::max(data_start, rank.next_cas_group[group] + cas_lat);
    const std::uint64_t data_end = data_start + t.tBurst;
    const std::uint64_t t_cas = data_start - cas_lat;

    bank.next_cas = t_cas + t.tCCD_L;
    next_cas_any_ = t_cas + t.tCCD_S;
    rank.next_cas_group[group] = t_cas + t.tCCD_L;
    bank.earliest_pre = std::max(
        bank.earliest_pre,
        req.is_write ? data_end + t.tWR : t_cas + t.tRTP);
    bank.last_use = data_end;
    ++row_hits_;

    account_background(rank, now);
    rank.active_until = std::max(rank.active_until,
                                 data_end + cfg_.open_row_timeout);

    const double chips = cfg_.chips_per_rank;
    if (req.is_write) {
      stats_.energy.write_pj += e.wr_burst_pj * chips;
      ++stats_.writes;
      if (req.line_class != LineClass::kData) ++stats_.ecc_writes;
    } else {
      stats_.energy.read_pj += e.rd_burst_pj * chips;
      ++stats_.reads;
      if (req.line_class != LineClass::kData) ++stats_.ecc_reads;
      stats_.read_latency_sum += data_end - req.enqueue_cycle;
    }
    stats_.busy_data_cycles += t.tBurst;
    bus_free_ = data_end;
    last_was_write_ = req.is_write;
    completions_.push(PendingCompletion{
        data_end, MemCompletion{req.id, req.is_write, data_end}});
    if (hooks_) {
      if (!req.is_write) {
        hooks_->read_latency->add(
            static_cast<double>(data_end - req.enqueue_cycle));
      }
      hooks_->queue_depth->add(static_cast<double>(queue_.size()));
    }
    if (tracer_) {
      tracer_->duration(
          trace_cat(req.line_class), trace_name(req.is_write, req.line_class),
          data_start, data_end, tracer_tid_,
          {{"bank", static_cast<double>(req.addr.rank * cfg_.banks +
                                        req.addr.bank)},
           {"row", static_cast<double>(req.addr.row)}});
    }
    if (observer_) {
      DramCommand cmd;
      cmd.kind = req.is_write ? CmdKind::kWrite : CmdKind::kRead;
      cmd.cycle = t_cas;
      cmd.rank = req.addr.rank;
      cmd.bank = req.addr.bank;
      cmd.row = req.addr.row;
      cmd.col = req.addr.col;
      cmd.data_start = data_start;
      cmd.data_end = data_end;
      cmd.line_class = req.line_class;
      observer_->on_command(cmd);
    }
    return data_end;
  }

  // Captured before the booking below overwrites the bank state: an
  // open-page row conflict implies an explicit precharge of the old row,
  // which the observer must see to keep its bank-state machine accurate.
  const bool conflict_pre =
      cfg_.row_policy == RowPolicy::kOpenPage && bank.row_open;
  const std::uint64_t conflict_row = bank.open_row;

  std::uint64_t t_act = earliest_act(req, now);
  t_act = apply_refresh(rank, req.addr.rank, req.addr.bank, t_act);

  // CAS data placement: first data cycle respects tRCD + CAS latency and
  // the shared bus (with turnaround when direction changes).
  const unsigned cas_lat = req.is_write ? t.tCWL : t.tCL;
  std::uint64_t data_start = t_act + t.tRCD + cas_lat;
  std::uint64_t bus_ready = bus_free_;
  if (last_was_write_ && !req.is_write) {
    bus_ready += t.tWTR;  // write-to-read turnaround
  } else if (!last_was_write_ && req.is_write) {
    bus_ready += t.tRTW;  // read-to-write turnaround
  }
  data_start = std::max(data_start, bus_ready);
  // CAS command spacing: tCCD_S channel-wide, tCCD_L within the bank
  // group.  Both degenerate to the bus booking above for DDR3 (where
  // tCCD_S == tCCD_L == tBurst); tCCD_L > tBurst inserts the DDR4/DDR5
  // same-group bubble.
  data_start = std::max(data_start, next_cas_any_ + cas_lat);
  data_start = std::max(data_start, rank.next_cas_group[group] + cas_lat);
  const std::uint64_t data_end = data_start + t.tBurst;
  const std::uint64_t t_cas = data_start - cas_lat;  // implied CAS issue

  // Close-page policy: auto-precharge after the access.
  std::uint64_t precharge_start;
  if (req.is_write) {
    precharge_start = data_end + t.tWR;
  } else {
    precharge_start = std::max<std::uint64_t>(t_cas + t.tRTP, t_act + t.tRAS);
  }
  precharge_start = std::max<std::uint64_t>(precharge_start, t_act + t.tRAS);
  const std::uint64_t precharge_done = precharge_start + t.tRP;

  // Book bank/rank state.
  if (cfg_.row_policy == RowPolicy::kOpenPage) {
    // The row stays open; remember what a future precharge must respect.
    bank.row_open = true;
    bank.open_row = req.addr.row;
    bank.act_time = t_act;
    bank.earliest_pre = precharge_start;
    bank.next_cas = (data_end - t.tBurst - (req.is_write ? t.tCWL : t.tCL)) +
                    t.tCCD_L;
    bank.last_use = data_end;
    bank.next_act = t_act + t.tRC;
  } else {
    bank.next_act = std::max(precharge_done, t_act + t.tRC);
  }
  next_cas_any_ = t_cas + t.tCCD_S;
  rank.next_cas_group[group] = t_cas + t.tCCD_L;
  rank.next_act_rrd_s = t_act + t.tRRD_S;
  rank.next_act_rrd_l[group] = t_act + t.tRRD_L;
  rank.act_times.push_back(t_act);
  while (rank.act_times.size() > 4) rank.act_times.pop_front();

  // Background accounting: charge everything up to this ACT first (the
  // rank's standby/power-down history), then extend the active window.
  account_background(rank, t_act);
  rank.active_until = std::max(
      rank.active_until,
      cfg_.row_policy == RowPolicy::kOpenPage
          ? data_end + cfg_.open_row_timeout
          : precharge_done);

  // Energy: all chips in the rank activate and burst together (this is the
  // heart of the cross-scheme dynamic-energy differences: 36 chips for
  // commercial chipkill vs 5 for LOT-ECC5).
  const double chips = cfg_.chips_per_rank;
  stats_.energy.activate_pj += e.act_pj * chips;
  if (req.is_write) {
    stats_.energy.write_pj += e.wr_burst_pj * chips;
    ++stats_.writes;
    if (req.line_class != LineClass::kData) ++stats_.ecc_writes;
  } else {
    stats_.energy.read_pj += e.rd_burst_pj * chips;
    ++stats_.reads;
    if (req.line_class != LineClass::kData) ++stats_.ecc_reads;
    stats_.read_latency_sum += data_end - req.enqueue_cycle;
  }
  stats_.busy_data_cycles += t.tBurst;

  bus_free_ = data_end;
  last_was_write_ = req.is_write;

  completions_.push(PendingCompletion{
      data_end, MemCompletion{req.id, req.is_write, data_end}});
  if (hooks_) {
    hooks_->acts->inc();
    hooks_->bank_acts[req.addr.rank * cfg_.banks + req.addr.bank]->inc();
    if (!req.is_write) {
      hooks_->read_latency->add(
          static_cast<double>(data_end - req.enqueue_cycle));
    }
    hooks_->queue_depth->add(static_cast<double>(queue_.size()));
  }
  if (tracer_) {
    tracer_->duration(
        trace_cat(req.line_class), trace_name(req.is_write, req.line_class),
        data_start, data_end, tracer_tid_,
        {{"bank", static_cast<double>(req.addr.rank * cfg_.banks +
                                      req.addr.bank)},
         {"row", static_cast<double>(req.addr.row)}});
  }
  if (observer_) {
    DramCommand cmd;
    cmd.rank = req.addr.rank;
    cmd.bank = req.addr.bank;
    cmd.col = req.addr.col;
    cmd.line_class = req.line_class;
    if (conflict_pre) {
      // The precharge closing the old row: earliest_act() placed the ACT
      // at least tRP after it, so its start is exactly t_act - tRP (or
      // earlier; t_act - tRP is the latest legal reconstruction).
      cmd.kind = CmdKind::kPrecharge;
      cmd.cycle = t_act - t.tRP;
      cmd.row = conflict_row;
      observer_->on_command(cmd);
    }
    cmd.kind = CmdKind::kActivate;
    cmd.cycle = t_act;
    cmd.row = req.addr.row;
    observer_->on_command(cmd);
    cmd.kind = req.is_write ? CmdKind::kWrite : CmdKind::kRead;
    cmd.cycle = t_cas;
    cmd.data_start = data_start;
    cmd.data_end = data_end;
    cmd.auto_precharge = cfg_.row_policy == RowPolicy::kClosePage;
    observer_->on_command(cmd);
    if (cfg_.row_policy == RowPolicy::kClosePage) {
      cmd.kind = CmdKind::kPrecharge;
      cmd.cycle = precharge_start;
      cmd.data_start = 0;
      cmd.data_end = 0;
      cmd.auto_precharge = true;
      observer_->on_command(cmd);
    }
  }
  return data_end;
}

void Channel::tick(std::uint64_t now, std::vector<MemCompletion>& out) {
  // Deliver finished transactions.
  while (!completions_.empty() && completions_.top().finish <= now) {
    out.push_back(completions_.top().completion);
    completions_.pop();
  }

  // Before wake_ no candidate can issue (see channel.hpp), so the
  // decision would come out "wait" on every skipped cycle.
  if (queue_.empty() || now < wake_) return;
  STATS_SCOPE("dram.scheduler");

  // Scheduler: examine up to `scheduler_window` oldest transactions, pick
  // the one that can activate earliest; break ties in favor of the
  // (rank, bank, row) with the most queued requests (DRAMsim's
  // Most-Pending policy), then age.  A window of 1 is strict FCFS.
  const std::size_t window =
      std::min<std::size_t>(queue_.size(), cfg_.scheduler_window);
  std::size_t best = 0;
  std::uint64_t best_act = ~0ULL;
  std::size_t ties = 0;
  for (std::size_t i = 0; i < window; ++i) {
    const MemRequest& cand = queue_[i];
    const std::uint64_t act = earliest_act(cand, now);
    acts_[i] = act;
    if (act < best_act) {
      best = i;
      best_act = act;
      ties = 1;
    } else if (act == best_act) {
      ++ties;
    }
  }

  // Issue only when the winner can start "soon": we avoid booking a
  // transaction far in the future so that later arrivals can still compete.
  const auto& t = cfg_.device.timing;
  if (best_act > now + t.tRC) {
    wake_ = best_act - t.tRC;
    return;
  }

  // Most-Pending tie-break, counted only for the candidates that tie at
  // best_act: the first with the most same-row requests in the window.
  if (ties > 1) {
    std::size_t best_pending = 0;
    for (std::size_t i = best; i < window; ++i) {
      if (acts_[i] != best_act) continue;
      const MemRequest& cand = queue_[i];
      std::size_t same_row = 0;
      for (std::size_t j = 0; j < window; ++j) {
        const MemRequest& o = queue_[j];
        if (o.addr.rank == cand.addr.rank && o.addr.bank == cand.addr.bank &&
            o.addr.row == cand.addr.row) {
          ++same_row;
        }
      }
      if (same_row > best_pending) {
        best = i;
        best_pending = same_row;
      }
    }
  }

  const MemRequest req = queue_[best];
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best));
  issue(req, now);
  wake_ = 0;
}

void Channel::finalize(std::uint64_t end_cycle) {
  for (std::uint32_t r = 0; r < ranks_.size(); ++r) {
    RankState& rank = ranks_[r];
    // Charge residual refresh energy for intervals that elapsed with no
    // traffic to trigger apply_refresh().
    while (rank.next_refresh < end_cycle) {
      charge_refresh(rank, r);
    }
    account_background(rank, end_cycle);
  }
}

}  // namespace eccsim::dram
