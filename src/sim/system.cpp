#include "sim/system.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <unordered_set>

namespace eccsim::sim {

namespace {

std::uint32_t faulty_key(const dram::DramAddress& a) {
  return (a.channel << 16) | (a.rank << 8) | a.bank;
}

// Namespace tag for LLC keys (data lines use their raw 64B index; XOR
// cachelines carry ParityLayout's 1<<62 tag).
constexpr std::uint64_t kEccKeyTag = 1ULL << 63;

/// ECCSIM_CHECK set to anything but "0" enables the protocol checker for
/// every run in the process (the CI sweeps use this).
bool protocol_check_env() {
  const char* v = std::getenv("ECCSIM_CHECK");
  return v != nullptr && std::strcmp(v, "0") != 0;
}

}  // namespace

SystemSim::SystemSim(const ecc::SchemeDesc& scheme,
                     const trace::WorkloadDesc& workload,
                     const CpuConfig& cpu, const SimOptions& opts)
    : scheme_(scheme),
      cpu_(cpu),
      opts_(opts),
      mem_([&] {
        const dram::Generation gen = opts.dram_gen
            ? *opts.dram_gen
            : dram::generation_from_env().value_or(dram::Generation::kDdr3);
        dram::MemSystemConfig cfg = scheme.mem_config(gen);
        cfg.powerdown_enabled = opts.powerdown_enabled;
        cfg.row_policy = opts.row_policy;
        return cfg;
      }()),
      llc_(cache::CacheConfig{}),
      lines64_per_memline_(scheme.line_bytes / 64) {
  if (opts.dedicated_ecc_cache_bytes != 0) {
    cache::CacheConfig ecc_cfg;
    ecc_cfg.size_bytes = opts.dedicated_ecc_cache_bytes;
    ecc_cfg.ways = 8;
    dedicated_ecc_cache_ = std::make_unique<cache::Cache>(ecc_cfg);
  }
  if (scheme.line_bytes % 64 != 0) {
    throw std::invalid_argument("SystemSim: line size must be 64B multiple");
  }
  cores_.resize(cpu_.cores);
  build_source(workload);
  if (scheme.uses_ecc_parity) {
    const unsigned corr_bytes = static_cast<unsigned>(
        scheme.correction_ratio * scheme.line_bytes);
    parity_layout_.emplace(mem_.config().geometry(), corr_bytes);
  }
  attach_protocol_checkers();
  attach_stats();
}

void SystemSim::build_source(const trace::WorkloadDesc& workload) {
  if (!opts_.trace_in.empty()) {
    auto replay = std::make_unique<tracefile::ReplaySource>(opts_.trace_in);
    // The trace must have been recorded for this exact configuration: the
    // workload name pins the calibrated descriptor (and thus the run's
    // label) and the core count pins the per-core demultiplexing.
    if (replay->workload().name != workload.name) {
      throw tracefile::TraceError(
          "ecctrace: " + opts_.trace_in + " records workload '" +
          replay->workload().name + "' but the run asked for '" +
          workload.name + "'");
    }
    if (replay->cores() != cpu_.cores) {
      throw tracefile::TraceError(
          "ecctrace: " + opts_.trace_in + " records " +
          std::to_string(replay->cores()) + " cores but the run has " +
          std::to_string(cpu_.cores));
    }
    replay_ = replay.get();
    source_ = std::move(replay);
  } else {
    source_ = std::make_unique<trace::SyntheticSource>(workload, cpu_.cores,
                                                       opts_.seed);
  }
  if (!opts_.trace_out.empty()) {
    if (opts_.trace_point == tracefile::CapturePoint::kPreLlc) {
      auto rec = std::make_unique<tracefile::RecordingSource>(
          std::move(source_), opts_.trace_out, opts_.seed);
      recording_ = rec.get();
      source_ = std::move(rec);
    } else {
      tracefile::TraceMeta meta;
      meta.point = tracefile::CapturePoint::kPostLlc;
      meta.cores = cpu_.cores;
      meta.seed = opts_.seed;
      meta.workload = workload.name;
      post_writer_ =
          std::make_unique<tracefile::TraceWriter>(opts_.trace_out, meta);
    }
  }
}

void SystemSim::close_trace_outputs() {
  if (recording_ != nullptr) recording_->writer().close();
  if (post_writer_) post_writer_->close();
}

void SystemSim::attach_protocol_checkers() {
  if (!opts_.protocol_check && !protocol_check_env()) return;
  const dram::ChannelConfig cc = mem_.channel_config();
  checkers_.reserve(mem_.num_channels());
  for (std::uint32_t c = 0; c < mem_.num_channels(); ++c) {
    checkers_.push_back(std::make_unique<check::ProtocolChecker>(
        cc, scheme_.name + ".ch" + std::to_string(c)));
    mem_.set_command_observer(c, checkers_.back().get());
  }
}

void SystemSim::attach_stats() {
  if (!opts_.stats || !opts_.stats->config().enabled) return;
  stats::Registry& reg = opts_.stats->registry();
  streg_ = &reg;
  tracer_ = opts_.stats->tracer();
  epoch_cycles_ = opts_.stats->config().epoch_cycles;
  next_epoch_ = epoch_cycles_;
  reg.set_epoch_cycles(epoch_cycles_);

  mem_.attach_stats(reg, tracer_);
  llc_.attach_stats(reg, "llc");
  if (dedicated_ecc_cache_) {
    dedicated_ecc_cache_->attach_stats(reg, "ecc_cache");
  }
  reg.gauge("cpu.committed_instructions", [this](std::uint64_t) {
    std::uint64_t total = 0;
    for (const auto& c : cores_) total += c.committed;
    return static_cast<double>(total);
  });
  if (scheme_.uses_ecc_parity) {
    slow_path_hits_ = reg.counter("eccparity.fig6_slow_path_hits");
  }
  if (recording_ != nullptr) {
    reg.gauge("tracefile.record.ops", [this](std::uint64_t) {
      return static_cast<double>(recording_->writer().counters().ops);
    });
    reg.gauge("tracefile.record.file_bytes", [this](std::uint64_t) {
      return static_cast<double>(recording_->writer().counters().file_bytes);
    });
  }
  if (post_writer_) {
    reg.gauge("tracefile.post.ops", [this](std::uint64_t) {
      return static_cast<double>(post_writer_->counters().ops);
    });
    reg.gauge("tracefile.post.file_bytes", [this](std::uint64_t) {
      return static_cast<double>(post_writer_->counters().file_bytes);
    });
  }
  if (replay_ != nullptr) {
    reg.gauge("tracefile.replay.ops", [this](std::uint64_t) {
      return static_cast<double>(replay_->ops_replayed());
    });
    reg.gauge("tracefile.replay.chunks_decoded", [this](std::uint64_t) {
      return static_cast<double>(replay_->reader_counters().chunks_decoded);
    });
  }
  if (tracer_) {
    // Tracks 0..channels-1 are the DRAM channels; the next one carries the
    // manager-level ECC-parity instant events.
    ecc_trace_tid_ = mem_.num_channels();
    tracer_->set_thread_name(ecc_trace_tid_, "eccparity");
  }
}

void SystemSim::finalize_stats() {
  if (!streg_) return;
  stats::Registry& reg = *streg_;
  reg.finalize(mem_.cycle());

  const auto& marks = reg.epoch_marks();
  if (marks.empty()) return;
  std::vector<double> epoch_len(marks.size());
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < marks.size(); ++i) {
    epoch_len[i] = static_cast<double>(marks[i] - prev);
    prev = marks[i];
  }
  const std::vector<double>* instr =
      reg.epoch_series("cpu.committed_instructions");

  // Derived per-epoch series (Figs. 14/12 over time): per-channel data-bus
  // utilization and memory energy per instruction.
  std::vector<double> total_energy(marks.size(), 0.0);
  for (std::uint32_t c = 0; c < mem_.num_channels(); ++c) {
    const std::string ch = "dram.ch" + std::to_string(c);
    if (const auto* busy = reg.epoch_series(ch + ".busy_data_cycles")) {
      std::vector<double> bw(busy->size(), 0.0);
      for (std::size_t i = 0; i < bw.size(); ++i) {
        bw[i] = epoch_len[i] > 0 ? (*busy)[i] / epoch_len[i] : 0.0;
      }
      reg.add_series("derived." + ch + ".bandwidth_utilization",
                     std::move(bw));
    }
    if (const auto* pj = reg.epoch_series(ch + ".energy.total_pj")) {
      for (std::size_t i = 0; i < pj->size(); ++i) total_energy[i] += (*pj)[i];
      if (instr) {
        std::vector<double> epi(pj->size(), 0.0);
        for (std::size_t i = 0; i < epi.size(); ++i) {
          epi[i] = (*instr)[i] > 0 ? (*pj)[i] / (*instr)[i] : 0.0;
        }
        reg.add_series("derived." + ch + ".epi_pj", std::move(epi));
      }
    }
  }
  if (instr) {
    std::vector<double> epi(total_energy.size(), 0.0);
    for (std::size_t i = 0; i < epi.size(); ++i) {
      epi[i] = (*instr)[i] > 0 ? total_energy[i] / (*instr)[i] : 0.0;
    }
    reg.add_series("derived.epi_pj", std::move(epi));
  }
}

bool SystemSim::bank_is_faulty(std::uint64_t memline) const {
  // Decode only when there are faulty banks to match against.
  if (opts_.faulty_banks.empty()) return false;
  const std::uint32_t key =
      faulty_key(mem_.map().decode(capped_line(memline)));
  return std::find(opts_.faulty_banks.begin(), opts_.faulty_banks.end(),
                   key) != opts_.faulty_banks.end();
}

std::uint64_t SystemSim::ecc_cacheline_key(std::uint64_t memline) const {
  if (scheme_.uses_ecc_parity) {
    return parity_layout_->xor_cacheline_key(memline);
  }
  return kEccKeyTag | (memline / scheme_.ecc_line_coverage);
}

dram::DramAddress SystemSim::ecc_line_address(std::uint64_t key) const {
  const auto& geom = mem_.config().geometry();
  if (scheme_.uses_ecc_parity) {
    // Invert the XOR key: (plane, stripe, slot-bucket) -> the primary
    // group's parity line.  (Leftover lines share the bucket's parity
    // address in this traffic model; the functional manager keeps them
    // exact.)
    return parity_layout_->parity_line_address(
        parity_layout_->group_for_xor_key(key));
  }
  // Tiered baselines (LOT-ECC, Multi-ECC): the tier-2/correction line lives
  // in the reserved top rows of the same bank as the lines it covers.
  const std::uint64_t first_line = (key & ~kEccKeyTag) *
                                   scheme_.ecc_line_coverage;
  dram::DramAddress a = mem_.map().decode(
      std::min<std::uint64_t>(first_line, geom.total_data_lines() - 1));
  const std::uint64_t reserved = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             static_cast<double>(geom.rows_per_bank) *
             scheme_.correction_ratio));
  a.row = geom.rows_per_bank - 1 - (a.row % reserved);
  return a;
}

void SystemSim::send_or_queue(const PendingReq& req) {
  if (post_writer_) {
    // Post-LLC capture point: every request the memory system will see, in
    // issue order (drain_pending retries bypass this path, so a queued
    // request is recorded exactly once).
    post_writer_->append(tracefile::PostOp{mem_.cycle(), req.addr,
                                           req.is_write, req.line_class});
  }
  if (!mem_.enqueue_addr(req.addr, req.is_write, req.line_class, req.id)) {
    pending_.push_back(req);
  }
}

void SystemSim::drain_pending() {
  const std::size_t n = pending_.size();
  for (std::size_t i = 0; i < n && !pending_.empty(); ++i) {
    PendingReq req = pending_.front();
    pending_.pop_front();
    if (!mem_.enqueue_addr(req.addr, req.is_write, req.line_class, req.id)) {
      pending_.push_back(req);
    }
  }
}

bool SystemSim::request_read(std::uint64_t memline, int core) {
  if (warmup_) return true;
  auto it = mshr_.find(memline);
  if (it != mshr_.end()) {
    if (core >= 0) it->second.push_back(core);
    return true;
  }
  const std::uint64_t id = next_id_++;
  id_to_memline_[id] = memline;
  auto& waiters = mshr_[memline];
  if (core >= 0) waiters.push_back(core);
  send_or_queue(PendingReq{mem_.map().decode(capped_line(memline)), false,
                           dram::LineClass::kData, id});
  return true;
}

void SystemSim::process_eviction(std::uint64_t addr, cache::LineKind kind) {
  // Only a data victim can evict a further line, through its ECC/XOR
  // cacheline insertion, so the eviction chain is a plain loop.  Request
  // ids advance during warm-up too, though nothing is sent then.
  for (;;) {
    switch (kind) {
      case cache::LineKind::kData: {
        const std::uint64_t memline = mem_line_of(addr);
        const std::uint64_t capped = capped_line(memline);
        const std::uint64_t id = next_id_++;
        if (!warmup_) {
          send_or_queue(PendingReq{mem_.map().decode(capped), true,
                                   dram::LineClass::kData, id});
        }
        if (scheme_.maint == ecc::MaintTraffic::kNone) return;
        // The write dirties the covering ECC/XOR cacheline (Fig. 7); a
        // faulty bank uses its materialized ECC line (step D) instead of
        // the parity's XOR line.
        cache::LineKind ecc_kind =
            scheme_.maint == ecc::MaintTraffic::kWriteOnEvict
                ? cache::LineKind::kEcc
                : cache::LineKind::kXor;
        if (scheme_.uses_ecc_parity && bank_is_faulty(memline)) {
          ecc_kind = cache::LineKind::kEcc;
        }
        const std::uint64_t key = ecc_cacheline_key(capped);
        const auto r = ecc_cache().access(key, true, ecc_kind);
        if (!r.writeback) return;
        addr = r.victim_addr;
        kind = r.victim_kind;
        break;
      }
      case cache::LineKind::kEcc: {
        // Tier-2 / materialized ECC line: one memory write (Sec. IV-C).
        const std::uint64_t id = next_id_++;
        if (!warmup_) {
          send_or_queue(PendingReq{ecc_line_address(addr), true,
                                   dram::LineClass::kEccOther, id});
        }
        return;
      }
      case cache::LineKind::kXor: {
        // Parity read-modify-write: read the old parity line, write the
        // updated one (Sec. IV-C).
        const std::uint64_t read_id = next_id_++;
        const std::uint64_t write_id = next_id_++;
        if (!warmup_) {
          const dram::DramAddress paddr = ecc_line_address(addr);
          send_or_queue(PendingReq{paddr, false, dram::LineClass::kEccParity,
                                   read_id});
          send_or_queue(PendingReq{paddr, true, dram::LineClass::kEccParity,
                                   write_id});
        }
        return;
      }
    }
  }
}

bool SystemSim::execute_op(unsigned c, const trace::MemOp& op) {
  Core& core = cores_[c];
  const std::uint64_t memline = mem_line_of(op.line);

  if (!op.is_write) {
    // Read: an LLC miss occupies an MLP slot; refuse (and stall the core)
    // if none is free.
    const cache::Cache::Lookup where = llc_.lookup(op.line);
    if (!warmup_ && !where.hit() && core.outstanding_reads >= cpu_.mlp) {
      return false;
    }
    const auto r = llc_.access(where, op.line, false, cache::LineKind::kData);
    if (r.writeback) process_eviction(r.victim_addr, r.victim_kind);
    if (!r.hit && !warmup_) {
      ++core.outstanding_reads;
      request_read(memline, static_cast<int>(c));
    }
    // Step A1/B: reads to a faulty bank also need the ECC line (cached).
    if (scheme_.uses_ecc_parity && bank_is_faulty(memline)) {
      const std::uint64_t capped = capped_line(memline);
      const std::uint64_t key = ecc_cacheline_key(capped) | kEccKeyTag;
      const auto er = ecc_cache().access(key, false, cache::LineKind::kEcc);
      if (er.writeback) process_eviction(er.victim_addr, er.victim_kind);
      if (!er.hit) {
        const std::uint64_t id = next_id_++;
        if (!warmup_) {
          send_or_queue(PendingReq{ecc_line_address(key & ~kEccKeyTag),
                                   false, dram::LineClass::kEccCorrection,
                                   id});
        }
      }
      if (!warmup_) {
        if (slow_path_hits_) slow_path_hits_->inc();
        if (tracer_) {
          tracer_->instant(
              "eccparity", "fig6_slow_path", mem_.cycle(), ecc_trace_tid_,
              {{"bank",
                static_cast<double>(faulty_key(mem_.map().decode(capped)))},
               {"ecc_cached", er.hit ? 1.0 : 0.0}});
        }
      }
    }
    return true;
  }

  // Write: write-allocate; the fetch-on-write read is non-blocking.
  const auto r = llc_.access(op.line, true, cache::LineKind::kData);
  if (r.writeback) process_eviction(r.victim_addr, r.victim_kind);
  if (!r.hit) request_read(memline, -1);
  return true;
}

void SystemSim::core_cycle(unsigned c) {
  Core& core = cores_[c];
  unsigned budget = cpu_.width;
  while (budget > 0) {
    if (!core.waiting_op) {
      const trace::MemOp next = source_->next(c);
      core.gap_remaining = next.gap;
      core.waiting_op = next;
    }
    if (core.gap_remaining > 0) {
      const unsigned take = static_cast<unsigned>(std::min<std::uint64_t>(
          budget, core.gap_remaining));
      core.committed += take;
      core.gap_remaining -= take;
      budget -= take;
      continue;
    }
    // The memory op is due.
    if (!execute_op(c, *core.waiting_op)) return;  // stall; retry next cycle
    ++core.committed;  // the memory instruction itself
    --budget;
    core.waiting_op.reset();
  }
}

void SystemSim::cpu_cycle() {
  for (unsigned c = 0; c < cpu_.cores; ++c) core_cycle(c);
}

void SystemSim::handle_completions() {
  auto& done = mem_.completions();
  for (const auto& comp : done) {
    if (comp.is_write) continue;
    const auto it = id_to_memline_.find(comp.id);
    if (it == id_to_memline_.end()) continue;  // ECC read: nothing to fill
    const std::uint64_t memline = it->second;
    id_to_memline_.erase(it);
    // Fill all 64B siblings of the memory line (128B-line prefetch effect).
    for (std::uint32_t i = 0; i < lines64_per_memline_; ++i) {
      const auto r = llc_.fill(memline * lines64_per_memline_ + i);
      if (r.writeback) process_eviction(r.victim_addr, r.victim_kind);
    }
    const auto w = mshr_.find(memline);
    if (w != mshr_.end()) {
      for (int c : w->second) {
        if (c >= 0 && cores_[static_cast<unsigned>(c)].outstanding_reads > 0) {
          --cores_[static_cast<unsigned>(c)].outstanding_reads;
        }
      }
      mshr_.erase(w);
    }
  }
  done.clear();
}

RunResult SystemSim::run() {
  // Warm the LLC to steady state before measuring (the paper warms caches
  // for a billion instructions, Sec. IV-B): stream each core's access
  // pattern through the cache with no timing or memory side effects, so
  // the measured phase starts with a populated cache whose evictions --
  // and therefore ECC-maintenance traffic -- reflect steady state.
  {
    warmup_ = true;
    const std::uint64_t llc_lines =
        cache::CacheConfig{}.size_bytes / cache::CacheConfig{}.line_bytes;
    const std::uint64_t warm_ops_per_core = 3 * llc_lines / cpu_.cores;
    // Interleave cores so shared-footprint (PARSEC-style) workloads warm
    // the cache the way they will run.  The full execute_op path runs --
    // including ECC/XOR cacheline insertion and eviction -- so the LLC
    // reaches its steady-state mix of data and ECC lines; no memory
    // request is issued (or address decoded) while warmup_ is set.
    for (std::uint64_t i = 0; i < warm_ops_per_core; ++i) {
      for (unsigned c = 0; c < cpu_.cores; ++c) {
        (void)execute_op(c, source_->next(c));
      }
    }
    llc_.reset_stats();
    warmup_ = false;
  }

  std::uint64_t committed_total = 0;
  std::uint64_t scrub_cursor = 0;
  while (committed_total < opts_.target_instructions &&
         mem_.cycle() < opts_.max_mem_cycles) {
    mem_.tick();
    handle_completions();
    drain_pending();
    if (opts_.scrub_read_interval != 0 &&
        mem_.cycle() % opts_.scrub_read_interval == 0) {
      // Background scrubber: sweep the data space one line per interval
      // (Sec. VI-C).  Scrub reads are tagged as ECC traffic so their
      // bandwidth cost is visible in the statistics.
      const std::uint64_t total =
          mem_.config().geometry().total_data_lines();
      send_or_queue(PendingReq{mem_.map().decode(scrub_cursor % total),
                               false, dram::LineClass::kEccOther,
                               next_id_++});
      ++scrub_cursor;
    }
    for (unsigned k = 0; k < cpu_.cpu_cycles_per_mem_cycle; ++k) {
      cpu_cycle();
    }
    if (epoch_cycles_ != 0 && mem_.cycle() >= next_epoch_) {
      streg_->sample_epoch(mem_.cycle());
      next_epoch_ += epoch_cycles_;
    }
    if ((mem_.cycle() & 0x3FF) == 0) {
      committed_total = 0;
      for (const auto& c : cores_) committed_total += c.committed;
    }
  }
  const std::uint64_t run_cycles = mem_.cycle();

  // Drain outstanding traffic so energy accounting is complete.
  std::uint64_t guard = 0;
  while ((mem_.outstanding() > 0 || !pending_.empty()) && guard < 200'000) {
    mem_.tick();
    handle_completions();
    drain_pending();
    if (epoch_cycles_ != 0 && mem_.cycle() >= next_epoch_) {
      streg_->sample_epoch(mem_.cycle());
      next_epoch_ += epoch_cycles_;
    }
    ++guard;
  }

  RunResult result;
  result.scheme = scheme_.name;
  result.workload = source_->workload().name;
  for (const auto& c : cores_) result.instructions += c.committed;
  result.mem_cycles = run_cycles;
  result.mem = mem_.finalize();
  // finalize() has emitted the residual refresh commands, so the checkers
  // have now audited the complete command stream.  In kCount mode (Release)
  // violations accumulate silently until this boundary; fail the run here
  // rather than return results from a protocol-violating simulation.
  std::uint64_t protocol_violations = 0;
  std::string protocol_report;
  for (const auto& checker : checkers_) {
    protocol_violations += checker->violation_count();
    if (checker->violation_count() > 0) protocol_report += checker->report();
  }
  if (protocol_violations > 0) {
    throw std::runtime_error("DRAM protocol violations detected:\n" +
                             protocol_report);
  }
  result.llc = llc_.stats();
  const double instr = static_cast<double>(result.instructions);
  const double cpu_cycles =
      static_cast<double>(run_cycles) * cpu_.cpu_cycles_per_mem_cycle;
  result.ipc = instr / cpu_cycles;
  result.epi_pj = result.mem.energy.total_pj() / instr;
  result.dynamic_epi_pj = result.mem.energy.dynamic_pj() / instr;
  result.background_epi_pj =
      (result.mem.energy.background_pj + result.mem.energy.refresh_pj) /
      instr;
  result.mapi =
      static_cast<double>(result.mem.accesses_64b(scheme_.line_bytes)) /
      instr;
  const double burst = mem_.config().device.timing.tBurst;
  // Utilization averages over every independently-scheduled data bus
  // (physical channels times sub-channels; equal for DDR3/DDR4).
  result.bandwidth_utilization =
      static_cast<double>(result.mem.reads + result.mem.writes) * burst /
      (static_cast<double>(mem_.num_channels()) *
       static_cast<double>(run_cycles));
  result.avg_read_latency = result.mem.avg_read_latency;
  // Seal trace outputs before the final stats sample so the tracefile.*
  // gauges capture footer-inclusive sizes (and a failed flush aborts the
  // run instead of leaving a silently truncated file).
  close_trace_outputs();
  finalize_stats();
  return result;
}

RunResult run_experiment(ecc::SchemeId scheme, ecc::SystemScale scale,
                         const std::string& workload_name,
                         const SimOptions& opts) {
  const ecc::SchemeDesc desc = ecc::make_scheme(scheme, scale);
  SystemSim sim(desc, trace::workload_by_name(workload_name), CpuConfig{},
                opts);
  return sim.run();
}

}  // namespace eccsim::sim
