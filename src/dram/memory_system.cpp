#include "dram/memory_system.hpp"

#include <stdexcept>

namespace eccsim::dram {

MemGeometry MemSystemConfig::geometry() const {
  MemGeometry g;
  g.channels = total_channels();
  g.sub_channels = device.sub_channels;
  g.ranks_per_channel = ranks_per_channel;
  g.banks_per_rank = device.banks;
  g.line_bytes = line_bytes;
  g.page_bytes = 4096;
  const std::uint64_t chip_bytes = device.capacity_mbit * 1024 * 1024 / 8;
  // Each sub-channel owns an even share of the physical rank's data chips
  // (DDR5: half), so per-effective-channel bank capacity shrinks with the
  // sub-channel count while system capacity stays put.
  const std::uint64_t bank_data_bytes =
      static_cast<std::uint64_t>(data_chips_per_rank / device.sub_channels) *
      chip_bytes / device.banks;
  g.rows_per_bank = bank_data_bytes / g.page_bytes;
  return g;
}

ChannelConfig MemorySystem::channel_config() const {
  ChannelConfig cc;
  cc.device = cfg_.device;
  cc.ranks = cfg_.ranks_per_channel;
  cc.banks = cfg_.device.banks;
  cc.chips_per_rank = static_cast<double>(cfg_.chips_per_rank) /
                      cfg_.device.sub_channels;
  cc.queue_depth = cfg_.queue_depth;
  cc.powerdown_enabled = cfg_.powerdown_enabled;
  cc.row_policy = cfg_.row_policy;
  return cc;
}

MemorySystem::MemorySystem(const MemSystemConfig& cfg)
    : cfg_(cfg), map_(cfg.geometry()) {
  const ChannelConfig cc = channel_config();
  const std::uint32_t n = cfg_.total_channels();
  channels_.reserve(n);
  for (std::uint32_t c = 0; c < n; ++c) {
    channels_.emplace_back(cc);
  }
}

bool MemorySystem::enqueue_line(std::uint64_t line_index, bool is_write,
                                LineClass line_class, std::uint64_t id) {
  return enqueue_addr(map_.decode(line_index), is_write, line_class, id);
}

bool MemorySystem::enqueue_addr(const DramAddress& addr, bool is_write,
                                LineClass line_class, std::uint64_t id) {
  if (addr.channel >= channels_.size()) {
    throw std::out_of_range("MemorySystem::enqueue_addr: bad channel");
  }
  MemRequest req;
  req.id = id;
  req.addr = addr;
  req.is_write = is_write;
  req.line_class = line_class;
  req.enqueue_cycle = cycle_;
  return channels_[addr.channel].enqueue(req);
}

bool MemorySystem::can_accept_line(std::uint64_t line_index) const {
  return can_accept_channel(map_.decode(line_index).channel);
}

bool MemorySystem::can_accept_channel(std::uint32_t channel) const {
  return channels_.at(channel).can_accept();
}

void MemorySystem::tick() {
  ++cycle_;
  for (auto& ch : channels_) {
    ch.tick(cycle_, completions_);
  }
}

std::size_t MemorySystem::outstanding() const {
  std::size_t n = 0;
  for (const auto& ch : channels_) n += ch.pending() + ch.in_flight();
  return n;
}

namespace {
MemSystemStats aggregate(const std::vector<ChannelStats>& channels) {
  MemSystemStats s;
  std::uint64_t lat_sum = 0;
  for (const ChannelStats& cs : channels) {
    s.reads += cs.reads;
    s.writes += cs.writes;
    s.ecc_reads += cs.ecc_reads;
    s.ecc_writes += cs.ecc_writes;
    lat_sum += cs.read_latency_sum;
    s.energy.add(cs.energy);
  }
  s.avg_read_latency =
      s.reads ? static_cast<double>(lat_sum) / static_cast<double>(s.reads)
              : 0.0;
  return s;
}
}  // namespace

MemSystemStats MemorySystem::finalize() {
  if (!finalized_) {
    for (auto& ch : channels_) ch.finalize(cycle_);
    finalized_ = true;
  }
  std::vector<ChannelStats> per_channel;
  per_channel.reserve(channels_.size());
  for (const auto& ch : channels_) per_channel.push_back(ch.stats());
  return aggregate(per_channel);
}

MemSystemStats MemorySystem::peek_stats() const {
  // peek_stats() on each channel folds in the background/refresh energy a
  // finalize() at cycle_ would charge, so peeking mid-run is consistent
  // with the end-of-run report instead of lagging by the un-integrated
  // standby energy.  After finalize() the channels' markers have caught
  // up, so the extra integration is zero and the two reports agree.
  std::vector<ChannelStats> per_channel;
  per_channel.reserve(channels_.size());
  for (const auto& ch : channels_) per_channel.push_back(ch.peek_stats(cycle_));
  return aggregate(per_channel);
}

void MemorySystem::set_command_observer(std::uint32_t channel,
                                        CommandObserver* observer) {
  channels_.at(channel).set_observer(observer);
}

void MemorySystem::attach_stats(stats::Registry& reg, stats::Tracer* tracer) {
  for (std::uint32_t c = 0; c < channels_.size(); ++c) {
    channels_[c].attach_stats(reg, "dram.ch" + std::to_string(c), tracer, c);
  }
}

}  // namespace eccsim::dram
