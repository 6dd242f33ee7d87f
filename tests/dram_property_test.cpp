// Property tests for the DRAM simulator, parameterized over device width,
// rank count, and row policy: service-time lower bounds, bus-occupancy
// sanity, energy accounting closure, determinism, and open-page behavior;
// plus pinned command streams for the scheduler across generations and
// policies.
#include <gtest/gtest.h>

#include <bit>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "dram/channel.hpp"

namespace eccsim::dram {
namespace {

using Params = std::tuple<DeviceWidth, std::uint32_t, RowPolicy>;

class ChannelPropertyTest : public ::testing::TestWithParam<Params> {
 protected:
  ChannelConfig config() const {
    ChannelConfig cc;
    cc.device = micron_2gb(std::get<0>(GetParam()));
    cc.ranks = std::get<1>(GetParam());
    cc.chips_per_rank = 9;
    cc.row_policy = std::get<2>(GetParam());
    return cc;
  }

  /// Random request stream over the channel's ranks/banks/rows.
  std::vector<MemRequest> random_stream(unsigned count, std::uint64_t seed) {
    Rng rng(seed);
    const auto cc = config();
    std::vector<MemRequest> reqs;
    reqs.reserve(count);
    for (unsigned i = 0; i < count; ++i) {
      MemRequest r;
      r.id = i;
      r.addr.rank = static_cast<std::uint32_t>(rng.next_below(cc.ranks));
      r.addr.bank = static_cast<std::uint32_t>(rng.next_below(cc.banks));
      r.addr.row = rng.next_below(64);
      r.addr.col = static_cast<std::uint32_t>(rng.next_below(64));
      r.is_write = rng.bernoulli(0.3);
      reqs.push_back(r);
    }
    return reqs;
  }

  /// Feeds requests (respecting queue backpressure) and drains.
  std::vector<MemCompletion> run(Channel& ch,
                                 const std::vector<MemRequest>& reqs) {
    std::vector<MemCompletion> out;
    std::size_t next = 0;
    std::uint64_t now = 0;
    while ((next < reqs.size() || ch.pending() || ch.in_flight()) &&
           now < 10'000'000) {
      while (next < reqs.size() && ch.enqueue(reqs[next])) ++next;
      ch.tick(++now, out);
    }
    ch.finalize(now);
    return out;
  }
};

TEST_P(ChannelPropertyTest, AllRequestsComplete) {
  Channel ch(config());
  const auto reqs = random_stream(400, 11);
  const auto done = run(ch, reqs);
  EXPECT_EQ(done.size(), reqs.size());
}

TEST_P(ChannelPropertyTest, ServiceRateBoundedByBus) {
  // The data bus serializes bursts: total span >= count * tBurst.
  Channel ch(config());
  const auto reqs = random_stream(400, 12);
  const auto done = run(ch, reqs);
  std::uint64_t last = 0;
  for (const auto& c : done) last = std::max(last, c.finish_cycle);
  EXPECT_GE(last, 400ULL * config().device.timing.tBurst);
}

TEST_P(ChannelPropertyTest, EnergyComponentsNonNegativeAndClosed) {
  Channel ch(config());
  run(ch, random_stream(300, 13));
  const EnergyBreakdown& e = ch.stats().energy;
  EXPECT_GE(e.activate_pj, 0.0);
  EXPECT_GE(e.read_pj, 0.0);
  EXPECT_GE(e.write_pj, 0.0);
  EXPECT_GE(e.refresh_pj, 0.0);
  EXPECT_GE(e.background_pj, 0.0);
  EXPECT_NEAR(e.total_pj(),
              e.activate_pj + e.read_pj + e.write_pj + e.refresh_pj +
                  e.background_pj,
              1e-6);
}

TEST_P(ChannelPropertyTest, DeterministicReplay) {
  Channel a(config()), b(config());
  const auto reqs = random_stream(200, 14);
  const auto da = run(a, reqs);
  const auto db = run(b, reqs);
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da[i].id, db[i].id);
    EXPECT_EQ(da[i].finish_cycle, db[i].finish_cycle);
  }
  EXPECT_DOUBLE_EQ(a.stats().energy.total_pj(), b.stats().energy.total_pj());
}

TEST_P(ChannelPropertyTest, ReadCountsMatchStream) {
  Channel ch(config());
  const auto reqs = random_stream(250, 15);
  unsigned reads = 0;
  for (const auto& r : reqs) reads += !r.is_write;
  run(ch, reqs);
  EXPECT_EQ(ch.stats().reads, reads);
  EXPECT_EQ(ch.stats().writes, reqs.size() - reads);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ChannelPropertyTest,
    ::testing::Combine(
        ::testing::Values(DeviceWidth::kX4, DeviceWidth::kX8,
                          DeviceWidth::kX16),
        ::testing::Values(1u, 2u, 4u),
        ::testing::Values(RowPolicy::kClosePage, RowPolicy::kOpenPage)),
    [](const ::testing::TestParamInfo<Params>& info) {
      return to_string(std::get<0>(info.param)) + "_r" +
             std::to_string(std::get<1>(info.param)) + "_" +
             (std::get<2>(info.param) == RowPolicy::kClosePage ? "close"
                                                               : "open");
    });

// ---------------------------------------------------------------------------
// Open-page specific behavior.

TEST(OpenPage, RowHitsSkipActivation) {
  ChannelConfig cc;
  cc.device = micron_2gb(DeviceWidth::kX8);
  cc.ranks = 1;
  cc.chips_per_rank = 9;
  cc.row_policy = RowPolicy::kOpenPage;
  Channel ch(cc);
  // 16 reads to the same row, different columns.
  for (unsigned i = 0; i < 16; ++i) {
    MemRequest r;
    r.id = i;
    r.addr = DramAddress{0, 0, 0, 5, i};
    ASSERT_TRUE(ch.enqueue(r));
  }
  std::vector<MemCompletion> out;
  std::uint64_t now = 0;
  while ((ch.pending() || ch.in_flight()) && now < 100000) ch.tick(++now, out);
  EXPECT_EQ(out.size(), 16u);
  EXPECT_GE(ch.row_hits(), 15u);  // everything after the first is a hit
  // Activate energy: exactly one ACT's worth.
  const double one_act = cc.device.energy.act_pj * cc.chips_per_rank;
  EXPECT_NEAR(ch.stats().energy.activate_pj, one_act, one_act * 0.01);
}

TEST(OpenPage, RowHitsAreFasterThanClosePage) {
  auto run_policy = [](RowPolicy policy) {
    ChannelConfig cc;
    cc.device = micron_2gb(DeviceWidth::kX8);
    cc.ranks = 1;
    cc.chips_per_rank = 9;
    cc.row_policy = policy;
    Channel ch(cc);
    for (unsigned i = 0; i < 32; ++i) {
      MemRequest r;
      r.id = i;
      r.addr = DramAddress{0, 0, 0, 9, i};
      ch.enqueue(r);
    }
    std::vector<MemCompletion> out;
    std::uint64_t now = 0;
    while ((ch.pending() || ch.in_flight()) && now < 100000) {
      ch.tick(++now, out);
    }
    std::uint64_t last = 0;
    for (const auto& c : out) last = std::max(last, c.finish_cycle);
    return last;
  };
  EXPECT_LT(run_policy(RowPolicy::kOpenPage),
            run_policy(RowPolicy::kClosePage));
}

TEST(OpenPage, ConflictPrechargesAndReopens) {
  ChannelConfig cc;
  cc.device = micron_2gb(DeviceWidth::kX8);
  cc.ranks = 1;
  cc.chips_per_rank = 9;
  cc.row_policy = RowPolicy::kOpenPage;
  Channel ch(cc);
  MemRequest a, b;
  a.id = 1;
  a.addr = DramAddress{0, 0, 0, 1, 0};
  b.id = 2;
  b.addr = DramAddress{0, 0, 0, 2, 0};  // same bank, different row
  ASSERT_TRUE(ch.enqueue(a));
  ASSERT_TRUE(ch.enqueue(b));
  std::vector<MemCompletion> out;
  std::uint64_t now = 0;
  while ((ch.pending() || ch.in_flight()) && now < 100000) ch.tick(++now, out);
  ASSERT_EQ(out.size(), 2u);
  const auto& t = cc.device.timing;
  // The conflicting access pays tRAS + tRP + tRCD on top of the first.
  const std::uint64_t gap = out[1].finish_cycle - out[0].finish_cycle;
  EXPECT_GE(gap, static_cast<std::uint64_t>(t.tRP) + t.tRCD);
  EXPECT_EQ(ch.row_hits(), 0u);
}

TEST(OpenPage, FcfsSchedulerStillCorrect) {
  ChannelConfig cc;
  cc.device = micron_2gb(DeviceWidth::kX8);
  cc.ranks = 2;
  cc.chips_per_rank = 9;
  cc.scheduler_window = 1;  // strict arrival order
  Channel ch(cc);
  for (unsigned i = 0; i < 64; ++i) {
    MemRequest r;
    r.id = i;
    r.addr = DramAddress{0, i % 2, (i / 2) % 8, i, 0};
    ASSERT_TRUE(ch.enqueue(r));
  }
  std::vector<MemCompletion> out;
  std::uint64_t now = 0;
  while ((ch.pending() || ch.in_flight()) && now < 1000000) {
    ch.tick(++now, out);
  }
  EXPECT_EQ(out.size(), 64u);
}

// ---------------------------------------------------------------------------
// Pinned command streams.  The scheduler only decides at cycles where its
// decision can change (channel.hpp); these digests pin every command cycle
// it booked, every completion and the final statistics to the values
// captured while it still re-decided on every cycle with a non-empty queue.

/// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

class HashingObserver : public CommandObserver {
 public:
  explicit HashingObserver(Digest& d) : d_(d) {}
  void on_command(const DramCommand& cmd) override {
    d_.add(static_cast<std::uint64_t>(cmd.kind));
    d_.add(cmd.cycle);
    d_.add(std::uint64_t{cmd.rank});
    d_.add(std::uint64_t{cmd.bank});
    d_.add(cmd.row);
    ++commands;
  }
  std::uint64_t commands = 0;

 private:
  Digest& d_;
};

struct StreamCase {
  Generation gen;
  RowPolicy row_policy;
  std::uint32_t scheduler_window;
  bool powerdown;
  std::uint64_t commands;  ///< pinned command count
  std::uint64_t digest;    ///< pinned digest of commands, completions, stats
};

ChannelConfig stream_config(const StreamCase& c) {
  ChannelConfig cc;
  cc.device = spec_for(c.gen, DeviceWidth::kX8);
  cc.ranks = 2;
  cc.banks = cc.device.banks;
  cc.chips_per_rank = 9.0 / cc.device.sub_channels;
  cc.powerdown_enabled = c.powerdown;
  cc.row_policy = c.row_policy;
  cc.scheduler_window = c.scheduler_window;
  return cc;
}

/// Drives one channel through seeded phases -- the 64-deep queue kept
/// full of random traffic, same-row bursts, sparse traffic that keeps
/// the queue shorter than the scheduler window, and idle gaps longer than
/// both idle_pd_timeout and open_row_timeout -- then drains it, and
/// returns the command count and the digest.
std::pair<std::uint64_t, std::uint64_t> run_stream(const ChannelConfig& cc,
                                                   std::uint64_t seed) {
  Digest d;
  HashingObserver obs(d);
  Channel ch(cc);
  ch.set_observer(&obs);
  Rng rng(seed);
  std::vector<MemCompletion> out;
  std::uint64_t now = 0;
  std::uint64_t id = 0;
  auto request = [&](std::uint32_t rank, std::uint32_t bank,
                     std::uint64_t row) {
    MemRequest r;
    r.id = ++id;
    r.addr.rank = rank;
    r.addr.bank = bank;
    r.addr.row = row;
    r.addr.col = static_cast<std::uint32_t>(rng.next_below(64));
    r.is_write = rng.bernoulli(0.35);
    r.line_class = static_cast<LineClass>(rng.next_below(4));
    r.enqueue_cycle = now;
    return r;
  };
  auto random_request = [&] {
    const auto rank = static_cast<std::uint32_t>(rng.next_below(cc.ranks));
    const auto bank = static_cast<std::uint32_t>(rng.next_below(cc.banks));
    return request(rank, bank, rng.next_below(8));
  };
  auto tick = [&](std::uint64_t cycles) {
    for (std::uint64_t i = 0; i < cycles; ++i) ch.tick(++now, out);
  };
  // Under open page a rank powers down only after its rows time out and
  // then idle_pd_timeout more cycles pass.
  const std::uint64_t long_idle =
      std::uint64_t{cc.idle_pd_timeout} + cc.open_row_timeout + 1;
  auto drain = [&] {
    while (ch.pending() > 0 || ch.in_flight() > 0) tick(1);
  };
  for (int phase = 0; phase < 20; ++phase) {
    switch (phase % 4) {
      case 0: {  // full queue: top it up every cycle
        for (unsigned sent = 0; sent < 200;) {
          MemRequest r = random_request();
          while (!ch.enqueue(r)) tick(1);
          ++sent;
          if (rng.bernoulli(0.3)) tick(1);
        }
        break;
      }
      case 1: {  // same-row burst, trickled in with short gaps
        drain();
        const auto rank = static_cast<std::uint32_t>(rng.next_below(cc.ranks));
        const auto bank = static_cast<std::uint32_t>(rng.next_below(cc.banks));
        const std::uint64_t row = rng.next_below(8);
        for (unsigned k = 0; k < 40; ++k) {
          MemRequest r = rng.bernoulli(0.8) ? request(rank, bank, row)
                                            : random_request();
          while (!ch.enqueue(r)) tick(1);
          tick(rng.next_below(4));
        }
        break;
      }
      case 2: {  // sparse: a busy bank keeps the decision waiting while
                 // requests to other banks arrive into a short window
        for (unsigned k = 0; k < 60; ++k) {
          MemRequest r = rng.bernoulli(0.5)
                             ? request(0, 0, rng.next_below(8))
                             : random_request();
          while (!ch.enqueue(r)) tick(1);
          tick(rng.next_below(24));
        }
        break;
      }
      default:  // drain, then idle: short gaps and ones where ranks sleep
        drain();
        tick((phase / 4) % 2 == 0 ? long_idle + rng.next_below(long_idle)
                                  : rng.next_below(long_idle));
        break;
    }
  }
  while (ch.pending() > 0 || ch.in_flight() > 0) tick(1);
  ch.finalize(now);

  for (const MemCompletion& c : out) {
    d.add(c.id);
    d.add(std::uint64_t{c.is_write});
    d.add(c.finish_cycle);
  }
  const ChannelStats& s = ch.stats();
  for (std::uint64_t v : {s.reads, s.writes, s.ecc_reads, s.ecc_writes,
                          s.read_latency_sum, s.busy_data_cycles,
                          ch.row_hits(), std::uint64_t{out.size()}}) {
    d.add(v);
  }
  for (double v : {s.energy.activate_pj, s.energy.read_pj, s.energy.write_pj,
                   s.energy.refresh_pj, s.energy.background_pj}) {
    d.add(v);
  }
  return {obs.commands, d.h};
}

class SchedulerStreamTest : public ::testing::TestWithParam<StreamCase> {};

TEST_P(SchedulerStreamTest, CommandStreamIsPinned) {
  const StreamCase& c = GetParam();
  const auto [commands, digest] = run_stream(stream_config(c), 0x5eed);
  EXPECT_EQ(commands, c.commands);
  EXPECT_EQ(digest, c.digest) << std::hex << "0x" << digest;
}

constexpr auto kClose = RowPolicy::kClosePage;
constexpr auto kOpen = RowPolicy::kOpenPage;
// Most-Pending over the default 16-deep window, and FCFS as a window of 1.
constexpr std::uint32_t kMp = 16;
constexpr std::uint32_t kFifo = 1;

INSTANTIATE_TEST_SUITE_P(
    Pinned, SchedulerStreamTest,
    ::testing::Values(
        // clang-format off
        StreamCase{Generation::kDdr3, kClose, kMp,   true,  4504, 0x7295bbd3f356dd3fULL},
        StreamCase{Generation::kDdr3, kClose, kMp,   false, 4504, 0x5c433e6c079c32b9ULL},
        StreamCase{Generation::kDdr3, kClose, kFifo, true,  4508, 0xd7951824053cfe19ULL},
        StreamCase{Generation::kDdr3, kClose, kFifo, false, 4508, 0xef6dd893d2b6633fULL},
        StreamCase{Generation::kDdr3, kOpen,  kMp,   true,  3566, 0x3a478117059d3bd2ULL},
        StreamCase{Generation::kDdr3, kOpen,  kMp,   false, 3566, 0x61fd4145b8fba6e1ULL},
        StreamCase{Generation::kDdr3, kOpen,  kFifo, true,  3954, 0x295a001a09477089ULL},
        StreamCase{Generation::kDdr3, kOpen,  kFifo, false, 3954, 0xbf80a98a2a2a168eULL},
        StreamCase{Generation::kDdr4, kClose, kMp,   true,  4504, 0x91712f18f3335351ULL},
        StreamCase{Generation::kDdr4, kClose, kMp,   false, 4504, 0x443f528116117dc0ULL},
        StreamCase{Generation::kDdr4, kClose, kFifo, true,  4506, 0x527523683904f6f2ULL},
        StreamCase{Generation::kDdr4, kClose, kFifo, false, 4506, 0xcdc3f88f6a3006feULL},
        StreamCase{Generation::kDdr4, kOpen,  kMp,   true,  3672, 0x90bcf95c198dbaa2ULL},
        StreamCase{Generation::kDdr4, kOpen,  kMp,   false, 3672, 0xc63c04dfc2dba9baULL},
        StreamCase{Generation::kDdr4, kOpen,  kFifo, true,  3974, 0x9187d53bceba611dULL},
        StreamCase{Generation::kDdr4, kOpen,  kFifo, false, 3974, 0x52ccb6178a8d4d0dULL},
        StreamCase{Generation::kDdr5, kClose, kMp,   true,  4560, 0x177888b65ee3299bULL},
        StreamCase{Generation::kDdr5, kClose, kMp,   false, 4558, 0xeef4ee5ba5de3705ULL},
        StreamCase{Generation::kDdr5, kClose, kFifo, true,  4572, 0x43371c1fb0cb4352ULL},
        StreamCase{Generation::kDdr5, kClose, kFifo, false, 4572, 0xb18c7bc2f6013afeULL},
        StreamCase{Generation::kDdr5, kOpen,  kMp,   true,  3806, 0x8abba82b13ee7f16ULL},
        StreamCase{Generation::kDdr5, kOpen,  kMp,   false, 3806, 0x7340f11b42cd23c3ULL},
        StreamCase{Generation::kDdr5, kOpen,  kFifo, true,  4056, 0x798776faecca35f5ULL},
        StreamCase{Generation::kDdr5, kOpen,  kFifo, false, 4056, 0xc412b362df39f070ULL}),
    // clang-format on
    [](const ::testing::TestParamInfo<StreamCase>& info) {
      const StreamCase& c = info.param;
      return to_string(c.gen) +
             (c.row_policy == kClose ? "_close" : "_open") +
             (c.scheduler_window == kMp ? "_mp" : "_fcfs") +
             (c.powerdown ? "_pd" : "_nopd");
    });

TEST(Channel, RejectsTimingsTheWakeCycleCannotHonor) {
  // The scheduler's wake cycle is exact only while tXP, tRP and tCCD_L
  // fit inside tRC; a device outside that envelope is refused up front.
  ChannelConfig cc;
  cc.device = micron_2gb(DeviceWidth::kX8);
  EXPECT_NO_THROW(Channel{cc});
  ChannelConfig slow_exit = cc;
  slow_exit.device.timing.tXP = slow_exit.device.timing.tRC + 1;
  EXPECT_THROW(Channel{slow_exit}, std::invalid_argument);
  ChannelConfig slow_pre = cc;
  slow_pre.device.timing.tRP = slow_pre.device.timing.tRC + 1;
  EXPECT_THROW(Channel{slow_pre}, std::invalid_argument);
  ChannelConfig slow_cas = cc;
  slow_cas.device.timing.tCCD_L = slow_cas.device.timing.tRC + 1;
  EXPECT_THROW(Channel{slow_cas}, std::invalid_argument);
  for (Generation g :
       {Generation::kDdr3, Generation::kDdr4, Generation::kDdr5}) {
    for (double speed : {1.0, 1.16, 1.33}) {
      cc.device = spec_for(g, DeviceWidth::kX8, speed);
      EXPECT_NO_THROW(Channel{cc}) << to_string(g) << " x" << speed;
    }
  }
}

}  // namespace
}  // namespace eccsim::dram
