// Shared last-level cache model.
//
// An 8MB, 16-way, 64B-line write-back LLC (Table I of the paper) with LRU
// replacement.  Three kinds of lines coexist (Sec. III-D / IV-C):
//
//   - data lines (ordinary cached memory),
//   - ECC lines: cached copies of ECC-correction / tier-2 lines (VECC-style
//     caching used by LOT-ECC, Multi-ECC, and faulty-bank ECC lines),
//   - XOR lines: the compacted parity-update lines of Multi-ECC / ECC
//     Parity; an XOR cacheline carries the accumulated XOR of old and new
//     correction bits of all dirty data lines covered by one ECC parity
//     line and takes on that parity line's physical address.
//
// Per the paper's methodology, ECC-related cachelines are treated exactly
// like data lines for insertion and replacement.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "stats/stats.hpp"

namespace eccsim::cache {

/// What a cached line holds; determines the eviction cost charged by the
/// ECC traffic model (data: 1 write; ECC: 1 write; XOR: 1 read + 1 write).
enum class LineKind : std::uint8_t { kData = 0, kEcc, kXor };

/// Result of a cache access.
struct AccessResult {
  bool hit = false;
  /// A valid dirty victim was evicted and must be written back.
  bool writeback = false;
  std::uint64_t victim_addr = 0;
  LineKind victim_kind = LineKind::kData;
};

/// Configuration (defaults = the paper's LLC, Table I).
struct CacheConfig {
  std::uint64_t size_bytes = 8ULL * 1024 * 1024;
  std::uint32_t line_bytes = 64;
  std::uint32_t ways = 16;
};

/// Set-associative write-back, write-allocate cache with true-LRU
/// replacement.  Addresses are line addresses (already divided by the line
/// size); callers namespace data/ECC/XOR addresses so they never collide.
///
/// The tag store is a flat structure of arrays indexed by
/// `set * ways + way`: 8-byte tags (a 16-way set spans two host cache
/// lines), 8-byte LRU stamps, and one metadata byte per way holding the
/// valid and dirty bits and the LineKind.  Every demand access, and every
/// fill that inserts a line, stamps the line with a fresh value of one
/// counter, so the stamps of a set's valid ways are distinct and order
/// them by recency: the victim is the first invalid way, else the way with
/// the smallest stamp -- exact true LRU.
class Cache {
 public:
  explicit Cache(const CacheConfig& cfg);

  /// Where a line is, or is not: the result of one probe of its set.
  /// Valid only until the next access or fill of this cache.
  class Lookup {
   public:
    bool hit() const { return way_ != kMiss; }

   private:
    friend class Cache;
    static constexpr std::uint32_t kMiss = ~std::uint32_t{0};
    std::size_t base_ = 0;  ///< first slot of the set
    std::uint32_t way_ = kMiss;
  };

  /// Probes for `line_addr` (no LRU update, no allocation, no stats).
  Lookup lookup(std::uint64_t line_addr) const;

  /// Looks up `line_addr`; on miss, allocates it (evicting LRU) and reports
  /// any dirty victim.  `is_write` marks the line dirty on hit or fill.
  AccessResult access(std::uint64_t line_addr, bool is_write,
                      LineKind kind = LineKind::kData) {
    return access(lookup(line_addr), line_addr, is_write, kind);
  }

  /// access() reusing a lookup(line_addr) made since the last change to
  /// the cache, so a caller that must inspect the outcome first probes the
  /// set once.
  AccessResult access(const Lookup& where, std::uint64_t line_addr,
                      bool is_write, LineKind kind = LineKind::kData);

  /// Inserts a line without an explicit demand access (used to model the
  /// second 64B half of a 128B memory line arriving with its sibling).
  /// No-op if already present.
  AccessResult fill(std::uint64_t line_addr, LineKind kind = LineKind::kData);

  /// True if the line is present (no LRU update, no allocation).
  bool contains(std::uint64_t line_addr) const {
    return lookup(line_addr).hit();
  }

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;
    double hit_rate() const {
      const auto total = hits + misses;
      return total ? static_cast<double>(hits) / static_cast<double>(total)
                   : 0.0;
    }
  };
  const Stats& stats() const { return stats_; }
  /// Clears hit/miss/writeback counters (end of a warmup phase); cache
  /// contents are untouched.
  void reset_stats() { stats_ = Stats{}; }

  std::uint32_t sets() const { return num_sets_; }
  std::uint32_t ways() const { return cfg_.ways; }

  /// Registers polled gauges over this cache's counters under `prefix`
  /// (e.g. "llc"): hits, misses, writebacks, hit_rate.  Observation only;
  /// the access hot path is untouched.  `reg` must outlive the cache's use.
  void attach_stats(stats::Registry& reg, const std::string& prefix);

 private:
  /// Metadata byte: bit 0 valid, bit 1 dirty, bits 2-3 the LineKind.
  static constexpr std::uint8_t kValid = 1;
  static constexpr std::uint8_t kDirty = 2;
  static constexpr unsigned kKindShift = 2;
  static std::uint8_t meta_of(bool dirty, LineKind kind) {
    return static_cast<std::uint8_t>(
        kValid | (dirty ? kDirty : 0) |
        (static_cast<unsigned>(kind) << kKindShift));
  }

  const std::uint64_t* tags() const { return tag_block_.data() + tag_offset_; }
  std::uint64_t* tags() { return tag_block_.data() + tag_offset_; }
  std::uint32_t set_index(std::uint64_t line_addr) const;
  /// Installs `line_addr` over the set's LRU victim, charging a writeback
  /// to `result` if the victim was valid and dirty.
  void allocate(std::size_t base, std::uint64_t line_addr, std::uint8_t meta,
                AccessResult& result);

  CacheConfig cfg_;
  std::uint32_t num_sets_;
  /// The tags start `tag_offset_` words into `tag_block_`, at a host
  /// cache line boundary.  Zeroed metadata marks every way invalid.
  std::vector<std::uint64_t> tag_block_;
  std::size_t tag_offset_ = 0;
  std::vector<std::uint64_t> stamps_;
  std::vector<std::uint8_t> meta_;
  std::uint64_t tick_ = 0;
  Stats stats_;
};

}  // namespace eccsim::cache
