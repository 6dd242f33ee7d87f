#include "cache/cache.hpp"

#include <bit>
#include <stdexcept>

namespace eccsim::cache {

Cache::Cache(const CacheConfig& cfg) : cfg_(cfg) {
  if (cfg_.ways == 0 || cfg_.line_bytes == 0) {
    throw std::invalid_argument("Cache: ways/line_bytes must be nonzero");
  }
  const std::uint64_t lines = cfg_.size_bytes / cfg_.line_bytes;
  if (lines % cfg_.ways != 0) {
    throw std::invalid_argument("Cache: size not divisible by ways");
  }
  num_sets_ = static_cast<std::uint32_t>(lines / cfg_.ways);
  if (!std::has_single_bit(num_sets_)) {
    throw std::invalid_argument("Cache: set count must be a power of two");
  }
  // Aligning the tags to a host cache line puts each 16-way set's tags in
  // exactly two host cache lines.
  constexpr std::size_t kHostLineWords = 64 / sizeof(std::uint64_t);
  tag_block_.assign(lines + kHostLineWords - 1, 0);
  const auto misalign = reinterpret_cast<std::uintptr_t>(tag_block_.data()) /
                        sizeof(std::uint64_t) % kHostLineWords;
  tag_offset_ = (kHostLineWords - misalign) % kHostLineWords;
  stamps_.assign(lines, 0);
  meta_.assign(lines, 0);
}

std::uint32_t Cache::set_index(std::uint64_t line_addr) const {
  // Mix upper bits into the index so that the disjoint address namespaces
  // used for ECC/XOR lines do not all collide into the same sets.
  std::uint64_t h = line_addr * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 32;
  return static_cast<std::uint32_t>(h & (num_sets_ - 1));
}

Cache::Lookup Cache::lookup(std::uint64_t line_addr) const {
  Lookup where;
  where.base_ = std::size_t{set_index(line_addr)} * cfg_.ways;
  const std::uint64_t* tags = this->tags() + where.base_;
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    if (tags[w] == line_addr && (meta_[where.base_ + w] & kValid)) {
      where.way_ = w;
      break;
    }
  }
  return where;
}

void Cache::allocate(std::size_t base, std::uint64_t line_addr,
                     std::uint8_t meta, AccessResult& result) {
  const std::uint8_t* set_meta = meta_.data() + base;
  const std::uint64_t* set_stamps = stamps_.data() + base;
  std::uint32_t victim = 0;
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    if (!(set_meta[w] & kValid)) {
      victim = w;
      break;
    }
    if (set_stamps[w] < set_stamps[victim]) victim = w;
  }
  const std::size_t slot = base + victim;
  const std::uint8_t old = meta_[slot];
  if ((old & (kValid | kDirty)) == (kValid | kDirty)) {
    result.writeback = true;
    result.victim_addr = tags()[slot];
    result.victim_kind = static_cast<LineKind>(old >> kKindShift);
    ++stats_.writebacks;
  }
  tags()[slot] = line_addr;
  stamps_[slot] = tick_;
  meta_[slot] = meta;
}

AccessResult Cache::access(const Lookup& where, std::uint64_t line_addr,
                           bool is_write, LineKind kind) {
  ++tick_;
  AccessResult result;
  if (where.hit()) {
    const std::size_t slot = where.base_ + where.way_;
    result.hit = true;
    stamps_[slot] = tick_;
    meta_[slot] = meta_of((meta_[slot] & kDirty) || is_write, kind);
    ++stats_.hits;
    return result;
  }
  ++stats_.misses;
  allocate(where.base_, line_addr, meta_of(is_write, kind), result);
  return result;
}

AccessResult Cache::fill(std::uint64_t line_addr, LineKind kind) {
  const Lookup where = lookup(line_addr);
  if (where.hit()) return AccessResult{.hit = true};
  ++tick_;
  AccessResult result;
  // Prefetched sibling fills get the current tick like demand fills
  // (simple and adequate for this model).
  allocate(where.base_, line_addr, meta_of(false, kind), result);
  return result;
}

void Cache::attach_stats(stats::Registry& reg, const std::string& prefix) {
  reg.gauge(prefix + ".hits", [this](std::uint64_t) {
    return static_cast<double>(stats_.hits);
  });
  reg.gauge(prefix + ".misses", [this](std::uint64_t) {
    return static_cast<double>(stats_.misses);
  });
  reg.gauge(prefix + ".writebacks", [this](std::uint64_t) {
    return static_cast<double>(stats_.writebacks);
  });
  reg.gauge(prefix + ".hit_rate",
            [this](std::uint64_t) { return stats_.hit_rate(); });
}

}  // namespace eccsim::cache
