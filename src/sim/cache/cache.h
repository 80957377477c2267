// Set-associative cache with LRU replacement and prefetch-fill tracking.
//
// Each line carries a `prefetched` bit so the simulator can account
// prefetch usefulness (prefetched line later demanded = covered miss) and
// pollution (prefetched line evicted untouched). These are the quantities
// behind the paper's coverage/accuracy discussion (§2.1, §7.1).
//
// Hot-path layout (DESIGN.md §9): one contiguous set-major array
// (`set * ways + way`) of single 64-bit words, each packing a way's tag,
// status bits, rrpv, and an exact LRU recency *rank* — instead of a
// vector-of-vectors of 24-byte line structs. An 8-way set is 64 bytes (a
// 16-way set 128), but the array is not aligned to host lines: in a
// perfbench-shaped socket the L2 and LLC arrays start 16 bytes past a
// line boundary, so such a set spans one host line more than its size
// (aligning the arrays, with a single-pass scan, measured no gain).
// There is no pointer chase, and an access touches those words and
// nothing else: the rank (a
// permutation of 0..ways-1 inside the set) replaces the original global
// 64-bit timestamp, selecting the identical victim without a second
// recency array and its extra cache miss per access. Because presence is
// a single mask-and-compare per word, the tag scan is branchless SIMD
// (8 ways per AVX-512 compare, 4 per AVX-2, runtime-dispatched with a
// scalar fallback), which also removes the per-access branch mispredict
// a scalar early-exit scan pays when the hit way is unpredictable; the
// rank update after a hit is the same SIMD shape over words the scan
// just loaded. Invalid ways hold an all-ones sentinel in the tag field,
// so free-way search is the same masked compare. The probe-once API
// (`Probe` + `FillAt`, and the `probe_out` arm of `LookupDemand`) lets
// callers touch a set's tags exactly once per cache level per access;
// the legacy `Contains`/`Fill` pair remains as a thin wrapper for
// callers off the hot path.
#ifndef LIMONCELLO_SIM_CACHE_CACHE_H_
#define LIMONCELLO_SIM_CACHE_CACHE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/units.h"

namespace limoncello {

enum class ReplacementPolicy {
  kLru,     // true LRU (default)
  kRandom,  // pseudo-random victim (deterministic hash of an access clock)
  kSrrip,   // 2-bit SRRIP; prefetch fills insert at distant re-reference,
            // which bounds prefetch pollution (Jaleel et al., ISCA'10)
};

struct CacheConfig {
  std::uint64_t size_bytes = 32 * kKiB;
  int ways = 8;
  ReplacementPolicy policy = ReplacementPolicy::kLru;
};

class Cache {
 public:
  struct Eviction {
    bool valid = false;       // an occupied line was evicted
    bool dirty = false;       // needs a writeback
    bool unused_prefetch = false;  // prefetched, never demanded (pollution)
    Addr line_addr = 0;
  };

  struct Stats {
    std::uint64_t demand_hits = 0;
    std::uint64_t demand_misses = 0;
    // Demand hits on lines brought in by a prefetch (covered misses).
    std::uint64_t prefetch_covered_hits = 0;
    std::uint64_t prefetch_fills = 0;
    std::uint64_t demand_fills = 0;
    // Prefetched lines evicted without ever being demanded.
    std::uint64_t prefetch_pollution_evictions = 0;
    std::uint64_t writebacks = 0;

    double DemandMissRate() const {
      const std::uint64_t total = demand_hits + demand_misses;
      return total ? static_cast<double>(demand_misses) /
                         static_cast<double>(total)
                   : 0.0;
    }
    // Fraction of prefetch fills that ended up demanded (accuracy proxy).
    double PrefetchAccuracy() const {
      return prefetch_fills ? static_cast<double>(prefetch_covered_hits) /
                                  static_cast<double>(prefetch_fills)
                            : 0.0;
    }
  };

  // One tag scan's worth of knowledge about a set, consumed by FillAt.
  // `way` is the matching way on a hit; `invalid_way` is the first
  // invalid way encountered (the way a miss fill will claim), or -1 if
  // the set was full when the probe completed. A probe result is only
  // valid until the next mutation of the same cache (LookupDemand, Fill,
  // FillAt, Flush) — the socket's access path guarantees this by probing
  // each level at most once per access.
  struct ProbeResult {
    std::int32_t way = -1;
    std::int32_t invalid_way = -1;
    bool hit = false;
  };

  Cache(const CacheConfig& config, std::string name);

  // Pure tag probe: no stats, no replacement-state updates. One scan of
  // the set's tags.
  ProbeResult Probe(Addr line_addr) const;

  // Demand lookup. Updates LRU and stats; clears the prefetched bit on hit
  // (the prefetch is now proven useful). If was_prefetched is non-null it
  // is set to true when the hit line was brought in by a prefetch and had
  // not been demanded before (used for timeliness modeling). If probe_out
  // is non-null it receives the underlying probe so a miss can later be
  // filled via FillAt without re-scanning the tags.
  bool LookupDemand(Addr line_addr, bool is_store,
                    bool* was_prefetched = nullptr,
                    ProbeResult* probe_out = nullptr);

  // Probe without side effects (used to filter redundant prefetches).
  bool Contains(Addr line_addr) const { return Probe(line_addr).hit; }

  // Inserts a line (after a miss was serviced below), consuming a probe
  // of the same line_addr: a hit probe refreshes the line in place, a
  // miss probe claims invalid_way (or picks a policy victim when the set
  // is full). Returns the eviction it caused, if any.
  Eviction FillAt(const ProbeResult& probe, Addr line_addr,
                  bool is_prefetch, bool dirty);

  // Probe-then-fill convenience for callers off the hot path.
  Eviction Fill(Addr line_addr, bool is_prefetch, bool dirty) {
    return FillAt(Probe(line_addr), line_addr, is_prefetch, dirty);
  }

  // Invalidates every line (used between independent experiment runs).
  void Flush();

  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats{}; }
  const std::string& name() const { return name_; }
  std::uint64_t num_sets() const { return num_sets_; }
  int ways() const { return ways_; }

 private:
  std::size_t SetBase(Addr line_addr) const {
    return static_cast<std::size_t>(line_addr & (num_sets_ - 1)) *
           static_cast<std::size_t>(ways_);
  }
  Addr TagFor(Addr line_addr) const { return line_addr >> set_shift_; }

  // Moves `way` to most-recent rank (ways-1), closing the gap above its
  // old rank, and rewrites `way`'s word to `new_word` (with the rank
  // bits replaced) in the same pass. Exact LRU: ranks order the set by
  // last touch, so the rank-0 way is precisely the timestamp-LRU victim.
  // Only maintained under kLru — the other policies never read recency.
  void TouchLru(std::size_t base, int way, std::uint64_t new_word);

  // Policy victim among the (all-valid) ways of a full set.
  int PickVictimWay(std::size_t base);

  std::string name_;
  ReplacementPolicy policy_;
  std::uint64_t num_sets_;
  int ways_;
  int set_shift_ = 0;  // log2(num_sets_)
  // Set-major contiguous storage: words_[set * ways_ + way]. The word
  // layout (tag / rank / rrpv / status bits) lives in cache.cc.
  std::vector<std::uint64_t> words_;
  // Advanced exactly where the original struct-of-lines implementation
  // bumped its use clock (every hit, refresh, and install, plus the
  // kRandom victim pick), so kRandom's deterministic victim sequence is
  // unchanged. LRU no longer reads it — ranks carry the same order.
  std::uint64_t use_clock_ = 0;
  Stats stats_;
};

}  // namespace limoncello

#endif  // LIMONCELLO_SIM_CACHE_CACHE_H_
