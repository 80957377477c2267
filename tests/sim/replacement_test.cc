// Replacement-policy tests, including a reference-model property test:
// the production set-associative cache must agree hit-for-hit with a
// brute-force LRU model over random traces.
#include <gtest/gtest.h>

#include <list>
#include <map>
#include <ostream>

#include "sim/cache/cache.h"
#include "util/rng.h"

namespace limoncello {
namespace {

// Brute-force fully-explicit LRU reference: per set, an ordered list of
// tags, most recent at the front.
class ReferenceLru {
 public:
  ReferenceLru(std::uint64_t sets, int ways) : sets_(sets), ways_(ways) {}

  bool Access(Addr line_addr) {
    auto& set = state_[line_addr % sets_];
    const Addr tag = line_addr / sets_;
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (*it == tag) {
        set.erase(it);
        set.push_front(tag);
        return true;
      }
    }
    set.push_front(tag);
    if (set.size() > static_cast<std::size_t>(ways_)) set.pop_back();
    return false;
  }

 private:
  std::uint64_t sets_;
  int ways_;
  std::map<std::uint64_t, std::list<Addr>> state_;
};

// One trace against one associativity. The sets stay at 64, so the 8-
// and 16-way cases run the socket's set shapes (one and two 8-way
// AVX-512 compares; 4 ways take the masked tail).
struct LruCase {
  int ways;
  std::uint64_t seed;
};

// Prints the seed only: the instantiation name carries the associativity.
void PrintTo(const LruCase& c, std::ostream* os) { *os << c.seed; }

class LruReferenceTest : public ::testing::TestWithParam<LruCase> {};

TEST_P(LruReferenceTest, MatchesBruteForceModelOnRandomTrace) {
  const LruCase& c = GetParam();
  const std::uint64_t lines = 64 * static_cast<std::uint64_t>(c.ways);
  CacheConfig config;
  config.size_bytes = lines * kCacheLineBytes;  // 64 sets
  config.ways = c.ways;
  Cache cache(config, "dut");
  ASSERT_EQ(cache.num_sets(), 64u);
  ReferenceLru reference(cache.num_sets(), config.ways);

  Rng rng(c.seed);
  for (int i = 0; i < 50000; ++i) {
    // Skewed address distribution: hot region (twice the cache) + cold
    // tail, to exercise both hits and evictions heavily.
    const Addr line = rng.NextBernoulli(0.7) ? rng.NextBounded(2 * lines)
                                             : rng.NextBounded(1 << 16);
    const bool expected = reference.Access(line);
    const bool actual = cache.LookupDemand(line, false);
    ASSERT_EQ(actual, expected) << "access " << i << " line " << line;
    if (!actual) cache.Fill(line, false, false);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LruReferenceTest,
                         ::testing::Values(LruCase{4, 1}, LruCase{4, 2},
                                           LruCase{4, 3}, LruCase{4, 4},
                                           LruCase{4, 5}));
INSTANTIATE_TEST_SUITE_P(Ways8Seeds, LruReferenceTest,
                         ::testing::Values(LruCase{8, 1}, LruCase{8, 2},
                                           LruCase{8, 3}));
INSTANTIATE_TEST_SUITE_P(Ways16Seeds, LruReferenceTest,
                         ::testing::Values(LruCase{16, 1}, LruCase{16, 2},
                                           LruCase{16, 3}));

CacheConfig SmallConfig(ReplacementPolicy policy) {
  CacheConfig config;
  config.size_bytes = 4 * kKiB;
  config.ways = 4;
  config.policy = policy;
  return config;
}

TEST(SrripTest, HitPromotesLine) {
  Cache cache(SmallConfig(ReplacementPolicy::kSrrip), "srrip");
  const std::uint64_t sets = cache.num_sets();
  // Fill a set; re-reference line 0 (rrpv -> 0); insert two more lines.
  for (int w = 0; w < 4; ++w) {
    cache.Fill(static_cast<Addr>(w) * sets, false, false);
  }
  cache.LookupDemand(0, false);
  cache.Fill(4 * sets, false, false);
  cache.Fill(5 * sets, false, false);
  // The re-referenced line survives both evictions.
  EXPECT_TRUE(cache.Contains(0));
}

TEST(SrripTest, PrefetchInsertedAtDistantRrpv) {
  Cache cache(SmallConfig(ReplacementPolicy::kSrrip), "srrip");
  const std::uint64_t sets = cache.num_sets();
  // Three demand lines + one prefetched line in a set.
  cache.Fill(0 * sets, false, false);
  cache.Fill(1 * sets, false, false);
  cache.Fill(2 * sets, false, false);
  cache.Fill(3 * sets, /*is_prefetch=*/true, false);
  // Next fill evicts the unproven prefetch first.
  const auto evicted = cache.Fill(4 * sets, false, false);
  ASSERT_TRUE(evicted.valid);
  EXPECT_TRUE(evicted.unused_prefetch);
  EXPECT_EQ(evicted.line_addr, 3 * sets);
}

TEST(SrripTest, DemandedPrefetchIsProtected) {
  Cache cache(SmallConfig(ReplacementPolicy::kSrrip), "srrip");
  const std::uint64_t sets = cache.num_sets();
  cache.Fill(0 * sets, true, false);
  cache.LookupDemand(0, false);  // prefetch proven useful: rrpv -> 0
  cache.Fill(1 * sets, false, false);
  cache.Fill(2 * sets, false, false);
  cache.Fill(3 * sets, false, false);
  cache.Fill(4 * sets, false, false);  // set overflows
  EXPECT_TRUE(cache.Contains(0));      // the proven line survives
}

TEST(SrripTest, ReducesPrefetchPollutionVsLru) {
  // A demand working set that exactly fits, plus a stream of useless
  // prefetches: SRRIP keeps more of the demand set resident.
  auto run = [](ReplacementPolicy policy) {
    CacheConfig config;
    config.size_bytes = 16 * kKiB;  // 256 lines
    config.ways = 8;
    config.policy = policy;
    Cache cache(config, "pollution");
    Rng rng(4);
    // Warm a 192-line demand working set.
    for (Addr line = 0; line < 192; ++line) cache.Fill(line, false, false);
    std::uint64_t demand_hits = 0;
    for (int round = 0; round < 200; ++round) {
      for (Addr line = 0; line < 192; ++line) {
        if (cache.LookupDemand(line, false)) {
          ++demand_hits;
        } else {
          cache.Fill(line, false, false);
        }
        // Interleave junk prefetches (never demanded).
        if (rng.NextBernoulli(0.5)) {
          cache.Fill(1 << 20 | rng.NextBounded(1 << 16), true, false);
        }
      }
    }
    return demand_hits;
  };
  const std::uint64_t lru_hits = run(ReplacementPolicy::kLru);
  const std::uint64_t srrip_hits = run(ReplacementPolicy::kSrrip);
  EXPECT_GT(srrip_hits, lru_hits);
}

TEST(RandomReplacementTest, DeterministicAndFunctional) {
  auto run = [] {
    Cache cache(SmallConfig(ReplacementPolicy::kRandom), "rand");
    Rng rng(9);
    std::uint64_t hits = 0;
    for (int i = 0; i < 20000; ++i) {
      const Addr line = rng.NextBounded(256);
      if (cache.LookupDemand(line, false)) {
        ++hits;
      } else {
        cache.Fill(line, false, false);
      }
    }
    return hits;
  };
  const std::uint64_t a = run();
  const std::uint64_t b = run();
  EXPECT_EQ(a, b);        // deterministic victims
  EXPECT_GT(a, 1000u);    // still caches effectively
}

TEST(PolicyComparisonTest, CyclicSweepFavorsNonLru) {
  // The classic LRU pathology: a cyclic sweep slightly larger than the
  // cache gets zero hits under LRU; random replacement keeps some.
  auto run = [](ReplacementPolicy policy) {
    CacheConfig config;
    config.size_bytes = 4 * kKiB;  // 64 lines
    config.ways = 64;              // fully associative: pure policy test
    config.policy = policy;
    Cache cache(config, "sweep");
    for (int round = 0; round < 50; ++round) {
      for (Addr line = 0; line < 80; ++line) {
        if (!cache.LookupDemand(line, false)) {
          cache.Fill(line, false, false);
        }
      }
    }
    return cache.stats().demand_hits;
  };
  EXPECT_EQ(run(ReplacementPolicy::kLru), 0u);
  EXPECT_GT(run(ReplacementPolicy::kRandom), 500u);
}

}  // namespace
}  // namespace limoncello
