// Golden cache-stats snapshot: a fixed Rng-driven access trace through
// every replacement policy must reproduce every Cache::Stats counter
// exactly. The golden values below were captured from the original
// vector-of-vectors cache implementation (pre flat-layout refactor); any
// change to the access hot path must keep the simulation bit-identical,
// and this test is the guard. If a deliberate semantic change to the
// cache model is ever made, re-capture the counters and say so in the
// commit message.
#include <gtest/gtest.h>

#include <ostream>

#include "sim/cache/cache.h"
#include "util/rng.h"

namespace limoncello {
namespace {

// Socket-shaped traffic: demand lookups over a hot set (~1.5x the cache)
// plus a cold tail, miss fills, and Contains-filtered buddy-line prefetch
// fills. Exercises every counter: hits, misses, covered hits, prefetch
// and demand fills, pollution evictions, and dirty writebacks.
void DriveGoldenTrace(Cache* cache) {
  Rng rng(0xD0C5EEDULL);
  for (int i = 0; i < 60000; ++i) {
    const Addr line = rng.NextBernoulli(0.65)
                          ? rng.NextBounded(768)
                          : rng.NextBounded(std::uint64_t{1} << 14);
    const bool is_store = rng.NextBernoulli(0.2);
    if (!cache->LookupDemand(line, is_store)) {
      cache->Fill(line, /*is_prefetch=*/false, /*dirty=*/is_store);
      const Addr buddy = line ^ 1;
      if (!cache->Contains(buddy)) {
        cache->Fill(buddy, /*is_prefetch=*/true, /*dirty=*/false);
      }
    }
  }
}

struct GoldenCase {
  const char* name;
  CacheConfig config;
  Cache::Stats expected;
};

// Prints the case by name. gtest's default would dump the struct's bytes,
// led by the name pointer that ASLR moves on every run, into failure
// messages and ctest's test names.
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

class CacheGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(CacheGoldenTest, TraceReproducesEveryCounterExactly) {
  const GoldenCase& c = GetParam();
  Cache cache(c.config, c.name);
  DriveGoldenTrace(&cache);
  const Cache::Stats& s = cache.stats();
  EXPECT_EQ(s.demand_hits, c.expected.demand_hits);
  EXPECT_EQ(s.demand_misses, c.expected.demand_misses);
  EXPECT_EQ(s.prefetch_covered_hits, c.expected.prefetch_covered_hits);
  EXPECT_EQ(s.prefetch_fills, c.expected.prefetch_fills);
  EXPECT_EQ(s.demand_fills, c.expected.demand_fills);
  EXPECT_EQ(s.prefetch_pollution_evictions,
            c.expected.prefetch_pollution_evictions);
  EXPECT_EQ(s.writebacks, c.expected.writebacks);
}

// Counter order: demand_hits, demand_misses, prefetch_covered_hits,
// prefetch_fills, demand_fills, prefetch_pollution_evictions, writebacks.
INSTANTIATE_TEST_SUITE_P(
    Policies, CacheGoldenTest,
    ::testing::Values(
        GoldenCase{"lru",
                   CacheConfig{16 * kKiB, 4, ReplacementPolicy::kLru},
                   {8723u, 51277u, 3820u, 50650u, 51277u, 46720u, 11615u}},
        GoldenCase{"random",
                   CacheConfig{16 * kKiB, 4, ReplacementPolicy::kRandom},
                   {8387u, 51613u, 3545u, 48248u, 51613u, 44583u, 11633u}},
        GoldenCase{"srrip",
                   CacheConfig{16 * kKiB, 4, ReplacementPolicy::kSrrip},
                   {9434u, 50566u, 915u, 44784u, 50566u, 43841u, 11323u}},
        GoldenCase{"lru_8way",
                   CacheConfig{32 * kKiB, 8, ReplacementPolicy::kLru},
                   {16091u, 43909u, 5806u, 41790u, 43909u, 35774u,
                    11272u}}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace limoncello
