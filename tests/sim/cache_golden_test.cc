// Golden cache-stats snapshot: a fixed Rng-driven access trace through
// every replacement policy must reproduce every Cache::Stats counter
// exactly. The 4-way cases and lru_8way were captured from the original
// vector-of-vectors cache implementation (pre flat-layout refactor), the
// other 8-way and the 16-way cases at commit b72c3c9; any change to the
// access hot path must keep the simulation bit-identical, and this test
// is the guard. If a deliberate semantic change to the
// cache model is ever made, re-capture the counters and say so in the
// commit message.
#include <gtest/gtest.h>

#include <ostream>

#include "sim/cache/cache.h"
#include "util/rng.h"

namespace limoncello {
namespace {

// The trace's size: demand lookups, the hot set they favour, and the
// cold tail.
struct GoldenTrace {
  int accesses;
  std::uint64_t hot_lines;
  std::uint64_t tail_lines;
};

// The original trace, sized for the 16 and 32 KiB caches (its hot set is
// 1.5x a 32 KiB cache).
constexpr GoldenTrace kSmallTrace{60000, 768, std::uint64_t{1} << 14};
// The same shape for the socket's 1 MiB L2: a hot set 1.5x the cache,
// and enough lookups to touch each hot line ~10 times.
constexpr GoldenTrace kL2Trace{400000, 24576, std::uint64_t{1} << 20};

// Socket-shaped traffic: demand lookups over a hot set plus a cold tail,
// miss fills, and Contains-filtered buddy-line prefetch fills. Exercises
// every counter: hits, misses, covered hits, prefetch and demand fills,
// pollution evictions, and dirty writebacks.
void DriveGoldenTrace(const GoldenTrace& trace, Cache* cache) {
  Rng rng(0xD0C5EEDULL);
  for (int i = 0; i < trace.accesses; ++i) {
    const Addr line = rng.NextBernoulli(0.65)
                          ? rng.NextBounded(trace.hot_lines)
                          : rng.NextBounded(trace.tail_lines);
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
  GoldenTrace trace;
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
  DriveGoldenTrace(c.trace, &cache);
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
                   kSmallTrace,
                   {8723u, 51277u, 3820u, 50650u, 51277u, 46720u, 11615u}},
        GoldenCase{"random",
                   CacheConfig{16 * kKiB, 4, ReplacementPolicy::kRandom},
                   kSmallTrace,
                   {8387u, 51613u, 3545u, 48248u, 51613u, 44583u, 11633u}},
        GoldenCase{"srrip",
                   CacheConfig{16 * kKiB, 4, ReplacementPolicy::kSrrip},
                   kSmallTrace,
                   {9434u, 50566u, 915u, 44784u, 50566u, 43841u, 11323u}},
        GoldenCase{"lru_8way",
                   CacheConfig{32 * kKiB, 8, ReplacementPolicy::kLru},
                   kSmallTrace,
                   {16091u, 43909u, 5806u, 41790u, 43909u, 35774u,
                    11272u}},
        // The socket's geometries: an 8-way set is one 8-way AVX-512
        // compare, a 16-way set two (a 4-way set takes the masked tail).
        GoldenCase{"random_8way",
                   CacheConfig{32 * kKiB, 8, ReplacementPolicy::kRandom},
                   kSmallTrace,
                   {15047u, 44953u, 5022u, 38979u, 44953u, 33742u, 11280u}},
        GoldenCase{"srrip_8way",
                   CacheConfig{32 * kKiB, 8, ReplacementPolicy::kSrrip},
                   kSmallTrace,
                   {19047u, 40953u, 610u, 31409u, 40953u, 30772u, 10250u}},
        GoldenCase{"lru_16way",
                   CacheConfig{1 * kMiB, 16, ReplacementPolicy::kLru},
                   kL2Trace,
                   {100593u, 299407u, 36684u, 286321u, 299407u,
                    242760u, 74336u}},
        GoldenCase{"random_16way",
                   CacheConfig{1 * kMiB, 16, ReplacementPolicy::kRandom},
                   kL2Trace,
                   {93740u, 306260u, 31760u, 267864u, 306260u,
                    229451u, 74383u}},
        GoldenCase{"srrip_16way",
                   CacheConfig{1 * kMiB, 16, ReplacementPolicy::kSrrip},
                   kL2Trace,
                   {121615u, 278385u, 2888u, 216710u, 278385u,
                    213377u, 64496u}}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace limoncello
