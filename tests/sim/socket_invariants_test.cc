// Accounting invariants of the detailed socket simulator, checked across
// a parameterized sweep of workload archetypes and prefetcher states.
// These catch double-counting and leakage bugs that scenario tests miss.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>

#include "sim/machine/socket.h"
#include "workloads/function_catalog.h"
#include "workloads/generators.h"

namespace limoncello {
namespace {

struct Scenario {
  const char* name;
  int pattern;  // 0 stream, 1 random, 2 strided, 3 fleet mix, 4 memcpy+sw
  bool prefetchers_on;
};

// Prints the scenario by name. gtest's default would dump the struct's
// bytes — the name pointer, which ASLR moves on every run, and the
// uninitialized padding — into failure messages and ctest's test names.
void PrintTo(const Scenario& s, std::ostream* os) { *os << s.name; }

class SocketInvariantsTest : public ::testing::TestWithParam<Scenario> {
 protected:
  static std::unique_ptr<AccessGenerator> MakeWorkload(int pattern,
                                                       int core) {
    const Rng seed = Rng(1000 + pattern).Fork(static_cast<std::uint64_t>(core));
    switch (pattern) {
      case 0: {
        SequentialStreamGenerator::Options o;
        o.function = 0;
        return std::make_unique<SequentialStreamGenerator>(o, seed);
      }
      case 1: {
        RandomAccessGenerator::Options o;
        o.working_set_bytes = 128 * kMiB;
        o.function = 1;
        return std::make_unique<RandomAccessGenerator>(o, seed);
      }
      case 2: {
        StridedGenerator::Options o;
        o.stride_lines = 5;
        o.function = 2;
        return std::make_unique<StridedGenerator>(o, seed);
      }
      case 3:
        return FunctionCatalog::FleetDefault().MakeFleetMix(seed);
      default: {
        MemcpyTraceGenerator::Options o;
        o.src = 0;
        o.dst = 1ULL * kGiB;
        o.bytes = 8 * kMiB;
        o.function = 3;
        o.sw_prefetch_distance_bytes = 512;
        o.sw_prefetch_degree_bytes = 256;
        return std::make_unique<MemcpyTraceGenerator>(o);
      }
    }
  }
};

TEST_P(SocketInvariantsTest, AccountingIsConsistent) {
  const Scenario scenario = GetParam();
  SocketConfig config;
  config.num_cores = 2;
  config.memory.peak_gbps = 6.0;
  Socket socket(config, 20, Rng(5));
  socket.SetAllPrefetchersEnabled(scenario.prefetchers_on);
  for (int core = 0; core < 2; ++core) {
    socket.SetWorkload(core, MakeWorkload(scenario.pattern, core));
  }
  for (int epoch = 0; epoch < 40; ++epoch) socket.Step(100 * kNsPerUs);

  const PmuCounters& c = socket.counters();
  const Cache::Stats l1 = socket.AggregateL1Stats();
  const Cache::Stats l2 = socket.AggregateL2Stats();
  const Cache::Stats& llc = socket.LlcStats();

  // I1: instructions retired and cycles spent are positive and sane.
  ASSERT_GT(c.instructions, 0u);
  ASSERT_GT(c.core_cycles, 0u);

  // I2: every demand access touches L1: L1 demand lookups >= LLC demand
  // lookups (filtering only shrinks the stream down the hierarchy).
  const std::uint64_t l1_lookups = l1.demand_hits + l1.demand_misses;
  const std::uint64_t l2_lookups = l2.demand_hits + l2.demand_misses;
  const std::uint64_t llc_lookups = llc.demand_hits + llc.demand_misses;
  EXPECT_GE(l1_lookups, l2_lookups);
  EXPECT_GE(l2_lookups, llc_lookups);

  // I3: L2 demand lookups equal L1 demand misses (every L1 demand miss
  // goes to L2, nothing else does).
  EXPECT_EQ(l2_lookups, l1.demand_misses);
  EXPECT_EQ(llc_lookups, l2.demand_misses);

  // I4: PMU LLC counters mirror the LLC cache stats.
  EXPECT_EQ(c.llc_demand_misses, llc.demand_misses);
  EXPECT_EQ(c.llc_demand_hits, llc.demand_hits);

  // I5: demand DRAM line fetches equal LLC demand misses.
  EXPECT_EQ(c.dram_bytes[static_cast<int>(TrafficClass::kDemand)],
            llc.demand_misses * kCacheLineBytes);

  // I6: prefetch accuracy fractions are well-formed.
  for (const Cache::Stats& s : {l1, l2, llc}) {
    EXPECT_GE(s.PrefetchAccuracy(), 0.0);
    EXPECT_LE(s.PrefetchAccuracy(), 1.0);
    EXPECT_GE(s.prefetch_covered_hits + s.prefetch_pollution_evictions,
              0u);
    // Covered + polluted never exceeds fills (lines still resident make
    // up the difference).
    EXPECT_LE(s.prefetch_covered_hits + s.prefetch_pollution_evictions,
              s.prefetch_fills);
  }

  // I7: with prefetchers disabled there is no hardware prefetch traffic.
  // (Software prefetches — the memcpy scenario — still fill caches.)
  if (!scenario.prefetchers_on) {
    EXPECT_EQ(c.dram_bytes[static_cast<int>(TrafficClass::kHwPrefetch)],
              0u);
    if (scenario.pattern != 4) {
      EXPECT_EQ(l1.prefetch_fills + l2.prefetch_fills, 0u);
    }
  }

  // I8: lines touched bounds LLC demand misses (a miss requires a touch).
  EXPECT_GE(c.lines_touched, c.llc_demand_misses);

  // I9: function attribution sums to the socket totals.
  std::uint64_t profile_instructions = 0;
  std::uint64_t profile_misses = 0;
  for (const FunctionProfileEntry& e : socket.function_profile()) {
    profile_instructions += e.instructions;
    profile_misses += e.llc_misses;
  }
  EXPECT_EQ(profile_instructions, c.instructions);
  EXPECT_EQ(profile_misses, c.llc_demand_misses);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, SocketInvariantsTest,
    ::testing::Values(Scenario{"stream_on", 0, true},
                      Scenario{"stream_off", 0, false},
                      Scenario{"random_on", 1, true},
                      Scenario{"random_off", 1, false},
                      Scenario{"strided_on", 2, true},
                      Scenario{"strided_off", 2, false},
                      Scenario{"mix_on", 3, true},
                      Scenario{"mix_off", 3, false},
                      Scenario{"memcpy_sw_on", 4, true},
                      Scenario{"memcpy_sw_off", 4, false}),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace limoncello
