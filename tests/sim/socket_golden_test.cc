// Golden socket snapshot: a socket shaped like perfbench's socket_sim (4
// cores running stream, store-stream, stride-4 and uniform random traces,
// each over a 64 MiB working set) warms up, runs with prefetchers on,
// takes PrefetchControl::DisableAll on its MSR device, and runs with
// prefetchers off. Every counter it reports must come out exactly as
// recorded. SocketTest.DeterministicAcrossRuns compares two runs of one
// build and cache_golden_test drives a cache with no memory model, so
// neither sees a change to the arithmetic of MemoryController or Socket
// between commits; this test does. Doubles are pinned as bit patterns.
// Values recorded at commit b72c3c9. A failure prints the actual snapshot
// as the initializer that pins it.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <ostream>
#include <vector>

#include "msr/prefetch_control.h"
#include "sim/machine/socket.h"
#include "workloads/generators.h"

namespace limoncello {
namespace {

constexpr int kCores = 4;
constexpr std::size_t kFunctions = kCores;      // one per core
constexpr std::size_t kSlots = kFunctions + 1;  // plus the overflow slot
constexpr SimTimeNs kEpochNs = 100 * kNsPerUs;
constexpr int kWarmEpochs = 12;
constexpr int kHalfEpochs = 24;
constexpr std::uint64_t kSeed = 7;

std::uint64_t Bits(double d) { return std::bit_cast<std::uint64_t>(d); }

SocketConfig PerfbenchShape() {
  SocketConfig config;
  config.num_cores = kCores;
  config.memory.jitter_fraction = 0.0;
  return config;
}

std::unique_ptr<AccessGenerator> MakeCore(int core) {
  const Rng rng = Rng(kSeed).Fork(static_cast<std::uint64_t>(core));
  const auto function = static_cast<FunctionId>(core);
  switch (core) {
    case 0:
    case 1: {
      SequentialStreamGenerator::Options stream;
      stream.working_set_bytes = 64 * kMiB;
      stream.mean_stream_bytes = 32 * 1024;
      stream.store_fraction = core == 1 ? 1.0 : 0.0;
      stream.function = function;
      return std::make_unique<SequentialStreamGenerator>(stream, rng);
    }
    case 2: {
      StridedGenerator::Options strided;
      strided.working_set_bytes = 64 * kMiB;
      strided.stride_lines = 4;
      strided.function = function;
      return std::make_unique<StridedGenerator>(strided, rng);
    }
    default: {
      RandomAccessGenerator::Options random;
      random.working_set_bytes = 64 * kMiB;
      random.function = function;
      return std::make_unique<RandomAccessGenerator>(random, rng);
    }
  }
}

// Everything the socket reports at the end of the run.
struct SocketSnapshot {
  // PmuCounters' integer fields in declaration order: instructions,
  // core_cycles, idle_cycles, lines_touched, llc_demand_hits,
  // llc_demand_misses, dram_bytes[4], dram_requests.
  std::array<std::uint64_t, 11> pmu;
  // Cache::Stats in declaration order: L1 and L2 summed over cores, LLC.
  std::array<std::uint64_t, 7> l1, l2, llc;
  // MemoryController::Totals: bytes per traffic class, requests.
  std::array<std::uint64_t, 5> memory;
  // Per core: active cycles, instructions.
  std::array<std::uint64_t, 2 * kCores> cores;
  // Per function_profile() slot: instructions, llc_misses.
  std::array<std::uint64_t, 2 * kSlots> profile;
  // Bit patterns of the doubles: PmuCounters::dram_latency_ns_sum,
  // Totals::latency_ns_sum, then each profile slot's cycles.
  std::array<std::uint64_t, 2 + kSlots> bits;

  bool operator==(const SocketSnapshot&) const = default;
};

// Prints a snapshot as the initializer that pins it, so a failure shows
// both sides and a deliberate re-pin can copy the actual value.
void PrintTo(const SocketSnapshot& s, std::ostream* os) {
  const auto print = [os](const auto& values, bool hex) {
    *os << "{";
    for (std::size_t i = 0; i < values.size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), hex ? "0x%016llx" : "%llu",
                    static_cast<unsigned long long>(values[i]));
      *os << (i ? ", " : "") << buf;
    }
    *os << "}";
  };
  *os << "{";
  print(s.pmu, false);
  for (const auto* stats : {&s.l1, &s.l2, &s.llc}) {
    *os << ",\n ";
    print(*stats, false);
  }
  *os << ",\n ";
  print(s.memory, false);
  *os << ",\n ";
  print(s.cores, false);
  *os << ",\n ";
  print(s.profile, false);
  *os << ",\n ";
  print(s.bits, true);
  *os << "}";
}

std::array<std::uint64_t, 7> StatsOf(const Cache::Stats& s) {
  return {s.demand_hits,
          s.demand_misses,
          s.prefetch_covered_hits,
          s.prefetch_fills,
          s.demand_fills,
          s.prefetch_pollution_evictions,
          s.writebacks};
}

SocketSnapshot SnapshotOf(const Socket& socket) {
  SocketSnapshot s{};
  const PmuCounters& c = socket.counters();
  s.pmu = {c.instructions,  c.core_cycles,     c.idle_cycles,
           c.lines_touched, c.llc_demand_hits, c.llc_demand_misses,
           c.dram_bytes[0], c.dram_bytes[1],   c.dram_bytes[2],
           c.dram_bytes[3], c.dram_requests};
  s.l1 = StatsOf(socket.AggregateL1Stats());
  s.l2 = StatsOf(socket.AggregateL2Stats());
  s.llc = StatsOf(socket.LlcStats());
  const MemoryController::Totals& t = socket.memory().totals();
  s.memory = {t.bytes[0], t.bytes[1], t.bytes[2], t.bytes[3], t.requests};
  for (int core = 0; core < kCores; ++core) {
    const auto i = static_cast<std::size_t>(core);
    s.cores[2 * i] = socket.core_active_cycles(core);
    s.cores[2 * i + 1] = socket.core_instructions(core);
  }
  const std::vector<FunctionProfileEntry>& profile = socket.function_profile();
  EXPECT_EQ(profile.size(), kSlots);
  s.bits[0] = Bits(c.dram_latency_ns_sum);
  s.bits[1] = Bits(t.latency_ns_sum);
  for (std::size_t i = 0; i < kSlots && i < profile.size(); ++i) {
    s.profile[2 * i] = profile[i].instructions;
    s.profile[2 * i + 1] = profile[i].llc_misses;
    s.bits[2 + i] = Bits(profile[i].cycles);
  }
  return s;
}

// Warm-up, prefetchers on, DisableAll through the MSR device, prefetchers
// off. The prefetchers-on half must run above prefetch_late_start, so the
// late-prefetch penalty on covered hits is part of what is pinned.
SocketSnapshot RunSocket(const SocketConfig& config) {
  Socket socket(config, kFunctions, Rng(kSeed));
  for (int core = 0; core < kCores; ++core) {
    socket.SetWorkload(core, MakeCore(core));
  }
  for (int e = 0; e < kWarmEpochs + kHalfEpochs; ++e) socket.Step(kEpochNs);
  EXPECT_GT(socket.memory().SmoothedUtilization(),
            config.prefetch_late_start);
  PrefetchControl control(&socket.msr_device(), config.msr_layout, 0, kCores);
  EXPECT_EQ(control.DisableAll(), kCores);
  EXPECT_FALSE(socket.AllPrefetchersEnabled());
  for (int e = 0; e < kHalfEpochs; ++e) socket.Step(kEpochNs);
  return SnapshotOf(socket);
}

TEST(SocketGoldenTest, PerfbenchShapeIsPinned) {
  const SocketSnapshot expected{
      {6737503, 60011260, 0, 1481943, 35124, 441695, 28268480, 83012928, 0,
       104064, 1738772},
      {1000954, 480989, 1000888, 1340284, 480989, 339266, 312526},
      {4170, 476819, 799, 1373557, 476819, 1364562, 74414},
      {35124, 441695, 12872, 1297077, 441695, 1284205, 1626},
      {28268480, 83012928, 0, 104064, 1738772},
      {15002513, 1421260, 15002486, 1399913, 15002201, 1899162, 15004060,
       2017168},
      {1421260, 80083, 1399913, 126673, 1899162, 79244, 2017168, 155695, 0, 0},
      {0x41aa8ea131d0f570, 0x41aa8ea131d0f570, 0x416c9d7565f8432f,
       0x416c9d72e6cacb1a, 0x416c9d4e7ffebe0d, 0x416c9e37108de268,
       0x0000000000000000}};
  EXPECT_EQ(RunSocket(PerfbenchShape()), expected);
}

// The default jitter draws one RNG value per DRAM request after the
// latency is known.
TEST(SocketGoldenTest, JitteredLatencyIsPinned) {
  SocketConfig config = PerfbenchShape();
  config.memory.jitter_fraction = MemoryControllerConfig{}.jitter_fraction;
  ASSERT_GT(config.memory.jitter_fraction, 0.0);
  const SocketSnapshot expected{
      {6737603, 60010417, 0, 1481977, 35127, 441700, 28268800, 83013760, 0,
       104000, 1738790},
      {1000980, 480997, 1000914, 1340312, 480997, 339268, 312527},
      {4170, 476827, 799, 1373582, 476827, 1364587, 74409},
      {35127, 441700, 12872, 1297090, 441700, 1284218, 1625},
      {28268800, 83013760, 0, 104000, 1738790},
      {15002478, 1421335, 15002369, 1399915, 15002132, 1899247, 15003438,
       2017106},
      {1421335, 80097, 1399915, 126666, 1899247, 79252, 2017106, 155685, 0, 0},
      {0x41aa8ec5cd988267, 0x41aa8ec5cd988267, 0x416c9d70f493170a,
       0x416c9d63fed26902, 0x416c9d466559b996, 0x416c9de9d947fca5,
       0x0000000000000000}};
  EXPECT_EQ(RunSocket(config), expected);
}

TEST(SocketGoldenTest, BestOffsetSrripL2IsPinned) {
  SocketConfig config = PerfbenchShape();
  config.use_best_offset_l2 = true;
  config.l2.policy = ReplacementPolicy::kSrrip;
  const SocketSnapshot expected{
      {6750126, 60011338, 0, 1484349, 35414, 441641, 28265024, 82978496, 0,
       110528, 1738180},
      {1003118, 481231, 1003052, 1343411, 481231, 340229, 312962},
      {4176, 477055, 120, 1376505, 477055, 1368197, 74186},
      {35414, 441641, 13388, 1296539, 441641, 1283151, 1727},
      {28265024, 82978496, 0, 110528, 1738180},
      {15002840, 1423223, 15002468, 1401732, 15002310, 1903068, 15003720,
       2022103},
      {1423223, 80103, 1401732, 126621, 1903068, 79220, 2022103, 155697, 0, 0},
      {0x41aa8626862aede6, 0x41aa8626862aede6, 0x416c9d9ec968c189,
       0x416c9d706010bd96, 0x416c9d5c5867e680, 0x416c9e0ca2ef89a0,
       0x0000000000000000}};
  EXPECT_EQ(RunSocket(config), expected);
}

}  // namespace
}  // namespace limoncello
