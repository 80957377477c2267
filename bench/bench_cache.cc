// Cache hot-path microbenchmark: accesses/sec per replacement policy and
// per hierarchy-level geometry (L1 / L2 / LLC sizes), over three traffic
// shapes (demand-hit-heavy, miss-heavy, prefetch-fill). Every number is a
// deterministic trace, so runs on the same machine are comparable. The
// bench_cache_smoke ctest runs the table at smoke size; the socket-level
// cost of the cache is perfbench's socket_sim workload.
//
//   bench_cache [--accesses=N] [--reps=N] [--smoke]
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/cache/cache.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/table.h"

namespace limoncello::bench {
namespace {

struct Geometry {
  const char* level;
  std::uint64_t size_bytes;
  int ways;
};

struct Policy {
  const char* name;
  ReplacementPolicy policy;
};

// Runs a deterministic (seeded-Rng) access trace against a cache of the
// given geometry and returns best-of-`reps` accesses/sec. Scenarios:
//   demand_hit     working set = half the cache; mostly demand hits —
//                  the probe/layout-bound case
//   demand_miss    working set = 4x the cache; miss + victim-pick heavy
//   prefetch_fill  demand misses each followed by a presence-filtered
//                  buddy-line prefetch fill (the socket's fill shape)
double RunCell(const char* level, const CacheConfig& config,
               const std::string& scenario, std::uint64_t accesses,
               int reps) {
  using Clock = std::chrono::steady_clock;
  const std::uint64_t lines = config.size_bytes / kCacheLineBytes;
  std::uint64_t working_set = lines / 2;
  if (scenario == "demand_miss") working_set = lines * 4;
  if (scenario == "prefetch_fill") working_set = lines * 2;

  // Pre-generated trace so the timed loop measures the cache, not the Rng.
  Rng rng(0xBE7C5EEDULL);
  std::vector<Addr> trace(std::size_t{1} << 18);
  for (Addr& addr : trace) addr = rng.NextBounded(working_set);
  const bool prefetch_fill = scenario == "prefetch_fill";

  Cache cache(config, level);
  // Same probe-once sequence the socket hot path uses: the miss probe
  // from LookupDemand feeds the demand fill, and the buddy prefetch is
  // filtered and filled off a single probe.
  auto run_trace = [&](std::uint64_t count) {
    std::size_t cursor = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      const Addr addr = trace[cursor];
      cursor = cursor + 1 == trace.size() ? 0 : cursor + 1;
      Cache::ProbeResult probe;
      if (!cache.LookupDemand(addr, /*is_store=*/false, nullptr, &probe)) {
        cache.FillAt(probe, addr, /*is_prefetch=*/false, /*dirty=*/false);
        if (prefetch_fill) {
          const Addr buddy = addr ^ 1;
          const Cache::ProbeResult buddy_probe = cache.Probe(buddy);
          if (!buddy_probe.hit) {
            cache.FillAt(buddy_probe, buddy, /*is_prefetch=*/true,
                         /*dirty=*/false);
          }
        }
      }
    }
  };
  // Warm: populate the working set, then one trace pass to steady state.
  for (Addr addr = 0; addr < working_set && addr < lines; ++addr) {
    cache.Fill(addr, /*is_prefetch=*/false, /*dirty=*/false);
  }
  run_trace(trace.size());

  double best_seconds = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = Clock::now();
    run_trace(accesses);
    const auto end = Clock::now();
    const double seconds =
        std::chrono::duration<double>(end - start).count();
    if (rep == 0 || seconds < best_seconds) best_seconds = seconds;
  }
  return best_seconds > 0.0 ? static_cast<double>(accesses) / best_seconds
                            : 0.0;
}

int Run(const FlagParser& flags) {
  const bool smoke = flags.GetBool("smoke").value_or(false);
  const std::uint64_t accesses = static_cast<std::uint64_t>(
      flags.GetInt("accesses").value_or(smoke ? 150000 : 4000000));
  const int reps = static_cast<int>(
      flags.GetInt("reps").value_or(smoke ? 1 : 3));

  const Geometry geometries[] = {
      {"l1", 32 * kKiB, 8},
      {"l2", 1 * kMiB, 16},
      {"llc", 16 * kMiB, 16},
  };
  const Policy policies[] = {{"lru", ReplacementPolicy::kLru},
                             {"random", ReplacementPolicy::kRandom},
                             {"srrip", ReplacementPolicy::kSrrip}};
  const char* scenarios[] = {"demand_hit", "demand_miss", "prefetch_fill"};

  Table table({"level", "policy", "scenario", "Maccesses/sec"});
  for (const Geometry& geometry : geometries) {
    for (const Policy& policy : policies) {
      for (const char* scenario : scenarios) {
        const CacheConfig config{geometry.size_bytes, geometry.ways,
                                 policy.policy};
        const double aps =
            RunCell(geometry.level, config, scenario, accesses, reps);
        table.AddRow({geometry.level, policy.name, scenario,
                      Table::Num(aps / 1e6, 1)});
      }
    }
  }
  table.Print("Cache hot path: accesses/sec by geometry, policy, traffic");
  return 0;
}

}  // namespace
}  // namespace limoncello::bench

int main(int argc, char** argv) {
  limoncello::FlagParser flags;
  flags.Define("accesses", "timed accesses per cell (default 4M, smoke 150k)")
      .Define("reps", "timing repetitions, best taken (default 3)")
      .Define("smoke", "tiny sizes for CI (a few ms)")
      .Define("help", "show this help");
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n%s", flags.error().c_str(),
                 flags.Help(argv[0]).c_str());
    return 2;
  }
  if (flags.GetBool("help").value_or(false)) {
    std::printf("%s", flags.Help(argv[0]).c_str());
    return 0;
  }
  return limoncello::bench::Run(flags);
}
