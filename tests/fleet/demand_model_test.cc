// The demand model's two load-independent shortcuts against the code
// they replaced: the per-service table against the per-task miss model,
// and SolveOperatingPoint against the plain 20-step bisection. Both must
// agree bit for bit (EXPECT_EQ on doubles is deliberate).
#include "fleet/demand_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "fleet/fleet_simulator.h"
#include "fleet/machine_model.h"
#include "util/rng.h"
#include "util/units.h"

namespace limoncello {
namespace {

// The operating-point solve as MachineModel::Tick ran it before the
// bracketed solver: evaluate at 0, then 20 bisection steps, each
// evaluating the midpoint, then a final evaluation at the answer.
OperatingPoint ReferenceSolve(const DemandScalars& demand,
                              const PlatformConfig& platform,
                              const LatencyLut& lut) {
  const double cores = static_cast<double>(platform.cores);
  const double saturation_bytes = platform.saturation_gbps * 1e9;
  const double max_ratio = LatencyLut::kMaxUtilization;
  OperatingPoint p;
  const auto evaluate = [&](double u_assumed) {
    ++p.evaluations;
    const double penalty =
        lut.At(u_assumed) * platform.freq_ghz / platform.mlp;
    p.required_cores = demand.cores_base + demand.cores_miss * penalty;
    p.scale = p.required_cores > cores ? cores / p.required_cores : 1.0;
    p.total_bytes = demand.bytes_at_full * p.scale;
    if (p.total_bytes > saturation_bytes * max_ratio) {
      p.scale *= saturation_bytes * max_ratio / p.total_bytes;
      p.total_bytes = saturation_bytes * max_ratio;
    }
    return p.total_bytes / saturation_bytes;
  };
  double lo = 0.0;
  double hi = max_ratio;
  if (evaluate(lo) <= lo) {
    hi = lo;
  } else {
    for (int iter = 0; iter < 20; ++iter) {
      const double mid = 0.5 * (lo + hi);
      if (evaluate(mid) > mid) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
  }
  p.utilization = hi;
  (void)evaluate(hi);
  return p;
}

// The per-task, per-category miss model Tick ran before the demand
// table, reduced to one task's per-kilo-instruction coefficients.
DemandCoefficients ReferenceCoefficients(const ServiceSpec& spec,
                                         const PrefetchResponse& pr,
                                         bool prefetchers_on,
                                         bool soft_prefetch_on) {
  struct CategoryLoad {
    double instructions = 0.0;
    double misses = 0.0;
    double hw_covered = 0.0;
    double sw_covered = 0.0;
  };
  DemandCoefficients k;
  for (int c = 0; c < kNumCategories; ++c) {
    const std::size_t ci = static_cast<std::size_t>(c);
    const bool tax = c != kNonTaxCategoryIndex;
    CategoryLoad cat;
    cat.instructions = spec.category_mix[ci];
    double misses = spec.base_mpki * spec.category_mix[ci];
    if (prefetchers_on) {
      const double covered =
          misses * (tax ? pr.hw_coverage_tax : pr.hw_coverage_nontax);
      misses -= covered;
      if (!tax) misses *= pr.hw_pollution_nontax;
      cat.hw_covered += covered;
    } else if (soft_prefetch_on && tax) {
      const double covered = misses * pr.sw_coverage_tax;
      misses -= covered;
      cat.sw_covered += covered;
    }
    cat.misses += misses;
    k.misses[ci] = cat.misses;
    k.mpki_eff += cat.misses;
    k.traffic_per_kinstr +=
        cat.misses +
        cat.hw_covered / (tax ? pr.hw_accuracy_tax : pr.hw_accuracy_nontax) +
        cat.sw_covered / pr.sw_accuracy;
  }
  return k;
}

void ExpectSamePoint(const OperatingPoint& got, const OperatingPoint& want,
                     const DemandScalars& d) {
  EXPECT_EQ(got.utilization, want.utilization)
      << "cores_base=" << d.cores_base << " cores_miss=" << d.cores_miss
      << " bytes_at_full=" << d.bytes_at_full;
  EXPECT_EQ(got.scale, want.scale);
  EXPECT_EQ(got.total_bytes, want.total_bytes);
  EXPECT_EQ(got.required_cores, want.required_cores);
}

double LogUniform(Rng& rng, double lo, double hi) {
  return std::exp(rng.NextDouble(std::log(lo), std::log(hi)));
}

TEST(OperatingPointTest, MatchesBisectionOnRandomDemand) {
  for (const PlatformConfig& platform :
       {PlatformConfig::Platform1(), PlatformConfig::Platform2()}) {
    const LatencyLut lut(platform.latency);
    Rng rng(27);
    long long evaluations = 0;
    constexpr int kSets = 100000;
    for (int i = 0; i < kSets; ++i) {
      // Log-uniform over ranges that run from idle to far past both the
      // core count and the bandwidth ceiling.
      DemandScalars d;
      d.cores_base = LogUniform(rng, 1e-3, 1e3);
      d.cores_miss = LogUniform(rng, 1e-5, 1e2);
      d.bytes_at_full = LogUniform(rng, 1e6, 1e13);
      const OperatingPoint got = SolveOperatingPoint(d, platform, lut);
      ExpectSamePoint(got, ReferenceSolve(d, platform, lut), d);
      if (HasFailure()) return;
      evaluations += got.evaluations;
    }
    // The point of the solver: far fewer than the reference's 22.
    EXPECT_LT(static_cast<double>(evaluations) / kSets, 8.0)
        << platform.name;
  }
}

TEST(OperatingPointTest, MatchesBisectionOnEdgeCases) {
  const PlatformConfig platform = PlatformConfig::Platform1();
  const LatencyLut lut(platform.latency);
  const double cores = static_cast<double>(platform.cores);
  const double saturation = platform.saturation_gbps * 1e9;
  const std::vector<DemandScalars> cases = {
      {0.0, 0.0, 0.0},                        // idle
      {10.0, 0.0, 0.0},                       // busy, no traffic
      {10.0, 0.0, 0.5 * saturation},          // zero misses: flat curve
      {0.5 * cores, 0.2, 0.7 * saturation},   // unsaturated, sloped L(u)
      {2.0 * cores, 0.5, 0.9 * saturation},   // CPU-saturated from u = 0
      {0.3 * cores, 0.6, 0.6 * saturation},   // CPU saturates as u rises
      {0.1 * cores, 0.01, 5.0 * saturation},  // clamped at the ceiling
      {4.0 * cores, 3.0, 9.0 * saturation},   // CPU and memory both bind
      {1e-300, 1e-300, 1e-300},               // denormal-adjacent
      {0.0, 0.0, saturation * LatencyLut::kMaxUtilization},  // at ceiling
  };
  for (const DemandScalars& d : cases) {
    ExpectSamePoint(SolveOperatingPoint(d, platform, lut),
                    ReferenceSolve(d, platform, lut), d);
  }
  // A flat curve needs f(0), f(f(0)) and the final evaluation only.
  EXPECT_EQ(SolveOperatingPoint(cases[2], platform, lut).evaluations, 3);
}

TEST(OperatingPointTest, MatchesBisectionNearEveryLeafOfTheUnsaturatedCurve) {
  // With the CPU unsaturated f is flat, so u* is the first bisection
  // grid point at or above f(0): walk f(0) across grid points and their
  // neighbouring doubles, where an off-by-one-leaf answer would show.
  const PlatformConfig platform = PlatformConfig::Platform1();
  const LatencyLut lut(platform.latency);
  const double saturation = platform.saturation_gbps * 1e9;
  const double leaf = LatencyLut::kMaxUtilization / (1 << 20);
  for (int k = 1; k < 4000; ++k) {
    const double grid = leaf * (k * 257);
    for (const double u : {std::nextafter(grid, 0.0), grid,
                           std::nextafter(grid, 2.0)}) {
      DemandScalars d;
      d.cores_base = 1.0;
      d.bytes_at_full = u * saturation;
      ExpectSamePoint(SolveOperatingPoint(d, platform, lut),
                      ReferenceSolve(d, platform, lut), d);
    }
    if (HasFailure()) return;
  }
}

TEST(ServiceDemandTest, TableMatchesPerTaskMissModel) {
  for (const PlatformConfig& platform :
       {PlatformConfig::Platform1(), PlatformConfig::Platform2()}) {
    for (const ServiceSpec& spec : ServiceSpec::FleetArchetypes()) {
      const ServiceDemand demand =
          ComputeServiceDemand(spec, platform.prefetch);
      EXPECT_EQ(demand.spec, &spec);
      const DemandCoefficients want[] = {
          ReferenceCoefficients(spec, platform.prefetch, true, true),
          ReferenceCoefficients(spec, platform.prefetch, false, true),
          ReferenceCoefficients(spec, platform.prefetch, false, false)};
      for (std::size_t r = 0; r < kNumPrefetchRegimes; ++r) {
        const DemandCoefficients& got = demand.by_regime[r];
        for (std::size_t c = 0; c < kNumCategories; ++c) {
          EXPECT_EQ(got.misses[c], want[r].misses[c]) << spec.name;
        }
        EXPECT_EQ(got.mpki_eff, want[r].mpki_eff) << spec.name;
        EXPECT_EQ(got.traffic_per_kinstr, want[r].traffic_per_kinstr)
            << spec.name;
      }
      // Hardware prefetching on also ignores the soft-prefetch switch.
      EXPECT_EQ(demand.by_regime[0].traffic_per_kinstr,
                ReferenceCoefficients(spec, platform.prefetch, true, false)
                    .traffic_per_kinstr);
    }
  }
}

TEST(ServiceDemandTest, FindsEveryServiceWhateverItsIndexHint) {
  const std::vector<ServiceSpec> services = ServiceSpec::FleetArchetypes();
  const PrefetchResponse response = PlatformConfig::Platform1().prefetch;
  ServiceDemandTable table;
  // Hints that match, that name another service's slot, that are out of
  // range, and one spec added under two hints.
  table.AddService(services[1], 0, response);
  table.AddService(services[0], 0, response);
  table.AddService(services[2], 2, response);
  table.AddService(services[3], 1000000, response);
  table.AddService(services[4], -1, response);
  table.AddService(services[2], 5, response);
  for (std::size_t s = 0; s < 5; ++s) {
    for (const int hint : {0, 1, 2, 5, 1000000, -1}) {
      EXPECT_EQ(table.Find(&services[s], hint).spec, &services[s]);
    }
  }
}

void ExpectSameTick(const MachineModel::TickResult& a,
                    const MachineModel::TickResult& b, int tick) {
  EXPECT_EQ(a.cpu_utilization, b.cpu_utilization) << "tick " << tick;
  EXPECT_EQ(a.bandwidth_gbps, b.bandwidth_gbps) << "tick " << tick;
  EXPECT_EQ(a.bandwidth_utilization, b.bandwidth_utilization);
  EXPECT_EQ(a.latency_ns, b.latency_ns);
  EXPECT_EQ(a.offered_qps, b.offered_qps);
  EXPECT_EQ(a.served_qps, b.served_qps);
  EXPECT_EQ(a.prefetchers_on, b.prefetchers_on);
  EXPECT_EQ(a.down, b.down);
  for (std::size_t c = 0; c < kNumCategories; ++c) {
    EXPECT_EQ(a.category_cycles[c], b.category_cycles[c]);
  }
}

// A fleet machine reads the fleet's shared demand table, a standalone
// machine its private one; given the same tasks and RNG stream they must
// tick identically, through prefetcher toggles in the full arm.
TEST(ServiceDemandTest, StandaloneMachineTicksLikeItsFleetTwin) {
  for (const DeploymentMode mode :
       {DeploymentMode::kBaseline, DeploymentMode::kFullLimoncello}) {
    FleetOptions options;
    options.num_machines = 16;
    options.ticks = 10;
    options.fill = 0.75;
    options.seed = 5;
    options.num_threads = 1;
    ControllerConfig controller;
    controller.sustain_duration_ns = 3 * kNsPerSec;
    const PlatformConfig platform = PlatformConfig::Platform1();
    FleetSimulator sim(platform, mode, controller, options);
    bool toggled = false;
    for (std::size_t m = 0; m < 4; ++m) {
      MachineModel& twin = *sim.machines()[m];
      MachineModel solo(platform, mode, controller,
                        Rng(options.seed).Fork(0x9000 + m));
      for (const MachineModel::Task& task : twin.tasks()) solo.AddTask(task);
      ASSERT_FALSE(solo.tasks().empty());
      for (int t = 0; t < 300; ++t) {
        // Load swings between light and heavy so daemons cross both
        // thresholds and the prefetch regime changes.
        const double level = (t / 40) % 2 == 0 ? 0.6 : 1.8;
        const std::vector<double> load(8, level + 0.001 * (t % 7));
        const SimTimeNs now = static_cast<SimTimeNs>(t) * kNsPerSec;
        const MachineModel::TickResult a = twin.Tick(now, load);
        const MachineModel::TickResult b = solo.Tick(now, load);
        ExpectSameTick(a, b, t);
        toggled = toggled || !a.prefetchers_on;
        if (HasFailure()) return;
      }
    }
    EXPECT_EQ(toggled, mode == DeploymentMode::kFullLimoncello);
  }
}

}  // namespace
}  // namespace limoncello
