// fleet_ab: the paper's section 5 A/B experiment. FleetSimulator runs arm
// kBaseline, then arm kFullLimoncello, with the same seed and the fleet
// benches' DefaultFleetOptions, one arm after the other. The baseline arm
// runs no controller, so the two arms separate fleet-engine cost from the
// cost of the per-machine LimoncelloDaemon (core/ + msr/).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "bench/bench_util.h"
#include "core/actuator.h"
#include "core/daemon.h"
#include "core/hysteresis_controller.h"
#include "fleet/fleet_simulator.h"
#include "fleet/machine_model.h"
#include "fleet/scheduler.h"
#include "msr/prefetch_control.h"
#include "msr/simulated_msr_device.h"
#include "sim/memory/latency_curve.h"
#include "telemetry/telemetry.h"
#include "workloads.h"

namespace perfbench {
namespace {

using limoncello::DeploymentMode;
using limoncello::FleetMetrics;
using limoncello::FleetOptions;
using limoncello::FleetSimulator;

// 2.5x bench_fleet_engine's 1k-machine sweep, whose arms swing by a
// factor of two between identical runs, yet small enough (~0.5 s per arm
// on 4 threads) that one run averages over a dozen fleet seeds: the
// controller's cost depends on the seed's load pattern.
constexpr int kMachines = 2500;
constexpr int kTicks = 600;

std::uint64_t Bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// Bit-exact digest of everything a FleetMetrics reports.
std::uint64_t Digest(const FleetMetrics& m) {
  std::uint64_t h = kFnvOffsetBasis;
  h = Fnv1a(h, Bits(m.served_qps_sum));
  h = Fnv1a(h, Bits(m.offered_qps_sum));
  for (double c : m.category_cycles) h = Fnv1a(h, Bits(c));
  h = Fnv1a(h, m.saturated_machine_ticks);
  h = Fnv1a(h, m.machine_ticks);
  h = Fnv1a(h, m.prefetcher_off_ticks);
  h = Fnv1a(h, m.controller_toggles);
  h = Fnv1a(h, m.bandwidth_gbps.Count());
  h = Fnv1a(h, Bits(m.bandwidth_gbps.Mean()));
  h = Fnv1a(h, Bits(m.bandwidth_utilization.Mean()));
  h = Fnv1a(h, Bits(m.latency_ns.Mean()));
  h = Fnv1a(h, Bits(m.latency_ns.Percentile(99.0)));
  for (const auto& a : m.machines) {
    h = Fnv1a(h, Bits(a.cpu_utilization_sum));
    h = Fnv1a(h, Bits(a.bw_utilization_sum));
    h = Fnv1a(h, a.prefetcher_off_ticks);
  }
  return h;
}

struct ArmRun {
  double ctor_s = 0.0;
  double run_s = 0.0;
  std::uint64_t digest = 0;
  FleetMetrics metrics;
  std::uint64_t run_allocs = 0;
};

const char* ArmName(DeploymentMode mode) {
  return mode == DeploymentMode::kBaseline ? "baseline" : "full";
}

// Layer probes that need a live, placed fleet: standalone MachineModel
// ticks with the fleet's platform, tasks and a shared LatencyLut, then
// ClusterScheduler::Rebalance over the fleet's machines.
struct FleetProbes {
  double machine_tick_ns = 0.0;
  double rebalance_ms = 0.0;
};

FleetProbes ProbeLiveFleet(const FleetSimulator& sim, DeploymentMode mode,
                           const limoncello::PlatformConfig& platform,
                           const limoncello::ControllerConfig& controller,
                           const FleetOptions& options, std::uint64_t seed,
                           Tracer* tracer) {
  FleetProbes probes;
  const limoncello::LatencyLut lut(platform.latency);
  constexpr int kProbeMachines = 16;
  constexpr int kProbeTicks = 2000;
  std::vector<std::unique_ptr<limoncello::MachineModel>> machines;
  std::size_t services = 1;
  for (int i = 0; i < kProbeMachines; ++i) {
    auto machine = std::make_unique<limoncello::MachineModel>(
        platform, mode, controller, limoncello::Rng(seed).Fork(0x7100 + i),
        nullptr, 0, nullptr, 0, &lut);
    for (const auto& task :
         sim.machines()[static_cast<std::size_t>(i)]->tasks()) {
      machine->AddTask(task);
      services = std::max(services,
                          static_cast<std::size_t>(task.service_index) + 1);
    }
    machines.push_back(std::move(machine));
  }
  std::vector<double> load(services, 1.0);
  double sink = 0.0;
  const char* span = mode == DeploymentMode::kBaseline
                         ? "fleet.machine_tick.baseline"
                         : "fleet.machine_tick.full";
  const auto start = Clock::now();
  {
    Span s(tracer, span);
    for (int t = 0; t < kProbeTicks; ++t) {
      // A slow diurnal swing so the daemons see both thresholds.
      const double factor = 1.0 + 0.6 * ((t / 100) % 2 == 0 ? 1.0 : -0.5);
      std::fill(load.begin(), load.end(), factor);
      const limoncello::SimTimeNs now =
          static_cast<limoncello::SimTimeNs>(t) * options.tick_ns;
      for (auto& m : machines) sink += m->Tick(now, load).served_qps;
    }
  }
  probes.machine_tick_ns = SecondsBetween(start, Clock::now()) * 1e9 /
                           (kProbeMachines * kProbeTicks);
  if (sink < 0) std::printf("%g\n", sink);

  std::vector<limoncello::MachineModel*> raw;
  raw.reserve(sim.machines().size());
  for (const auto& m : sim.machines()) raw.push_back(m.get());
  limoncello::ClusterScheduler scheduler(options.scheduler,
                                         limoncello::Rng(seed).Fork(0x5c4e));
  scheduler.AssignCaps(raw.size());
  std::vector<double> rebalance_ms;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    Span s(tracer, "fleet.rebalance");
    (void)scheduler.Rebalance(raw);
    rebalance_ms.push_back(SecondsBetween(t0, Clock::now()) * 1e3);
  }
  probes.rebalance_ms = Median(rebalance_ms);
  return probes;
}

ArmRun RunArm(DeploymentMode mode, const limoncello::PlatformConfig& platform,
              const limoncello::ControllerConfig& controller,
              const FleetOptions& options, Tracer* tracer,
              std::optional<FleetProbes>* probes, std::uint64_t seed) {
  ArmRun arm;
  Span arm_span(tracer, mode == DeploymentMode::kBaseline
                            ? "fleet_ab.arm.baseline"
                            : "fleet_ab.arm.full");
  const auto t0 = Clock::now();
  std::optional<FleetSimulator> sim;
  {
    Span s(tracer, mode == DeploymentMode::kBaseline ? "fleet.ctor.baseline"
                                                     : "fleet.ctor.full");
    sim.emplace(platform, mode, controller, options);
  }
  const auto t1 = Clock::now();
  if (tracer != nullptr) AllocCounter::Start();
  {
    Span s(tracer, mode == DeploymentMode::kBaseline ? "fleet.run.baseline"
                                                     : "fleet.run.full");
    arm.metrics = sim->Run();
  }
  const auto t2 = Clock::now();
  if (tracer != nullptr) arm.run_allocs = AllocCounter::Stop();
  arm.ctor_s = SecondsBetween(t0, t1);
  arm.run_s = SecondsBetween(t1, t2);
  arm.digest = Digest(arm.metrics);
  if (probes != nullptr) {
    *probes = ProbeLiveFleet(*sim, mode, platform, controller, options, seed,
                             tracer);
  }
  return arm;
}

// Scripted utilization that crosses both thresholds of the deployed
// controller, jittered so the daemon's frozen-exporter check never trips.
class ScriptedUtilization : public limoncello::UtilizationSource {
 public:
  explicit ScriptedUtilization(std::uint64_t seed) : rng_(seed) {}
  std::optional<double> SampleUtilization() override {
    const bool high = (tick_++ / 12) % 2 == 0;
    return (high ? 0.9 : 0.4) + rng_.NextDouble(0.0, 0.02);
  }

 private:
  limoncello::Rng rng_;
  std::uint64_t tick_ = 0;
};

// LimoncelloDaemon::RunTick with a SimulatedMsrDevice-backed actuator.
double ProbeDaemonTickNs(const limoncello::ControllerConfig& controller,
                         std::uint64_t seed, Tracer* tracer) {
  constexpr int kCpus = 4;
  constexpr int kTicksToRun = 200000;
  limoncello::SimulatedMsrDevice msr(kCpus);
  limoncello::PrefetchControl control(
      &msr, limoncello::PlatformMsrLayout::kIntelStyle, 0, kCpus);
  limoncello::MsrPrefetchActuator actuator(&control, kCpus);
  ScriptedUtilization source(seed);
  limoncello::LimoncelloDaemon daemon(controller, &source, &actuator);
  daemon.set_trace_recording(false);
  const auto start = Clock::now();
  {
    Span s(tracer, "core.daemon_tick");
    for (int t = 0; t < kTicksToRun; ++t) {
      (void)daemon.RunTick(static_cast<limoncello::SimTimeNs>(t) *
                           controller.tick_period_ns);
    }
  }
  return SecondsBetween(start, Clock::now()) * 1e9 / kTicksToRun;
}

double ProbeFsmTickNs(const limoncello::ControllerConfig& controller,
                      std::uint64_t seed, Tracer* tracer) {
  constexpr int kSamples = 4096;
  constexpr int kTicksToRun = 2000000;
  limoncello::Rng rng(seed);
  std::vector<double> script(kSamples);
  for (int i = 0; i < kSamples; ++i) {
    script[static_cast<std::size_t>(i)] =
        ((i / 12) % 2 == 0 ? 0.9 : 0.4) + rng.NextDouble(0.0, 0.02);
  }
  limoncello::HysteresisController fsm(controller);
  int actions = 0;
  const auto start = Clock::now();
  {
    Span s(tracer, "core.fsm_tick");
    for (int t = 0; t < kTicksToRun; ++t) {
      actions += fsm.Tick(script[static_cast<std::size_t>(t % kSamples)]) !=
                 limoncello::ControllerAction::kNone;
    }
  }
  const double ns = SecondsBetween(start, Clock::now()) * 1e9 / kTicksToRun;
  if (actions == 0) std::printf("  note: FSM probe never toggled\n");
  return ns;
}

double ProbeLutNs(const limoncello::PlatformConfig& platform,
                  std::uint64_t seed, Tracer* tracer) {
  constexpr int kPoints = 4096;
  constexpr int kCalls = 4000000;
  const limoncello::LatencyLut lut(platform.latency);
  limoncello::Rng rng(seed);
  std::vector<double> u(kPoints);
  for (double& x : u) x = rng.NextDouble(0.0, 1.2);
  double sum = 0.0;
  const auto start = Clock::now();
  {
    Span s(tracer, "sim.memory.lut");
    for (int i = 0; i < kCalls; ++i) {
      sum += lut.At(u[static_cast<std::size_t>(i % kPoints)]);
    }
  }
  const double ns = SecondsBetween(start, Clock::now()) * 1e9 / kCalls;
  if (sum < 0) std::printf("%g\n", sum);
  return ns;
}

}  // namespace

WorkloadResult RunFleetAb(const RunOptions& opt, Tracer* tracer) {
  WorkloadResult r;
  r.workload = "fleet_ab";
  const auto begin = Clock::now();
  const limoncello::PlatformConfig platform =
      limoncello::PlatformConfig::Platform1();
  const limoncello::ControllerConfig controller =
      limoncello::bench::DeployedControllerConfig();
  FleetOptions options = limoncello::bench::DefaultFleetOptions(opt.seed);
  options.num_machines = kMachines;
  options.ticks = kTicks;
  options.num_threads = std::min(4, Nproc());
  const std::uint64_t expected_ticks =
      static_cast<std::uint64_t>(kMachines) * kTicks;

  // Warm-up: a short arm at full size, so the first timed arm does not
  // pay the process's first touch of the fleet-sized heap.
  {
    FleetOptions warm = options;
    warm.ticks = 60;
    FleetSimulator sim(platform, DeploymentMode::kFullLimoncello, controller,
                       warm);
    (void)sim.Run();
  }

  // One entry per A/B pair.
  std::vector<double> setup_s, base_tick_us, full_tick_us, pair_rate,
      pair_steal;
  std::uint64_t first_digest[2] = {0, 0};
  // Each pair runs its own fleet seed, derived from the benchmark seed, so
  // a run averages over several load patterns; the final pair repeats the
  // first seed and must reproduce its digests bit for bit.
  const auto fleet_seed = [&opt](int k) {
    return limoncello::Rng(opt.seed).Fork(static_cast<std::uint64_t>(k))
        .NextU64();
  };
  int pairs = 0;
  int distinct = 0;
  bool repeated = tracer != nullptr;  // the traced pass runs a single pair
  for (;;) {
    int k = 0;
    if (pairs == 0 || (tracer == nullptr &&
                       SecondsBetween(begin, Clock::now()) < opt.seconds)) {
      k = distinct++;
    } else if (!repeated) {
      repeated = true;
    } else {
      break;
    }
    options.seed = fleet_seed(k);
    const CpuTimes pair_start = CpuTimes::Now();
    double setup = 0.0;
    double pair_run_s = 0.0;
    std::uint64_t pair_ticks = 0;
    for (DeploymentMode mode :
         {DeploymentMode::kBaseline, DeploymentMode::kFullLimoncello}) {
      std::optional<FleetProbes> probes;
      ArmRun arm = RunArm(mode, platform, controller, options, tracer,
                          tracer != nullptr ? &probes : nullptr, opt.seed);
      const int idx = mode == DeploymentMode::kBaseline ? 0 : 1;
      ++r.attempted;
      bool ok = arm.metrics.machine_ticks == expected_ticks;
      if (idx == 0) ok = ok && arm.metrics.prefetcher_off_ticks == 0;
      if (idx == 1) ok = ok && arm.metrics.prefetcher_off_ticks > 0;
      if (pairs == 0) {
        first_digest[idx] = arm.digest;
      } else if (k == 0) {
        ok = ok && arm.digest == first_digest[idx];
      }
      if (!ok) ++r.failed;
      setup += arm.ctor_s;
      pair_run_s += arm.run_s;
      pair_ticks += arm.metrics.machine_ticks;
      (idx == 0 ? base_tick_us : full_tick_us)
          .push_back(arm.run_s * 1e6 / kTicks);
      if (pairs == 0) {
        const char* name = ArmName(mode);
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "fleet %s arm: digest %016llx, %llu prefetcher-off "
                      "ticks, %llu toggles",
                      name, static_cast<unsigned long long>(arm.digest),
                      static_cast<unsigned long long>(
                          arm.metrics.prefetcher_off_ticks),
                      static_cast<unsigned long long>(
                          arm.metrics.controller_toggles));
        r.notes.push_back(buf);
      }
      if (tracer != nullptr) {
        const std::string n = ArmName(mode);
        const double per_tick =
            static_cast<double>(arm.run_allocs) /
            static_cast<double>(std::max<std::uint64_t>(
                1, arm.metrics.machine_ticks));
        r.per_layer.push_back({"fleet.ctor_s." + n, arm.ctor_s, "s"});
        r.per_layer.push_back({"fleet.run_s." + n, arm.run_s, "s"});
        r.per_layer.push_back(
            {"fleet.machine_tick_ns." + n, probes->machine_tick_ns, "ns"});
        if (idx == 1) {
          r.per_layer.push_back(
              {"fleet.rebalance_ms", probes->rebalance_ms, "ms"});
          r.per_layer.push_back(
              {"fleet.controller_toggles.full",
               static_cast<double>(arm.metrics.controller_toggles), "count"});
          r.per_layer.push_back(
              {"fleet.prefetcher_off_ticks.full",
               static_cast<double>(arm.metrics.prefetcher_off_ticks),
               "count"});
        }
        // The controller can keep the full arm from ever saturating, so
        // only the baseline count is a per-layer metric (never 0).
        if (idx == 0) {
          r.per_layer.push_back(
              {"fleet.saturated_machine_ticks.baseline",
               static_cast<double>(arm.metrics.saturated_machine_ticks),
               "count"});
        }
        char buf[200];
        std::snprintf(buf, sizeof(buf),
                      "fleet %s arm: controller_toggles=%llu "
                      "prefetcher_off_ticks=%llu saturated_machine_ticks=%llu "
                      "allocs_per_machine_tick=%.6f",
                      n.c_str(),
                      static_cast<unsigned long long>(
                          arm.metrics.controller_toggles),
                      static_cast<unsigned long long>(
                          arm.metrics.prefetcher_off_ticks),
                      static_cast<unsigned long long>(
                          arm.metrics.saturated_machine_ticks),
                      per_tick);
        r.notes.push_back(buf);
      }
    }
    setup_s.push_back(setup);
    pair_rate.push_back(static_cast<double>(pair_ticks) / pair_run_s);
    pair_steal.push_back(StealShare(pair_start, CpuTimes::Now()));
    ++pairs;
  }

  if (tracer != nullptr) {
    r.per_layer.push_back(
        {"core.daemon_tick_ns",
         ProbeDaemonTickNs(controller, opt.seed, tracer), "ns"});
    r.per_layer.push_back(
        {"core.fsm_tick_ns", ProbeFsmTickNs(controller, opt.seed, tracer),
         "ns"});
    r.per_layer.push_back(
        {"sim.memory.lut_ns", ProbeLutNs(platform, opt.seed, tracer), "ns"});
  }

  // Over the pairs the hypervisor stole least from; medians, so a stall
  // of the shared host during one pair does not move the result.
  const std::vector<std::size_t> keep = LeastStolen(pair_steal);
  base_tick_us = Select(base_tick_us, keep);
  full_tick_us = Select(full_tick_us, keep);
  r.setup_s = Median(Select(setup_s, keep));
  r.peak_rss_mb = PeakRssMb();
  r.work_per_s = Median(Select(pair_rate, keep));
  r.a_p50_us = Median(base_tick_us);
  r.a_p90_us = RankTail(base_tick_us, 0.9).value;
  r.b_p50_us = Median(full_tick_us);
  r.b_p90_us = RankTail(full_tick_us, 0.9).value;
  r.named = {
      {"machine_ticks_per_s", r.work_per_s, "1/s"},
      {"fleet_tick_us.baseline.p50", r.a_p50_us, "us"},
      {"fleet_tick_us.full.p50", r.b_p50_us, "us"},
  };
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "fleet: %d machines x %d ticks, %d thread(s), %d A/B "
                "pair(s) over %d fleet seed(s), %zu kept (steal max %.1f%%); "
                "fleet-tick tails: baseline %s, full %s",
                kMachines, kTicks, options.num_threads, pairs, distinct,
                keep.size(),
                100.0 * *std::max_element(pair_steal.begin(), pair_steal.end()),
                DescribeTail(RankTail(base_tick_us, 0.9)).c_str(),
                DescribeTail(RankTail(full_tick_us, 0.9)).c_str());
  r.notes.push_back(buf);
  r.correct = r.failed == 0;
  return r;
}

}  // namespace perfbench
