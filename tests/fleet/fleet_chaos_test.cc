// Fleet-scale chaos test: a deterministic fault load (telemetry
// corruption, MSR write failures, crash/reboot cycles) across the fleet
// must complete cleanly, every daemon must reconverge once the fault
// window closes, and the run must stay bit-identical at any thread count
// — the determinism contract extends to fault injection.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <ostream>

#include "fleet/fleet_simulator.h"

namespace limoncello {
namespace {

FaultSpec ChaosSpec() {
  FaultSpec faults;
  faults.telemetry_dropout_rate = 0.01;
  faults.telemetry_nan_rate = 0.005;
  faults.telemetry_stale_rate = 0.004;
  faults.telemetry_spike_rate = 0.004;
  faults.msr_transient_rate = 0.008;
  faults.msr_core_fault_rate = 0.004;
  faults.crash_rate = 0.004;
  faults.daemon_restart_rate = 0.004;
  faults.daemon_restart_down_ticks = 3;
  // Quiet tail: no new fault may start after tick 340, so by the end of
  // the run every machine has had time to reconverge.
  faults.max_fault_tick = 340;
  return faults;
}

FleetOptions ChaosFleet(int num_threads) {
  FleetOptions options;
  options.num_machines = 48;
  options.ticks = 400;
  options.fill = 0.75;  // high enough that controllers actually toggle
  options.seed = 42;
  options.diurnal_period_ns = 400LL * kNsPerSec;
  options.num_threads = num_threads;
  options.faults = ChaosSpec();
  options.daemon_snapshot_period_ticks = 4;
  return options;
}

ControllerConfig ChaosController() {
  ControllerConfig config;
  config.sustain_duration_ns = 3 * kNsPerSec;
  return config;
}

// Bit-identical comparison (EXPECT_EQ on doubles is deliberate),
// covering the fault-load metrics on top of the performance ones.
void ExpectIdenticalChaos(const FleetMetrics& a, const FleetMetrics& b) {
  EXPECT_EQ(a.machine_ticks, b.machine_ticks);
  EXPECT_EQ(a.saturated_machine_ticks, b.saturated_machine_ticks);
  EXPECT_EQ(a.prefetcher_off_ticks, b.prefetcher_off_ticks);
  EXPECT_EQ(a.controller_toggles, b.controller_toggles);
  EXPECT_EQ(a.served_qps_sum, b.served_qps_sum);
  EXPECT_EQ(a.offered_qps_sum, b.offered_qps_sum);
  EXPECT_EQ(a.down_machine_ticks, b.down_machine_ticks);
  EXPECT_EQ(a.diverged_machine_ticks, b.diverged_machine_ticks);
  EXPECT_EQ(a.reconverge_events, b.reconverge_events);
  EXPECT_EQ(a.reconverge_ticks_sum, b.reconverge_ticks_sum);
  EXPECT_EQ(a.max_reconverge_ticks, b.max_reconverge_ticks);
  EXPECT_EQ(a.telemetry_faults_injected, b.telemetry_faults_injected);
  EXPECT_EQ(a.msr_write_faults_injected, b.msr_write_faults_injected);
  EXPECT_EQ(a.crashes_injected, b.crashes_injected);
  EXPECT_EQ(a.reboots_completed, b.reboots_completed);
  EXPECT_EQ(a.failsafe_resets, b.failsafe_resets);
  EXPECT_EQ(a.reboots_detected, b.reboots_detected);
  EXPECT_EQ(a.state_reasserts, b.state_reasserts);
  EXPECT_EQ(a.daemon_kills_injected, b.daemon_kills_injected);
  EXPECT_EQ(a.daemon_restarts_completed, b.daemon_restarts_completed);
  EXPECT_EQ(a.daemon_down_machine_ticks, b.daemon_down_machine_ticks);
  EXPECT_EQ(a.warm_restores, b.warm_restores);
  EXPECT_EQ(a.recovery_reconciles, b.recovery_reconciles);
  for (auto histogram_member :
       {&FleetMetrics::bandwidth_gbps, &FleetMetrics::bandwidth_utilization,
        &FleetMetrics::latency_ns}) {
    const Histogram& x = a.*histogram_member;
    const Histogram& y = b.*histogram_member;
    EXPECT_EQ(x.Count(), y.Count());
    EXPECT_EQ(x.Mean(), y.Mean());
    EXPECT_EQ(x.Stddev(), y.Stddev());
    EXPECT_EQ(x.Percentile(99), y.Percentile(99));
  }
  ASSERT_EQ(a.machines.size(), b.machines.size());
  for (std::size_t m = 0; m < a.machines.size(); ++m) {
    EXPECT_EQ(a.machines[m].cpu_utilization_sum,
              b.machines[m].cpu_utilization_sum);
    EXPECT_EQ(a.machines[m].offered_qps_sum, b.machines[m].offered_qps_sum);
    EXPECT_EQ(a.machines[m].ticks, b.machines[m].ticks);
    EXPECT_EQ(a.machines[m].prefetcher_off_ticks,
              b.machines[m].prefetcher_off_ticks);
  }
}

TEST(FleetChaosTest, FaultFreeRunReportsNoFaultMetrics) {
  FleetOptions options;
  options.num_machines = 10;
  options.ticks = 30;
  options.diurnal_period_ns = 30LL * kNsPerSec;
  options.num_threads = 1;
  FleetSimulator sim(PlatformConfig::Platform1(),
                     DeploymentMode::kHardLimoncello, ChaosController(),
                     options);
  for (const auto& machine : sim.machines()) {
    EXPECT_EQ(machine->injector(), nullptr);
  }
  const FleetMetrics metrics = sim.Run();
  EXPECT_EQ(metrics.down_machine_ticks, 0u);
  EXPECT_EQ(metrics.telemetry_faults_injected, 0u);
  EXPECT_EQ(metrics.crashes_injected, 0u);
  EXPECT_DOUBLE_EQ(metrics.Availability(), 1.0);
}

TEST(FleetChaosTest, ChaosRunSurvivesAndReconverges) {
  FleetSimulator sim(PlatformConfig::Platform1(),
                     DeploymentMode::kHardLimoncello, ChaosController(),
                     ChaosFleet(0));
  const FleetMetrics metrics = sim.Run();

  // The fault load actually landed, and broadly across the fleet.
  EXPECT_GT(metrics.telemetry_faults_injected, 0u);
  EXPECT_GT(metrics.msr_write_faults_injected, 0u);
  EXPECT_GT(metrics.crashes_injected, 0u);
  int machines_faulted = 0;
  for (const auto& machine : sim.machines()) {
    ASSERT_NE(machine->injector(), nullptr);
    machines_faulted += machine->injector()->stats().Any() ? 1 : 0;
  }
  EXPECT_GE(machines_faulted, static_cast<int>(sim.machines().size()) / 10)
      << "fault load should hit well over 10% of the fleet";

  // Every crash completed its reboot inside the run (quiet tail).
  EXPECT_EQ(metrics.reboots_completed, metrics.crashes_injected);
  EXPECT_GT(metrics.down_machine_ticks, 0u);
  EXPECT_GT(metrics.Availability(), 0.9);
  EXPECT_LT(metrics.Availability(), 1.0);

  // The hardening paths fired and the fleet healed: every divergence
  // episode eventually reconverged.
  EXPECT_GT(metrics.reconverge_events, 0u);
  EXPECT_GT(metrics.diverged_machine_ticks, 0u);
  EXPECT_GE(metrics.MeanTicksToReconverge(), 1.0);

  // Daemon-restart windows opened, closed, and warm-restarted from the
  // in-memory journal snapshots (period 4, so every kill has a snapshot).
  EXPECT_GT(metrics.daemon_kills_injected, 0u);
  EXPECT_EQ(metrics.daemon_restarts_completed, metrics.daemon_kills_injected);
  EXPECT_GT(metrics.daemon_down_machine_ticks, 0u);
  EXPECT_GT(metrics.warm_restores, 0u);

  // After the quiet tail every machine is up and its hardware state
  // agrees with its daemon's intent.
  for (const auto& machine : sim.machines()) {
    EXPECT_FALSE(machine->injector()->MachineDown());
    EXPECT_FALSE(machine->injector()->DaemonDown());
    ASSERT_NE(machine->daemon(), nullptr);
    EXPECT_EQ(machine->prefetchers_on(),
              machine->daemon()->controller().PrefetchersShouldBeEnabled());
  }
}

TEST(FleetChaosTest, ColdRestartsStillReconvergeWithoutSnapshots) {
  // Snapshots disabled: every daemon restart is a cold start. The fleet
  // must still heal — the reconcile path re-asserts cold intent against
  // whatever the frozen hardware was left holding.
  FleetOptions options = ChaosFleet(1);
  options.daemon_snapshot_period_ticks = 0;
  FleetSimulator sim(PlatformConfig::Platform1(),
                     DeploymentMode::kHardLimoncello, ChaosController(),
                     options);
  const FleetMetrics metrics = sim.Run();
  EXPECT_GT(metrics.daemon_kills_injected, 0u);
  EXPECT_EQ(metrics.daemon_restarts_completed, metrics.daemon_kills_injected);
  EXPECT_EQ(metrics.warm_restores, 0u);
  for (const auto& machine : sim.machines()) {
    ASSERT_NE(machine->daemon(), nullptr);
    EXPECT_EQ(machine->prefetchers_on(),
              machine->daemon()->controller().PrefetchersShouldBeEnabled());
  }
}

TEST(FleetChaosTest, ChaosRunIsBitIdenticalAtAnyThreadCount) {
  const FleetMetrics serial = RunFleetArm(
      PlatformConfig::Platform1(), DeploymentMode::kHardLimoncello,
      ChaosController(), ChaosFleet(1));
  const FleetMetrics parallel = RunFleetArm(
      PlatformConfig::Platform1(), DeploymentMode::kHardLimoncello,
      ChaosController(), ChaosFleet(4));
  ASSERT_GT(serial.machine_ticks, 0u);
  ASSERT_GT(serial.telemetry_faults_injected, 0u);
  ExpectIdenticalChaos(serial, parallel);
}

// Golden: the integer fault-path and controller fields of a small serial
// full-Limoncello fleet, plain and under ChaosSpec() (daemon restarts
// included). Any change to the per-endpoint decision code that moves one
// of these moves fleet A/B figures too; re-pin only on purpose. Values
// recorded at commit e862ed4, before the daemon and the control plane
// shared one endpoint controller.
struct FleetGolden {
  std::uint64_t controller_toggles;
  std::uint64_t prefetcher_off_ticks;
  std::uint64_t failsafe_resets;
  std::uint64_t reboots_detected;
  std::uint64_t state_reasserts;
  std::uint64_t warm_restores;
  std::uint64_t recovery_reconciles;
  std::uint64_t diverged_machine_ticks;
  std::uint64_t reconverge_ticks_sum;
  std::uint64_t msr_write_faults_injected;
  std::uint64_t daemon_restarts_completed;
};

FleetOptions GoldenFleet(bool chaos) {
  FleetOptions options = ChaosFleet(1);
  options.num_machines = 24;
  if (!chaos) options.faults = FaultSpec();
  return options;
}

void ExpectGolden(const FleetMetrics& m, const FleetGolden& want) {
  EXPECT_EQ(m.controller_toggles, want.controller_toggles);
  EXPECT_EQ(m.prefetcher_off_ticks, want.prefetcher_off_ticks);
  EXPECT_EQ(m.failsafe_resets, want.failsafe_resets);
  EXPECT_EQ(m.reboots_detected, want.reboots_detected);
  EXPECT_EQ(m.state_reasserts, want.state_reasserts);
  EXPECT_EQ(m.warm_restores, want.warm_restores);
  EXPECT_EQ(m.recovery_reconciles, want.recovery_reconciles);
  EXPECT_EQ(m.diverged_machine_ticks, want.diverged_machine_ticks);
  EXPECT_EQ(m.reconverge_ticks_sum, want.reconverge_ticks_sum);
  EXPECT_EQ(m.msr_write_faults_injected, want.msr_write_faults_injected);
  EXPECT_EQ(m.daemon_restarts_completed, want.daemon_restarts_completed);
}

TEST(FleetGoldenTest, PlainFullLimoncelloFleetIsPinned) {
  const FleetMetrics m = RunFleetArm(
      PlatformConfig::Platform1(), DeploymentMode::kFullLimoncello,
      ChaosController(), GoldenFleet(false));
  ExpectGolden(m, {100, 7656, 0, 0, 0, 0, 0, 0, 0, 0, 0});
}

TEST(FleetGoldenTest, ChaosFullLimoncelloFleetIsPinned) {
  const FleetMetrics m = RunFleetArm(
      PlatformConfig::Platform1(), DeploymentMode::kFullLimoncello,
      ChaosController(), GoldenFleet(true));
  ExpectGolden(m, {140, 7049, 35, 19, 19, 32, 1, 132, 132, 192, 32});
}

// Golden: the fleet model's floating-point outputs, as bit patterns, for
// the same 24-machine fleet in the baseline and full-Limoncello arms,
// plain and under ChaosSpec(). The integer goldens above cannot see a
// change to the model's arithmetic, and fleet_parallel_test compares two
// runs of one build; these move with any bit of it. `machines` is FNV-1a
// over every machine's cpu_utilization_sum then bw_utilization_sum, the
// per-machine sums perfbench's fleet digest folds in. Values recorded at
// commit 94a054e, before the per-service demand table and the bracketed
// operating-point solve.
struct FleetFloatGolden {
  std::uint64_t served_qps_sum;
  std::uint64_t offered_qps_sum;
  std::array<std::uint64_t, kNumCategories> category_cycles;
  // Mean then p99 of bandwidth_gbps, bandwidth_utilization, latency_ns.
  std::array<std::uint64_t, 6> histograms;
  std::uint64_t machines;

  bool operator==(const FleetFloatGolden&) const = default;
};

// Prints a golden as the initializer that pins it, so a failure shows
// both sides in hex and a deliberate re-pin can copy the actual value.
void PrintTo(const FleetFloatGolden& g, std::ostream* os) {
  char buf[32];
  const auto hex = [&](std::uint64_t v) {
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
  };
  *os << "{" << hex(g.served_qps_sum) << ", " << hex(g.offered_qps_sum)
      << ", {";
  for (std::size_t i = 0; i < g.category_cycles.size(); ++i) {
    *os << (i ? ", " : "") << hex(g.category_cycles[i]);
  }
  *os << "}, {";
  for (std::size_t i = 0; i < g.histograms.size(); ++i) {
    *os << (i ? ", " : "") << hex(g.histograms[i]);
  }
  *os << "}, " << hex(g.machines) << "}";
}

std::uint64_t Bits(double d) { return std::bit_cast<std::uint64_t>(d); }

std::uint64_t Fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

FleetFloatGolden FloatsOf(const FleetMetrics& m) {
  FleetFloatGolden g{};
  g.served_qps_sum = Bits(m.served_qps_sum);
  g.offered_qps_sum = Bits(m.offered_qps_sum);
  for (std::size_t c = 0; c < g.category_cycles.size(); ++c) {
    g.category_cycles[c] = Bits(m.category_cycles[c]);
  }
  std::size_t i = 0;
  for (const Histogram* h :
       {&m.bandwidth_gbps, &m.bandwidth_utilization, &m.latency_ns}) {
    g.histograms[i++] = Bits(h->Mean());
    g.histograms[i++] = Bits(h->Percentile(99.0));
  }
  g.machines = 0xcbf29ce484222325ULL;
  for (const MachineAggregate& a : m.machines) {
    g.machines = Fnv1a(g.machines, Bits(a.cpu_utilization_sum));
    g.machines = Fnv1a(g.machines, Bits(a.bw_utilization_sum));
  }
  return g;
}

FleetMetrics RunGoldenArm(DeploymentMode mode, bool chaos) {
  return RunFleetArm(PlatformConfig::Platform1(), mode, ChaosController(),
                     GoldenFleet(chaos));
}

TEST(FleetGoldenTest, PlainBaselineFloatsArePinned) {
  EXPECT_EQ(
      FloatsOf(RunGoldenArm(DeploymentMode::kBaseline, false)),
      (FleetFloatGolden{0x41a686e0fb3b2168, 0x41a9eba23c54d4ed,
       {0x42c1dd060cb9e8f8, 0x42c57ef8f0418cc6, 0x42b615ec045eb760,
        0x42caab6c07113604, 0x4309c30fbedd32aa},
       {0x40596cae833718d9, 0x405cd1f88e6dd48f, 0x3feac33e6f2c85f7,
        0x3fee564901b6fab2, 0x40693a5a05b3a802, 0x407442113c28edbd},
       0x830ab296de266c7b}));
}

TEST(FleetGoldenTest, ChaosBaselineFloatsArePinned) {
  EXPECT_EQ(
      FloatsOf(RunGoldenArm(DeploymentMode::kBaseline, true)),
      (FleetFloatGolden{0x41a5b8ce3210691c, 0x41a9eba23c54d4f1,
       {0x42c0a4c62fce1c30, 0x42c41027931633d6, 0x42b4877e00d919b3,
        0x42c8ded652d96c57, 0x43077d41baa08434},
       {0x4058cde90b310487, 0x405cd18cf6351e2f, 0x3fea1c1dbaf03aaa,
        0x3fee55d7bfcc1fc6, 0x40678d5450ddd6bf, 0x407442113c28edbd},
       0x3bbef4f8f4c60ebf}));
}

TEST(FleetGoldenTest, PlainFullLimoncelloFloatsArePinned) {
  EXPECT_EQ(
      FloatsOf(RunGoldenArm(DeploymentMode::kFullLimoncello, false)),
      (FleetFloatGolden{0x41a906fe70934a96, 0x41a9eba23c54d4f1,
       {0x42c3522d9bcd0b3f, 0x42c763ad591a9936, 0x42b7f23a54ace4cb,
        0x42ccec25ab11f7b0, 0x4303d872885eb3c0},
       {0x4056abf4cbfdce52, 0x405c670c6a03e28f, 0x3fe7dd6d78697ae1,
        0x3feda9a03f336898, 0x40605f4b4cdd2cf8, 0x406d77b23447b5a7},
       0xd0746be971167ad6}));
}

TEST(FleetGoldenTest, ChaosFullLimoncelloFloatsArePinned) {
  EXPECT_EQ(
      FloatsOf(RunGoldenArm(DeploymentMode::kFullLimoncello, true)),
      (FleetFloatGolden{0x41a864b150162fc7, 0x41a9eba23c54d4f6,
       {0x42c2be3e789c9e4e, 0x42c69627c27c19e5, 0x42b723f336ee6352,
        0x42cbf9f9c73f1380, 0x4303897d4763aac7},
       {0x4056b31facd455fb, 0x405cd1f88e6dd48f, 0x3fe7e4f8ebd209ae,
        0x3fee417f9c9ff4e6, 0x4060ad0350bcf5b6, 0x40731582902da41d},
       0x8f2920abc9e1a952}));
}

}  // namespace
}  // namespace limoncello
