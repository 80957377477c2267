// CI gate for the parallel fleet engine, registered as the
// bench_fleet_gate ctest. A small fixed configuration fails the build
// when
//   - parallel metrics diverge from serial (determinism regression),
//   - the epoch loop allocates (>= 0.05 heap allocations per
//     machine-tick, counted by perfbench's operator-new probe), or
//   - 4-thread speedup falls below a hardware-aware floor: 1.5x where
//     the host has >= 4 hardware threads, 1.05x with >= 2, and 0.85x on
//     a single-core host (threads can't win there; the gate only
//     rejects parallel-much-slower-than-serial regressions).
//
// Fleet throughput itself is measured by perfbench's fleet_ab workload
// (`python3 perfbench/run.py --workload fleet_ab`).
//
//   bench_fleet_engine
#include <chrono>
#include <cstdio>

#include "bench/bench_util.h"
#include "perfbench/src/common.h"
#include "util/thread_pool.h"

namespace limoncello::bench {
namespace {

// Gate allocation budget: heap allocations per machine-tick across one
// full serial Run(). The epoch loop itself is allocation-free; the
// budget absorbs one-time Run() setup (slice partials, the epoch factor
// buffer) and amortized histogram-bucket growth.
constexpr double kGateAllocsPerMachineTick = 0.05;

struct FleetEngineTiming {
  double seconds = 0.0;  // wall time of Run() only
  double machine_ticks_per_sec = 0.0;
  std::uint64_t machine_ticks = 0;
  double served_qps_sum = 0.0;  // determinism cross-check value
};

// Constructs the simulator (placement excluded from timing) and times
// Run() at the given thread count.
FleetEngineTiming TimeFleetEngine(FleetOptions options, int threads) {
  options.num_threads = threads;
  FleetSimulator sim(PlatformConfig::Platform1(),
                     DeploymentMode::kFullLimoncello,
                     DeployedControllerConfig(), options);
  const auto start = std::chrono::steady_clock::now();
  const FleetMetrics metrics = sim.Run();
  const auto end = std::chrono::steady_clock::now();

  FleetEngineTiming timing;
  timing.seconds = std::chrono::duration<double>(end - start).count();
  timing.machine_ticks = metrics.machine_ticks;
  timing.machine_ticks_per_sec =
      timing.seconds > 0.0
          ? static_cast<double>(timing.machine_ticks) / timing.seconds
          : 0.0;
  timing.served_qps_sum = metrics.served_qps_sum;
  return timing;
}

// Counts heap allocations across one serial Run() (construction and
// placement excluded) and returns allocations per machine-tick.
double MeasureRunAllocs(const FleetOptions& options) {
  FleetOptions serial = options;
  serial.num_threads = 1;
  FleetSimulator sim(PlatformConfig::Platform1(),
                     DeploymentMode::kFullLimoncello,
                     DeployedControllerConfig(), serial);
  perfbench::AllocCounter::Start();
  const FleetMetrics metrics = sim.Run();
  const std::uint64_t allocs = perfbench::AllocCounter::Stop();
  return metrics.machine_ticks > 0
             ? static_cast<double>(allocs) /
                   static_cast<double>(metrics.machine_ticks)
             : static_cast<double>(allocs);
}

// Hardware-aware 4-thread speedup floor (see file comment).
double GateSpeedupFloor(int hardware_threads) {
  if (hardware_threads >= 4) return 1.5;
  if (hardware_threads >= 2) return 1.05;
  return 0.85;
}

int RunGate() {
  // Small fixed configuration: big enough that per-arm wall time
  // (~0.1 s serial) dominates timer noise, small enough that the gate
  // stays an instant ctest.
  FleetOptions options = DefaultFleetOptions(42);
  options.num_machines = 512;
  options.ticks = 240;

  const int hw = ResolveThreadCount(0);
  std::printf("fleet engine gate: %d machines x %d ticks, host has %d "
              "hardware threads\n",
              options.num_machines, options.ticks, hw);

  const double allocs_per_tick = MeasureRunAllocs(options);
  const bool allocs_ok = allocs_per_tick < kGateAllocsPerMachineTick;
  std::printf("[%s] heap allocs per machine-tick: %.4f (budget %.2f)\n",
              allocs_ok ? "pass" : "FAIL", allocs_per_tick,
              kGateAllocsPerMachineTick);

  // Best-of-3 per arm: the gate compares rates, so each arm gets its
  // noise floor knocked down independently.
  FleetEngineTiming serial;
  FleetEngineTiming parallel;
  for (int rep = 0; rep < 3; ++rep) {
    const FleetEngineTiming s = TimeFleetEngine(options, 1);
    const FleetEngineTiming p = TimeFleetEngine(options, 4);
    if (rep == 0 || s.seconds < serial.seconds) serial = s;
    if (rep == 0 || p.seconds < parallel.seconds) parallel = p;
  }

  const bool identical =
      serial.served_qps_sum == parallel.served_qps_sum &&
      serial.machine_ticks == parallel.machine_ticks;
  std::printf("[%s] serial vs 4-thread metrics bit-identical\n",
              identical ? "pass" : "FAIL");

  const double speedup =
      serial.machine_ticks_per_sec > 0.0
          ? parallel.machine_ticks_per_sec / serial.machine_ticks_per_sec
          : 0.0;
  const double floor = GateSpeedupFloor(hw);
  const bool fast_enough = speedup >= floor;
  std::printf("[%s] 4-thread speedup %.2fx (floor %.2fx at %d hardware "
              "threads; serial %.0f machine-ticks/sec)\n",
              fast_enough ? "pass" : "FAIL", speedup, floor, hw,
              serial.machine_ticks_per_sec);

  return allocs_ok && identical && fast_enough ? 0 : 1;
}

}  // namespace
}  // namespace limoncello::bench

int main() { return limoncello::bench::RunGate(); }
