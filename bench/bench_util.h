// Shared experiment runners for the per-figure benchmark binaries.
#ifndef LIMONCELLO_BENCH_BENCH_UTIL_H_
#define LIMONCELLO_BENCH_BENCH_UTIL_H_

#include <functional>
#include <memory>
#include <vector>

#include "core/controller_config.h"
#include "fleet/fleet_simulator.h"
#include "profiling/profile.h"
#include "sim/machine/socket.h"
#include "workloads/function_catalog.h"

namespace limoncello::bench {

// ---------------------------------------------------------------------------
// Loaded-latency experiment (Intel MLC style, paper Fig. 1).

struct LoadedLatencyPoint {
  double demand_fraction = 0.0;  // requested load level (of peak)
  double utilization = 0.0;      // achieved total (demand+prefetch) util
  double touched_gbps = 0.0;     // application bandwidth (MLC-reported)
  double touched_fraction = 0.0; // touched_gbps / peak — the Fig. 1 x-axis
  double latency_ns = 0.0;       // average load-to-use latency
};

// Runs bandwidth-generator cores at increasing intensity and measures the
// average DRAM latency, with hardware prefetchers on or off.
std::vector<LoadedLatencyPoint> RunLoadedLatency(bool prefetchers_on,
                                                 int levels,
                                                 std::uint64_t seed);

// ---------------------------------------------------------------------------
// Fleet experiment helpers.

FleetOptions DefaultFleetOptions(std::uint64_t seed = 42);
ControllerConfig DeployedControllerConfig();

// Runs an A/B pair (same seed) and returns {before, after}. The arms
// share no mutable state and run concurrently (each with its own
// simulator and tick-loop thread pool).
struct FleetAb {
  FleetMetrics before;
  FleetMetrics after;
};
FleetAb RunFleetAb(const PlatformConfig& platform, DeploymentMode before,
                   DeploymentMode after, const ControllerConfig& controller,
                   const FleetOptions& options);

// Generalization for the multi-arm benches (e.g. the three-deployment
// Fig. 20 comparison): runs one arm per mode concurrently, returning
// metrics in mode order.
std::vector<FleetMetrics> RunFleetArms(const PlatformConfig& platform,
                                       const std::vector<DeploymentMode>& modes,
                                       const ControllerConfig& controller,
                                       const FleetOptions& options);

// Buckets machines of a run by their average CPU utilization (10 %-wide
// buckets, 0-10 .. 100-110) and averages a metric over each bucket.
struct CpuBucketRow {
  int bucket = 0;  // bucket * 10 .. bucket * 10 + 10 percent
  int machines = 0;
  double avg_bw_utilization = 0.0;
  double served_qps = 0.0;
};
std::vector<CpuBucketRow> BucketByCpu(const FleetMetrics& metrics);

// ---------------------------------------------------------------------------
// Native timing helper (for the memcpy sweeps, Fig. 15).

// Median-of-repeats wall time of fn(), in nanoseconds per call, after a
// warm-up. fn must do one "call" of the operation under test.
double TimeNsPerCall(const std::function<void()>& fn, int calls_per_rep,
                     int reps);

// ---------------------------------------------------------------------------
// Detailed-sim ablation (Figs. 11/12).

struct AblationResult {
  FunctionCatalog catalog;
  std::vector<FunctionDelta> deltas;
};

// Runs the control/experiment populations on the detailed simulator and
// diffs per-function profiles.
AblationResult RunDetailedAblation(int machines, int epochs,
                                   std::uint64_t seed);

}  // namespace limoncello::bench

#endif  // LIMONCELLO_BENCH_BENCH_UTIL_H_
