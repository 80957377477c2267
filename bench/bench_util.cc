#include "bench/bench_util.h"

#include <algorithm>
#include <chrono>

#include "profiling/sampling_profiler.h"
#include "util/thread_pool.h"
#include "workloads/generators.h"

namespace limoncello::bench {

namespace {

SocketConfig LoadedLatencySocket() {
  SocketConfig config;
  config.num_cores = 8;
  config.memory.peak_gbps = 24.0;
  config.memory.jitter_fraction = 0.0;
  // Bandwidth generators overlap many misses, like MLC's streaming
  // threads; latency is still measured per DRAM request.
  config.mlp = 8.0;
  return config;
}

}  // namespace

std::vector<LoadedLatencyPoint> RunLoadedLatency(bool prefetchers_on,
                                                 int levels,
                                                 std::uint64_t seed) {
  std::vector<LoadedLatencyPoint> points;
  for (int level = 1; level <= levels; ++level) {
    // Demand sweeps up to 1.5x the channel peak so the socket reaches
    // true saturation even with prefetchers off.
    const double fraction = 1.5 * static_cast<double>(level) /
                            static_cast<double>(levels);
    Socket socket(LoadedLatencySocket(), 4, Rng(seed + level));
    socket.SetAllPrefetchersEnabled(prefetchers_on);
    const int active_cores = socket.config().num_cores;
    // MLC-style bandwidth generators: long sequential streams. The
    // compute gap is calibrated per prefetcher state so both states
    // inject comparable application bandwidth: with prefetchers on the
    // stream is covered (no stall per line), with them off each line
    // stalls for ~unloaded_latency/mlp cycles.
    const double cycles_per_access = 53.0 / std::max(0.05, fraction);
    const double stall = prefetchers_on ? 0.0 : 28.0;
    const double target_gap =
        std::max(1.0, 2.0 * (cycles_per_access - stall));
    for (int core = 0; core < active_cores; ++core) {
      SequentialStreamGenerator::Options o;
      o.working_set_bytes = 512 * kMiB;
      o.mean_stream_bytes = 1 * kMiB;  // long MLC-like buffers
      o.stream_sigma = 0.3;
      o.gap_instructions_mean = target_gap;
      o.store_fraction = 0.0;
      o.function = 0;
      socket.SetWorkload(core, std::make_unique<SequentialStreamGenerator>(
                                   o, Rng(seed).Fork(core)));
    }
    // Warm to steady state, then measure.
    for (int epoch = 0; epoch < 30; ++epoch) socket.Step(100 * kNsPerUs);
    const PmuCounters warm = socket.counters();
    const SimTimeNs t0 = socket.now();
    for (int epoch = 0; epoch < 30; ++epoch) socket.Step(100 * kNsPerUs);
    const PmuCounters done = socket.counters();
    const double interval_ns = static_cast<double>(socket.now() - t0);

    LoadedLatencyPoint p;
    p.demand_fraction = fraction;
    const double touched_bytes =
        static_cast<double>(done.lines_touched - warm.lines_touched) *
        static_cast<double>(kCacheLineBytes);
    const double total_bytes =
        static_cast<double>(done.DramTotalBytes() - warm.DramTotalBytes());
    p.touched_gbps = touched_bytes / interval_ns;
    p.touched_fraction =
        p.touched_gbps / socket.memory().config().peak_gbps;
    p.utilization =
        total_bytes / interval_ns / socket.memory().config().peak_gbps;
    const double requests =
        static_cast<double>(done.dram_requests - warm.dram_requests);
    p.latency_ns =
        requests > 0
            ? (done.dram_latency_ns_sum - warm.dram_latency_ns_sum) /
                  requests
            : 0.0;
    points.push_back(p);
  }
  return points;
}

FleetOptions DefaultFleetOptions(std::uint64_t seed) {
  FleetOptions options;
  // Fleet scale proper (paper §5 runs warehouse-scale deployments): the
  // SoA machine state and epoch-batched tick loop hold >1M machine-
  // ticks/sec per lane, so 100k machines x 600 ticks completes in about
  // a minute per arm. Benches that only need distribution *shape* (not
  // population) override num_machines downward.
  options.num_machines = 100000;
  options.ticks = 600;
  options.fill = 0.50;
  options.seed = seed;
  options.diurnal_period_ns = 600LL * kNsPerSec;
  return options;
}

ControllerConfig DeployedControllerConfig() {
  ControllerConfig config;
  config.upper_threshold = 0.80;
  config.lower_threshold = 0.60;
  config.sustain_duration_ns = 5 * kNsPerSec;
  return config;
}

FleetAb RunFleetAb(const PlatformConfig& platform, DeploymentMode before,
                   DeploymentMode after, const ControllerConfig& controller,
                   const FleetOptions& options) {
  const std::vector<FleetMetrics> arms =
      RunFleetArms(platform, {before, after}, controller, options);
  FleetAb result;
  result.before = arms[0];
  result.after = arms[1];
  return result;
}

std::vector<FleetMetrics> RunFleetArms(
    const PlatformConfig& platform, const std::vector<DeploymentMode>& modes,
    const ControllerConfig& controller, const FleetOptions& options) {
  std::vector<FleetMetrics> results(modes.size());
  std::vector<std::function<void()>> arms;
  arms.reserve(modes.size());
  for (std::size_t i = 0; i < modes.size(); ++i) {
    arms.push_back([&, i] {
      results[i] = RunFleetArm(platform, modes[i], controller, options);
    });
  }
  ParallelInvoke(std::move(arms));
  return results;
}

std::vector<CpuBucketRow> BucketByCpu(const FleetMetrics& metrics) {
  std::vector<CpuBucketRow> rows(11);
  for (int b = 0; b < 11; ++b) rows[static_cast<std::size_t>(b)].bucket = b;
  for (const MachineAggregate& m : metrics.machines) {
    const int b = std::clamp(static_cast<int>(m.AvgCpu() * 10.0), 0, 10);
    CpuBucketRow& row = rows[static_cast<std::size_t>(b)];
    ++row.machines;
    row.avg_bw_utilization += m.AvgBwUtil();
    row.served_qps += m.served_qps_sum;
  }
  for (CpuBucketRow& row : rows) {
    if (row.machines > 0) {
      row.avg_bw_utilization /= static_cast<double>(row.machines);
    }
  }
  return rows;
}

double TimeNsPerCall(const std::function<void()>& fn, int calls_per_rep,
                     int reps) {
  using Clock = std::chrono::steady_clock;
  // Warm-up.
  for (int i = 0; i < calls_per_rep; ++i) fn();
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    for (int i = 0; i < calls_per_rep; ++i) fn();
    const auto end = Clock::now();
    samples.push_back(
        std::chrono::duration<double, std::nano>(end - start).count() /
        static_cast<double>(calls_per_rep));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

AblationResult RunDetailedAblation(int machines, int epochs,
                                   std::uint64_t seed) {
  AblationResult result;
  result.catalog = FunctionCatalog::FleetDefault();

  SocketConfig config;
  config.num_cores = 4;
  config.memory.peak_gbps = 32.0;  // moderate fleet-average load point
  config.memory.jitter_fraction = 0.0;

  auto run_population = [&](bool prefetchers_on) {
    ProfileAggregate aggregate(result.catalog.size());
    SamplingProfiler::Options po;
    po.machine_sample_probability = 1.0;
    po.event_sample_fraction = 0.5;
    SamplingProfiler profiler(po, Rng(seed));
    for (int m = 0; m < machines; ++m) {
      Socket socket(config, result.catalog.size(),
                    Rng(seed + static_cast<std::uint64_t>(m)));
      socket.SetAllPrefetchersEnabled(prefetchers_on);
      for (int core = 0; core < config.num_cores; ++core) {
        socket.SetWorkload(
            core, result.catalog.MakeFleetMix(
                      Rng(seed + static_cast<std::uint64_t>(m))
                          .Fork(static_cast<std::uint64_t>(core))));
      }
      for (int epoch = 0; epoch < epochs; ++epoch) {
        socket.Step(100 * kNsPerUs);
      }
      profiler.CollectFrom(socket.function_profile(), &aggregate);
    }
    return aggregate;
  };

  const ProfileAggregate control = run_population(true);
  const ProfileAggregate experiment = run_population(false);
  result.deltas = CompareAblation(control, experiment, result.catalog);
  return result;
}

}  // namespace limoncello::bench
