// Detailed socket model: cores with private L1/L2, shared LLC, a memory
// controller, per-core hardware prefetch engines, a simulated MSR file,
// and PMU counters.
//
// The socket advances in fixed epochs. Within an epoch every core executes
// its access trace against the cache hierarchy; misses charge memory
// latency from the controller's bandwidth-dependent curve. Writing the
// platform's prefetch-control MSR (msr_device()) enables/disables the
// per-core prefetch engines — the exact actuation path Hard Limoncello
// exercises.
#ifndef LIMONCELLO_SIM_MACHINE_SOCKET_H_
#define LIMONCELLO_SIM_MACHINE_SOCKET_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "msr/prefetch_control.h"
#include "msr/simulated_msr_device.h"
#include "sim/cache/cache.h"
#include "sim/memory/memory_controller.h"
#include "sim/prefetch/best_offset.h"
#include "sim/prefetch/prefetcher.h"
#include "util/rng.h"
#include "util/units.h"
#include "workloads/access.h"

namespace limoncello {

struct SocketConfig {
  int num_cores = 8;
  double freq_ghz = 2.5;
  // Cycles per instruction with all memory latency excluded.
  double base_cpi = 0.5;
  // Memory-level parallelism: concurrent demand misses a core overlaps.
  double mlp = 4.0;
  // Stores retire through the store buffer; only this fraction of a store
  // miss's latency lands on the critical path.
  double store_penalty_factor = 0.3;

  CacheConfig l1{32 * kKiB, 8};
  CacheConfig l2{1 * kMiB, 16};
  std::uint64_t llc_bytes_per_core = 2 * kMiB;
  int llc_ways = 16;
  double l2_hit_cycles = 12.0;
  double llc_hit_cycles = 42.0;

  MemoryControllerConfig memory;
  PlatformMsrLayout msr_layout = PlatformMsrLayout::kIntelStyle;
  StreamPrefetcher::Options stream;
  IpStridePrefetcher::Options ip_stride;
  // Swap the L2 stream detector for a best-offset engine (Michaud,
  // HPCA'16); it answers to the same MSR bit (kL2Stream).
  bool use_best_offset_l2 = false;
  BestOffsetPrefetcher::Options best_offset;

  // Retire cost of one software-prefetch instruction, as a fraction of
  // base_cpi (prefetches issue on spare slots; they are cheaper than an
  // arithmetic instruction but not free).
  double sw_prefetch_instruction_cost = 0.35;

  // Prefetch timeliness: below `late_start` utilization a covered hit is
  // free; the residual latency charged grows linearly to `late_full_frac`
  // of the full miss latency at 100 % utilization. Models prefetches
  // still being in flight (or queued) when the demand arrives — the
  // reason prefetching stops helping at saturation.
  double prefetch_late_start = 0.60;
  double prefetch_late_full_frac = 0.95;
};

// Cumulative socket performance counters (PMU model). Telemetry samples
// these and differences consecutive snapshots.
struct PmuCounters {
  std::uint64_t instructions = 0;
  std::uint64_t core_cycles = 0;  // active (non-idle) core cycles
  std::uint64_t idle_cycles = 0;
  // Cache lines touched by demand loads/stores (the application's own
  // bandwidth, regardless of which agent fetched the line) — what a
  // bandwidth tool like MLC reports.
  std::uint64_t lines_touched = 0;
  std::uint64_t llc_demand_hits = 0;
  std::uint64_t llc_demand_misses = 0;
  std::uint64_t dram_bytes[kNumTrafficClasses] = {0, 0, 0, 0};
  std::uint64_t dram_requests = 0;
  double dram_latency_ns_sum = 0.0;

  std::uint64_t DramTotalBytes() const {
    return dram_bytes[0] + dram_bytes[1] + dram_bytes[2] + dram_bytes[3];
  }
  double AvgDramLatencyNs() const {
    return dram_requests
               ? dram_latency_ns_sum / static_cast<double>(dram_requests)
               : 0.0;
  }
  double LlcMpki() const {
    return instructions ? 1000.0 * static_cast<double>(llc_demand_misses) /
                              static_cast<double>(instructions)
                        : 0.0;
  }
};

// Per-function attribution used by the sampling profiler.
struct FunctionProfileEntry {
  double cycles = 0.0;
  std::uint64_t instructions = 0;
  std::uint64_t llc_misses = 0;
};

class Socket {
 public:
  // num_functions sizes the attribution table (FunctionIds must be below
  // it); accesses with kInvalidFunctionId go to an overflow slot.
  Socket(const SocketConfig& config, std::size_t num_functions, Rng rng);

  // Non-copyable (owns caches, engines, MSR file).
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  // Assigns (or replaces) the access trace driving a core. Pass nullptr to
  // idle the core.
  void SetWorkload(int core, std::unique_ptr<AccessGenerator> generator);

  // True once the core's generator returned end-of-trace.
  bool WorkloadExhausted(int core) const;

  // Advances simulated time by one epoch, running every core.
  void Step(SimTimeNs epoch_ns);

  // The finished epoch's memory stats (valid after the first Step).
  const MemoryController::EpochStats& last_epoch() const {
    return last_epoch_;
  }

  SimTimeNs now() const { return now_; }
  const PmuCounters& counters() const { return counters_; }
  const MemoryController& memory() const { return memory_; }
  SimulatedMsrDevice& msr_device() { return msr_; }
  const SocketConfig& config() const { return config_; }

  // Per-core cumulative active cycles / instructions (microbench timing).
  std::uint64_t core_active_cycles(int core) const;
  std::uint64_t core_instructions(int core) const;

  const std::vector<FunctionProfileEntry>& function_profile() const {
    return function_profile_;
  }
  void ResetFunctionProfile();

  // Convenience for experiments that bypass the MSR path in tests.
  void SetAllPrefetchersEnabled(bool enabled);

  // True iff every engine on every core is enabled.
  bool AllPrefetchersEnabled() const;

  // Aggregated cache stats (across cores for L1/L2).
  Cache::Stats AggregateL1Stats() const;
  Cache::Stats AggregateL2Stats() const;
  const Cache::Stats& LlcStats() const { return llc_.stats(); }

 private:
  struct CoreState {
    std::unique_ptr<Cache> l1;
    std::unique_ptr<Cache> l2;
    std::unique_ptr<DcuStreamerPrefetcher> dcu_streamer;
    std::unique_ptr<IpStridePrefetcher> ip_stride;
    // Either a StreamPrefetcher or a BestOffsetPrefetcher; both answer
    // to the kL2Stream MSR bit.
    std::unique_ptr<HwPrefetchEngine> l2_stream;
    std::unique_ptr<AdjacentLinePrefetcher> l2_adjacent;
    std::unique_ptr<AccessGenerator> workload;
    bool exhausted = false;
    std::uint64_t active_cycles = 0;
    std::uint64_t instructions = 0;
    // Scratch buffers reused across accesses, reserved at construction
    // for the largest burst the engines can propose, so the access loop
    // never allocates (bench_socket's steady-state check enforces this).
    // L1 and L2 engine output need separate buffers: AccessBelowL1 runs
    // (and fills l2_prefetch_scratch) while ProcessAccess still holds
    // unissued prefetches in l1_prefetch_scratch.
    std::vector<Addr> l1_prefetch_scratch;
    std::vector<Addr> l2_prefetch_scratch;
  };

  // Runs one access on a core; returns the cycles it consumed.
  double ProcessAccess(CoreState& core, const MemRef& ref);

  // Demand path below L1: returns the latency penalty in cycles and
  // whether the access missed the LLC.
  struct BelowL1Result {
    double penalty_cycles = 0.0;
    bool llc_miss = false;
  };
  // l1_probe is the (missed) L1 probe from ProcessAccess, consumed by the
  // L1 fills here so the L1 tags are scanned once per access.
  BelowL1Result AccessBelowL1(CoreState& core, Addr line, bool is_store,
                              FunctionId function,
                              const Cache::ProbeResult& l1_probe);

  // Installs a prefetch at the given level (1 = into L1, 2 = into L2),
  // walking down the hierarchy and consuming memory bandwidth on LLC miss.
  void HandlePrefetchFill(CoreState& core, Addr line, int level,
                          TrafficClass traffic);

  // Handles an eviction from the LLC (dirty lines write back to memory).
  void OnLlcEviction(const Cache::Eviction& eviction);

  // Residual latency charged on prefetch-covered hits at high load.
  double LatePrefetchPenaltyCycles() const;

  void ApplyMsrWrite(int cpu, MsrRegister reg, std::uint64_t value);

  FunctionProfileEntry& ProfileSlot(FunctionId function);

  SocketConfig config_;
  MemoryController memory_;
  Cache llc_;
  SimulatedMsrDevice msr_;
  PrefetchMsrMap msr_map_;
  std::vector<CoreState> cores_;
  std::vector<FunctionProfileEntry> function_profile_;
  PmuCounters counters_;
  MemoryController::EpochStats last_epoch_;
  SimTimeNs now_ = 0;
  double cycles_per_ns_ = 0.0;
};

}  // namespace limoncello

#endif  // LIMONCELLO_SIM_MACHINE_SOCKET_H_
