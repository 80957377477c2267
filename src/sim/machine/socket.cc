#include "sim/machine/socket.h"

#include <algorithm>

#include "util/check.h"

namespace limoncello {

Socket::Socket(const SocketConfig& config, std::size_t num_functions,
               Rng rng)
    : config_(config),
      memory_(config.memory, rng.Fork(0x11)),
      llc_(CacheConfig{config.llc_bytes_per_core *
                           static_cast<std::uint64_t>(config.num_cores),
                       config.llc_ways},
           "llc"),
      msr_(config.num_cores),
      msr_map_(PrefetchMsrMap::For(config.msr_layout)),
      function_profile_(num_functions + 1),
      cycles_per_ns_(config.freq_ghz) {
  LIMONCELLO_CHECK_GT(config.num_cores, 0);
  LIMONCELLO_CHECK_GT(config.freq_ghz, 0.0);
  LIMONCELLO_CHECK_GE(config.mlp, 1.0);
  cores_.resize(static_cast<std::size_t>(config.num_cores));
  for (int c = 0; c < config.num_cores; ++c) {
    CoreState& core = cores_[static_cast<std::size_t>(c)];
    core.l1 = std::make_unique<Cache>(config.l1, "l1");
    core.l2 = std::make_unique<Cache>(config.l2, "l2");
    core.dcu_streamer = std::make_unique<DcuStreamerPrefetcher>();
    core.ip_stride = std::make_unique<IpStridePrefetcher>(config.ip_stride);
    if (config.use_best_offset_l2) {
      core.l2_stream =
          std::make_unique<BestOffsetPrefetcher>(config.best_offset);
    } else {
      core.l2_stream = std::make_unique<StreamPrefetcher>(config.stream);
    }
    core.l2_adjacent = std::make_unique<AdjacentLinePrefetcher>();
    // Each access's worst-case burst, so the scratch never grows in the
    // access loop: the DCU streamer's next line plus `degree` IP-stride
    // lines at L1; the L2 engine's lines (`degree` for the stream
    // detector, one for best-offset) plus the adjacent line at L2.
    core.l1_prefetch_scratch.reserve(
        1 + static_cast<std::size_t>(config.ip_stride.degree));
    core.l2_prefetch_scratch.reserve(
        (config.use_best_offset_l2
             ? 1
             : static_cast<std::size_t>(config.stream.degree)) +
        1);
  }
  msr_.AddWriteObserver([this](int cpu, MsrRegister reg,
                               std::uint64_t value) {
    ApplyMsrWrite(cpu, reg, value);
  });
  // Power-on state: all engines enabled. On enable-bit layouts the MSR
  // bits must be set to match (the register file zero-initializes). The
  // write is made on disable-bit layouts too, where it stores the zero a
  // read already returns: it creates the device's register file here,
  // not on the first toggle inside the access loop.
  const std::uint64_t power_on =
      msr_map_.set_bit_disables ? 0 : msr_map_.engine_mask;
  for (int cpu = 0; cpu < config_.num_cores; ++cpu) {
    // The device was just constructed with no failed CPUs, so the
    // power-on writes cannot fail.
    LIMONCELLO_CHECK(msr_.Write(cpu, msr_map_.reg, power_on));
  }
}

void Socket::ApplyMsrWrite(int cpu, MsrRegister reg, std::uint64_t value) {
  if (reg != msr_map_.reg) return;
  if (cpu < 0 || cpu >= config_.num_cores) return;
  CoreState& core = cores_[static_cast<std::size_t>(cpu)];
  auto engine_enabled = [&](PrefetchEngine engine) {
    const std::uint64_t bit = 1ULL << static_cast<int>(engine);
    const bool set = (value & bit) != 0;
    return msr_map_.set_bit_disables ? !set : set;
  };
  core.l2_stream->set_enabled(engine_enabled(PrefetchEngine::kL2Stream));
  core.l2_adjacent->set_enabled(
      engine_enabled(PrefetchEngine::kL2AdjacentLine));
  core.dcu_streamer->set_enabled(
      engine_enabled(PrefetchEngine::kDcuStreamer));
  core.ip_stride->set_enabled(engine_enabled(PrefetchEngine::kDcuIpStride));
}

void Socket::SetWorkload(int core,
                         std::unique_ptr<AccessGenerator> generator) {
  LIMONCELLO_CHECK(core >= 0 && core < config_.num_cores);
  CoreState& state = cores_[static_cast<std::size_t>(core)];
  state.workload = std::move(generator);
  state.exhausted = state.workload == nullptr;
}

bool Socket::WorkloadExhausted(int core) const {
  LIMONCELLO_CHECK(core >= 0 && core < config_.num_cores);
  const CoreState& state = cores_[static_cast<std::size_t>(core)];
  return state.workload == nullptr || state.exhausted;
}

std::uint64_t Socket::core_active_cycles(int core) const {
  LIMONCELLO_CHECK(core >= 0 && core < config_.num_cores);
  return cores_[static_cast<std::size_t>(core)].active_cycles;
}

std::uint64_t Socket::core_instructions(int core) const {
  LIMONCELLO_CHECK(core >= 0 && core < config_.num_cores);
  return cores_[static_cast<std::size_t>(core)].instructions;
}

void Socket::ResetFunctionProfile() {
  for (auto& entry : function_profile_) entry = FunctionProfileEntry{};
}

void Socket::SetAllPrefetchersEnabled(bool enabled) {
  for (CoreState& core : cores_) {
    core.l2_stream->set_enabled(enabled);
    core.l2_adjacent->set_enabled(enabled);
    core.dcu_streamer->set_enabled(enabled);
    core.ip_stride->set_enabled(enabled);
  }
}

bool Socket::AllPrefetchersEnabled() const {
  for (const CoreState& core : cores_) {
    if (!core.l2_stream->enabled() || !core.l2_adjacent->enabled() ||
        !core.dcu_streamer->enabled() || !core.ip_stride->enabled()) {
      return false;
    }
  }
  return true;
}

FunctionProfileEntry& Socket::ProfileSlot(FunctionId function) {
  const std::size_t overflow = function_profile_.size() - 1;
  const std::size_t index =
      function < overflow ? static_cast<std::size_t>(function) : overflow;
  return function_profile_[index];
}

void Socket::OnLlcEviction(const Cache::Eviction& eviction) {
  if (eviction.valid && eviction.dirty) {
    memory_.Access(TrafficClass::kWriteback);
  }
}

void Socket::HandlePrefetchFill(CoreState& core, Addr line, int level,
                                TrafficClass traffic) {
  // Redundant prefetches are filtered at the target level. Each level's
  // tags are probed at most once; the probe result feeds the fill.
  Cache::ProbeResult l1_probe;
  if (level == 1) {
    l1_probe = core.l1->Probe(line);
    if (l1_probe.hit) return;
  }
  const Cache::ProbeResult l2_probe = core.l2->Probe(line);
  if (level == 2 && l2_probe.hit) return;

  const bool in_l2 = level == 1 && l2_probe.hit;
  if (!in_l2) {
    const Cache::ProbeResult llc_probe = llc_.Probe(line);
    if (!llc_probe.hit) {
      // Goes to memory: this is prefetch bandwidth.
      memory_.Access(traffic);
      OnLlcEviction(llc_.FillAt(llc_probe, line, /*is_prefetch=*/true,
                                /*dirty=*/false));
    }
    core.l2->FillAt(l2_probe, line, /*is_prefetch=*/true, /*dirty=*/false);
  }
  if (level == 1) {
    core.l1->FillAt(l1_probe, line, /*is_prefetch=*/true, /*dirty=*/false);
  }
}

// Residual latency (cycles) charged when a demand hit lands on a line a
// prefetcher brought in: timely at low utilization, increasingly late as
// the memory system saturates.
double Socket::LatePrefetchPenaltyCycles() const {
  const double u = memory_.SmoothedUtilization();
  if (u <= config_.prefetch_late_start) return 0.0;
  const double lateness =
      std::min(1.0, (u - config_.prefetch_late_start) /
                        (1.0 - config_.prefetch_late_start)) *
      config_.prefetch_late_full_frac;
  return lateness * memory_.CurrentLatencyNs() * cycles_per_ns_;
}

Socket::BelowL1Result Socket::AccessBelowL1(
    CoreState& core, Addr line, bool is_store, FunctionId function,
    const Cache::ProbeResult& l1_probe) {
  BelowL1Result result;
  bool covered = false;
  Cache::ProbeResult l2_probe;
  const bool l2_hit =
      core.l2->LookupDemand(line, is_store, &covered, &l2_probe);

  // L2 engines observe the access stream reaching L2. The L2 scratch is
  // free here: the prefetch-fill loop below drains it before returning,
  // and HandlePrefetchFill never touches it.
  core.l2_prefetch_scratch.clear();
  if (core.l2_stream->enabled()) {
    core.l2_stream->Observe({line, function, l2_hit, is_store},
                            &core.l2_prefetch_scratch);
  }
  if (core.l2_adjacent->enabled()) {
    core.l2_adjacent->Observe({line, function, l2_hit, is_store},
                              &core.l2_prefetch_scratch);
  }

  if (l2_hit) {
    result.penalty_cycles = config_.l2_hit_cycles;
    if (covered) result.penalty_cycles += LatePrefetchPenaltyCycles();
    core.l1->FillAt(l1_probe, line, /*is_prefetch=*/false,
                    /*dirty=*/is_store);
  } else {
    Cache::ProbeResult llc_probe;
    const bool llc_hit =
        llc_.LookupDemand(line, is_store, &covered, &llc_probe);
    if (llc_hit) {
      ++counters_.llc_demand_hits;
      result.penalty_cycles = config_.llc_hit_cycles;
      if (covered) result.penalty_cycles += LatePrefetchPenaltyCycles();
    } else {
      ++counters_.llc_demand_misses;
      result.llc_miss = true;
      const double latency_ns = memory_.Access(TrafficClass::kDemand);
      result.penalty_cycles =
          config_.llc_hit_cycles + latency_ns * cycles_per_ns_;
      OnLlcEviction(llc_.FillAt(llc_probe, line, /*is_prefetch=*/false,
                                /*dirty=*/false));
    }
    core.l2->FillAt(l2_probe, line, /*is_prefetch=*/false,
                    /*dirty=*/is_store);
    core.l1->FillAt(l1_probe, line, /*is_prefetch=*/false,
                    /*dirty=*/is_store);
  }

  for (Addr target : core.l2_prefetch_scratch) {
    HandlePrefetchFill(core, target, /*level=*/2,
                       TrafficClass::kHwPrefetch);
  }
  return result;
}

// limolint:hot-path — per-memory-reference entry point of the cache sim;
// bench_socket gates its steady-state allocation count at exactly zero.
double Socket::ProcessAccess(CoreState& core, const MemRef& ref) {
  // Compute gap preceding the access.
  double cycles = static_cast<double>(ref.gap_instructions) *
                  config_.base_cpi;
  core.instructions += ref.gap_instructions;
  FunctionProfileEntry& profile = ProfileSlot(ref.function);
  profile.instructions += ref.gap_instructions;

  const Addr first_line = LineAddr(ref.addr);
  const Addr last_line = LineAddr(ref.addr + (ref.size ? ref.size - 1 : 0));

  for (Addr line = first_line; line <= last_line; ++line) {
    if (ref.op == MemOp::kSoftwarePrefetch) {
      // PREFETCHT0: one instruction, never blocks, fills all levels.
      core.instructions += 1;
      profile.instructions += 1;
      cycles += config_.base_cpi * config_.sw_prefetch_instruction_cost;
      HandlePrefetchFill(core, line, /*level=*/1,
                         TrafficClass::kSwPrefetch);
      continue;
    }
    const bool is_store = ref.op == MemOp::kStore;
    ++counters_.lines_touched;
    bool l1_covered = false;
    Cache::ProbeResult l1_probe;
    const bool l1_hit =
        core.l1->LookupDemand(line, is_store, &l1_covered, &l1_probe);

    // L1 engines observe every demand access. The scratch holds the
    // engines' output until the demand path settles; AccessBelowL1 only
    // uses the separate L2 scratch, so no copy is needed.
    core.l1_prefetch_scratch.clear();
    if (core.dcu_streamer->enabled()) {
      core.dcu_streamer->Observe({line, ref.function, l1_hit, is_store},
                                 &core.l1_prefetch_scratch);
    }
    if (core.ip_stride->enabled()) {
      core.ip_stride->Observe({line, ref.function, l1_hit, is_store},
                              &core.l1_prefetch_scratch);
    }

    if (l1_hit) {
      if (l1_covered) {
        double penalty = LatePrefetchPenaltyCycles() / config_.mlp;
        if (is_store) penalty *= config_.store_penalty_factor;
        cycles += penalty;
      }
    } else {
      BelowL1Result below =
          AccessBelowL1(core, line, is_store, ref.function, l1_probe);
      double penalty = below.penalty_cycles / config_.mlp;
      if (is_store) penalty *= config_.store_penalty_factor;
      cycles += penalty;
      if (below.llc_miss) ++profile.llc_misses;
    }

    for (Addr target : core.l1_prefetch_scratch) {
      HandlePrefetchFill(core, target, /*level=*/1,
                         TrafficClass::kHwPrefetch);
    }
  }

  profile.cycles += cycles;
  return cycles;
}

void Socket::Step(SimTimeNs epoch_ns) {
  LIMONCELLO_CHECK_GT(epoch_ns, 0);
  memory_.BeginEpoch(epoch_ns);
  const double budget =
      static_cast<double>(epoch_ns) * cycles_per_ns_;
  for (CoreState& core : cores_) {
    double used = 0.0;
    const std::uint64_t instructions_before = core.instructions;
    while (used < budget) {
      if (core.workload == nullptr || core.exhausted) break;
      MemRef ref;
      if (!core.workload->Next(&ref)) {
        core.exhausted = true;
        break;
      }
      used += ProcessAccess(core, ref);
    }
    const auto used_cycles = static_cast<std::uint64_t>(
        std::min(used, budget * 4.0));  // one access may overshoot
    core.active_cycles += used_cycles;
    counters_.core_cycles += used_cycles;
    if (used < budget) {
      counters_.idle_cycles +=
          static_cast<std::uint64_t>(budget - used);
    }
    counters_.instructions += core.instructions - instructions_before;
  }
  last_epoch_ = memory_.EndEpoch();
  // Mirror memory totals into the PMU view.
  const MemoryController::Totals& totals = memory_.totals();
  for (int c = 0; c < kNumTrafficClasses; ++c) {
    counters_.dram_bytes[c] = totals.bytes[c];
  }
  counters_.dram_requests = totals.requests;
  counters_.dram_latency_ns_sum = totals.latency_ns_sum;
  now_ += epoch_ns;
}

Cache::Stats Socket::AggregateL1Stats() const {
  Cache::Stats out;
  for (const CoreState& core : cores_) {
    const Cache::Stats& s = core.l1->stats();
    out.demand_hits += s.demand_hits;
    out.demand_misses += s.demand_misses;
    out.prefetch_covered_hits += s.prefetch_covered_hits;
    out.prefetch_fills += s.prefetch_fills;
    out.demand_fills += s.demand_fills;
    out.prefetch_pollution_evictions += s.prefetch_pollution_evictions;
    out.writebacks += s.writebacks;
  }
  return out;
}

Cache::Stats Socket::AggregateL2Stats() const {
  Cache::Stats out;
  for (const CoreState& core : cores_) {
    const Cache::Stats& s = core.l2->stats();
    out.demand_hits += s.demand_hits;
    out.demand_misses += s.demand_misses;
    out.prefetch_covered_hits += s.prefetch_covered_hits;
    out.prefetch_fills += s.prefetch_fills;
    out.demand_fills += s.demand_fills;
    out.prefetch_pollution_evictions += s.prefetch_pollution_evictions;
    out.writebacks += s.writebacks;
  }
  return out;
}

}  // namespace limoncello
