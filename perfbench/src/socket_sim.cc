// socket_sim: one detailed Socket with four simulated cores (stream,
// store-stream, stride-4, uniform random; 64 MiB working set each against
// an 8 MiB simulated LLC). After a warm-up, a prefetchers-on half runs,
// then PrefetchControl::DisableAll() on the socket's MSR device (Hard
// Limoncello's actuation path), then a prefetchers-off half. The only
// workload on the per-access path of sim/cache, sim/prefetch and
// sim/memory.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "msr/prefetch_control.h"
#include "sim/cache/cache.h"
#include "sim/machine/socket.h"
#include "sim/memory/memory_controller.h"
#include "sim/prefetch/prefetcher.h"
#include "workloads.h"
#include "workloads/generators.h"

namespace perfbench {
namespace {

using limoncello::Rng;
using limoncello::Socket;
using limoncello::SocketConfig;

constexpr int kCores = 4;
constexpr limoncello::SimTimeNs kEpochNs = 100 * limoncello::kNsPerUs;
// Epoch counts are fixed (not time-bound) so the simulated counters of
// every repetition must match exactly.
constexpr int kWarmEpochs = 100;
constexpr int kHalfEpochs = 150;

SocketConfig BenchConfig() {
  SocketConfig config;
  config.num_cores = kCores;
  config.memory.jitter_fraction = 0.0;
  return config;
}

std::unique_ptr<limoncello::AccessGenerator> MakeGenerator(
    int core, std::uint64_t seed) {
  const Rng rng = Rng(seed).Fork(static_cast<std::uint64_t>(core));
  switch (core) {
    case 0:
    case 1: {
      limoncello::SequentialStreamGenerator::Options stream;
      stream.working_set_bytes = 64 * limoncello::kMiB;
      stream.mean_stream_bytes = 32 * 1024;
      stream.store_fraction = core == 1 ? 1.0 : 0.0;
      stream.function = static_cast<limoncello::FunctionId>(core);
      return std::make_unique<limoncello::SequentialStreamGenerator>(stream,
                                                                     rng);
    }
    case 2: {
      limoncello::StridedGenerator::Options strided;
      strided.working_set_bytes = 64 * limoncello::kMiB;
      strided.stride_lines = 4;
      strided.function = 2;
      return std::make_unique<limoncello::StridedGenerator>(strided, rng);
    }
    default: {
      limoncello::RandomAccessGenerator::Options random;
      random.working_set_bytes = 64 * limoncello::kMiB;
      random.function = 3;
      return std::make_unique<limoncello::RandomAccessGenerator>(random, rng);
    }
  }
}

std::uint64_t CounterDigest(const Socket& socket) {
  const limoncello::PmuCounters& c = socket.counters();
  std::uint64_t h = kFnvOffsetBasis;
  h = Fnv1a(h, c.instructions);
  h = Fnv1a(h, c.core_cycles);
  h = Fnv1a(h, c.idle_cycles);
  h = Fnv1a(h, c.lines_touched);
  h = Fnv1a(h, c.llc_demand_misses);
  h = Fnv1a(h, c.dram_requests);
  for (std::uint64_t b : c.dram_bytes) h = Fnv1a(h, b);
  const limoncello::Cache::Stats& llc = socket.LlcStats();
  h = Fnv1a(h, llc.prefetch_fills);
  h = Fnv1a(h, llc.prefetch_covered_hits);
  return h;
}

struct Rep {
  double setup_s = 0.0;
  // Hypervisor steal over the setup and over each half.
  double setup_steal = 0.0;
  double steal[2] = {0.0, 0.0};
  std::vector<double> step_us[2];  // [0] prefetchers on, [1] off
  std::uint64_t instructions[2] = {0, 0};
  double step_s[2] = {0.0, 0.0};
  std::vector<std::uint64_t> digests;  // after every timed epoch
  std::uint64_t allocs = 0;
  bool disabled_all = false;
  // Timed-window deltas for the traced report.
  limoncello::PmuCounters warm, done;
  limoncello::Cache::Stats l1_warm, l1_done, l2_warm, l2_done, llc_warm,
      llc_done;
};

Rep RunRep(std::uint64_t seed, Tracer* tracer) {
  Rep rep;
  const CpuTimes setup_start = CpuTimes::Now();
  const auto t0 = Clock::now();
  Socket socket(BenchConfig(), /*num_functions=*/8, Rng(seed));
  for (int core = 0; core < kCores; ++core) {
    socket.SetWorkload(core, MakeGenerator(core, seed));
  }
  // Warm-up: trains the engines, fills the caches, grows scratch buffers.
  for (int e = 0; e < kWarmEpochs; ++e) socket.Step(kEpochNs);
  rep.setup_s = SecondsBetween(t0, Clock::now());
  rep.setup_steal = StealShare(setup_start, CpuTimes::Now());
  rep.warm = socket.counters();
  rep.l1_warm = socket.AggregateL1Stats();
  rep.l2_warm = socket.AggregateL2Stats();
  rep.llc_warm = socket.LlcStats();

  rep.step_us[0].reserve(kHalfEpochs);
  rep.step_us[1].reserve(kHalfEpochs);
  rep.digests.reserve(2 * kHalfEpochs);
  AllocCounter::Start();
  for (int half = 0; half < 2; ++half) {
    if (half == 1) {
      limoncello::PrefetchControl control(&socket.msr_device(),
                                          BenchConfig().msr_layout, 0, kCores);
      rep.disabled_all = control.DisableAll() == kCores &&
                         !socket.AllPrefetchersEnabled();
    }
    const char* span = half == 0 ? "sim.machine.step.pf_on"
                                 : "sim.machine.step.pf_off";
    const std::uint64_t instr_before = socket.counters().instructions;
    const CpuTimes half_start = CpuTimes::Now();
    for (int e = 0; e < kHalfEpochs; ++e) {
      const auto s0 = Clock::now();
      {
        Span s(tracer, span);
        socket.Step(kEpochNs);
      }
      const double seconds = SecondsBetween(s0, Clock::now());
      rep.step_us[half].push_back(seconds * 1e6);
      rep.step_s[half] += seconds;
      rep.digests.push_back(CounterDigest(socket));
    }
    rep.steal[half] = StealShare(half_start, CpuTimes::Now());
    rep.instructions[half] = socket.counters().instructions - instr_before;
  }
  rep.allocs = AllocCounter::Stop();
  rep.done = socket.counters();
  rep.l1_done = socket.AggregateL1Stats();
  rep.l2_done = socket.AggregateL2Stats();
  rep.llc_done = socket.LlcStats();
  return rep;
}

// Per-layer probes: each layer's public call timed on the workload's own
// access stream, outside the socket.
struct Probe {
  const char* name;
  double ns;
};

std::vector<limoncello::MemRef> RecordStream(std::uint64_t seed,
                                             std::size_t n) {
  std::vector<std::unique_ptr<limoncello::AccessGenerator>> gens;
  for (int core = 0; core < kCores; ++core) {
    gens.push_back(MakeGenerator(core, seed));
  }
  std::vector<limoncello::MemRef> refs(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int core = static_cast<int>((i / 64) % kCores);
    (void)gens[static_cast<std::size_t>(core)]->Next(&refs[i]);
    // Keep the cores' address spaces apart, as separate processes are.
    refs[i].addr += static_cast<limoncello::Addr>(core) << 40;
  }
  return refs;
}

std::vector<Probe> ProbeLayers(std::uint64_t seed, Tracer* tracer) {
  std::vector<Probe> out;
  constexpr int kNextCalls = 2000000;
  static constexpr const char* kNextNames[kCores] = {
      "workloads.next_ns.stream", "workloads.next_ns.store_stream",
      "workloads.next_ns.strided", "workloads.next_ns.random"};
  for (int core = 0; core < kCores; ++core) {
    auto gen = MakeGenerator(core, seed);
    limoncello::MemRef ref;
    std::uint64_t sum = 0;
    const auto t0 = Clock::now();
    {
      Span s(tracer, kNextNames[core]);
      for (int i = 0; i < kNextCalls; ++i) {
        (void)gen->Next(&ref);
        sum += ref.addr;
      }
    }
    out.push_back({kNextNames[core],
                   SecondsBetween(t0, Clock::now()) * 1e9 / kNextCalls});
    if (sum == 1) std::printf("%llu\n", static_cast<unsigned long long>(sum));
  }

  const SocketConfig config = BenchConfig();
  const std::vector<limoncello::MemRef> refs = RecordStream(seed, 2000000);
  std::vector<std::uint8_t> l1_hit(refs.size(), 0);
  const limoncello::CacheConfig levels[3] = {
      config.l1, config.l2,
      {config.llc_bytes_per_core * kCores, config.llc_ways}};
  static constexpr const char* kLookupNames[3] = {
      "sim.cache.lookup_ns.l1", "sim.cache.lookup_ns.l2",
      "sim.cache.lookup_ns.llc"};
  for (int level = 0; level < 3; ++level) {
    limoncello::Cache cache(levels[level], kLookupNames[level]);
    const auto t0 = Clock::now();
    {
      Span s(tracer, kLookupNames[level]);
      for (std::size_t i = 0; i < refs.size(); ++i) {
        const limoncello::Addr line =
            refs[i].addr / limoncello::kCacheLineBytes;
        const bool store = refs[i].op == limoncello::MemOp::kStore;
        limoncello::Cache::ProbeResult probe;
        const bool hit = cache.LookupDemand(line, store, nullptr, &probe);
        if (!hit) (void)cache.FillAt(probe, line, false, store);
        if (level == 0) l1_hit[i] = hit;
      }
    }
    out.push_back({kLookupNames[level],
                   SecondsBetween(t0, Clock::now()) * 1e9 /
                       static_cast<double>(refs.size())});
  }

  std::vector<std::unique_ptr<limoncello::HwPrefetchEngine>> engines;
  engines.push_back(std::make_unique<limoncello::DcuStreamerPrefetcher>());
  engines.push_back(
      std::make_unique<limoncello::IpStridePrefetcher>(config.ip_stride));
  engines.push_back(
      std::make_unique<limoncello::StreamPrefetcher>(config.stream));
  engines.push_back(std::make_unique<limoncello::AdjacentLinePrefetcher>());
  static constexpr const char* kObserveNames[4] = {
      "sim.prefetch.observe_ns.dcu_streamer",
      "sim.prefetch.observe_ns.ip_stride",
      "sim.prefetch.observe_ns.l2_stream",
      "sim.prefetch.observe_ns.adjacent_line"};
  std::vector<limoncello::Addr> issued;
  issued.reserve(256);
  for (std::size_t e = 0; e < engines.size(); ++e) {
    std::uint64_t total = 0;
    const auto t0 = Clock::now();
    {
      Span s(tracer, kObserveNames[e]);
      for (std::size_t i = 0; i < refs.size(); ++i) {
        limoncello::PrefetchObservation obs;
        obs.line_addr = refs[i].addr / limoncello::kCacheLineBytes;
        obs.function = refs[i].function;
        obs.was_hit = l1_hit[i] != 0;
        obs.is_store = refs[i].op == limoncello::MemOp::kStore;
        issued.clear();
        engines[e]->Observe(obs, &issued);
        total += issued.size();
      }
    }
    out.push_back({kObserveNames[e], SecondsBetween(t0, Clock::now()) * 1e9 /
                                         static_cast<double>(refs.size())});
    if (total == 1) {
      std::printf("%llu\n", static_cast<unsigned long long>(total));
    }
  }

  limoncello::MemoryController memory(config.memory, Rng(seed).Fork(0x3e3));
  constexpr int kAccesses = 4000000;
  constexpr int kPerEpoch = 20000;
  double latency = 0.0;
  const auto t0 = Clock::now();
  {
    Span s(tracer, "sim.memory.access");
    memory.BeginEpoch(kEpochNs);
    for (int i = 0; i < kAccesses; ++i) {
      if (i > 0 && i % kPerEpoch == 0) {
        (void)memory.EndEpoch();
        memory.BeginEpoch(kEpochNs);
      }
      const int pick = i % 10;
      const auto traffic = pick < 7   ? limoncello::TrafficClass::kDemand
                           : pick < 9 ? limoncello::TrafficClass::kHwPrefetch
                                      : limoncello::TrafficClass::kWriteback;
      latency += memory.Access(traffic);
    }
    (void)memory.EndEpoch();
  }
  out.push_back({"sim.memory.access_ns",
                 SecondsBetween(t0, Clock::now()) * 1e9 / kAccesses});
  if (latency < 0) std::printf("%g\n", latency);
  return out;
}

}  // namespace

WorkloadResult RunSocketSim(const RunOptions& opt, Tracer* tracer) {
  WorkloadResult r;
  r.workload = "socket_sim";
  const auto begin = Clock::now();
  std::optional<Rep> reference;  // the first repetition
  // One entry per repetition.
  std::vector<double> setup_s, setup_steal;
  // Per half ([0] prefetchers on, [1] off).
  std::vector<double> rep_instr[2], rep_step_s[2], rep_steal[2];
  std::vector<std::vector<double>> rep_us[2];
  while (!reference.has_value() ||
         (tracer == nullptr &&
          SecondsBetween(begin, Clock::now()) < opt.seconds)) {
    Rep rep = RunRep(opt.seed, tracer);
    for (std::size_t e = 0; e < rep.digests.size(); ++e) {
      ++r.attempted;
      const bool same = rep.disabled_all &&
                        (!reference.has_value() ||
                         rep.digests[e] == reference->digests[e]);
      if (!same) ++r.failed;
    }
    setup_s.push_back(rep.setup_s);
    setup_steal.push_back(rep.setup_steal);
    for (int h = 0; h < 2; ++h) {
      rep_steal[h].push_back(rep.steal[h]);
      rep_us[h].push_back(rep.step_us[h]);
      rep_instr[h].push_back(static_cast<double>(rep.instructions[h]));
      rep_step_s[h].push_back(rep.step_s[h]);
    }
    if (!reference.has_value()) reference = std::move(rep);
  }
  const Rep& first = *reference;

  // Over the halves (and setups) the hypervisor stole least from.
  std::vector<double> epoch_us[2];
  double instr[2] = {0.0, 0.0};
  double step_s[2] = {0.0, 0.0};
  std::size_t kept = 0;
  for (int h = 0; h < 2; ++h) {
    for (std::size_t i : LeastStolen(rep_steal[h])) {
      epoch_us[h].insert(epoch_us[h].end(), rep_us[h][i].begin(),
                         rep_us[h][i].end());
      instr[h] += rep_instr[h][i];
      step_s[h] += rep_step_s[h][i];
      ++kept;
    }
  }
  const std::vector<double>& on_us = epoch_us[0];
  const std::vector<double>& off_us = epoch_us[1];
  r.setup_s = Median(Select(setup_s, LeastStolen(setup_steal)));
  r.peak_rss_mb = PeakRssMb();
  r.work_per_s = (instr[0] + instr[1]) / (step_s[0] + step_s[1]);
  const TailStat on_tail = RankTail(on_us, 0.9);
  const TailStat off_tail = RankTail(off_us, 0.9);
  // Epoch times come in stretches of two speeds on a shared host (7 and
  // 10 ms with prefetchers on, as neighbours come and go), so their median
  // jumps between the two from run to run; the mean follows the mix.
  r.a_p50_us = Mean(on_us);
  r.a_p90_us = on_tail.value;
  r.b_p50_us = Mean(off_us);
  r.b_p90_us = off_tail.value;
  r.named = {
      {"minstr_per_s_pf_on", instr[0] / step_s[0] / 1e6, "M/s"},
      {"minstr_per_s_pf_off", instr[1] / step_s[1] / 1e6, "M/s"},
      {"epoch_us_pf_on.p50", Median(on_us), "us"},
      {"epoch_us_pf_off.p50", Median(off_us), "us"},
  };
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "socket: %d cores, %d warm + 2x%d timed epochs of 100 us, %zu "
                "repetitions, %zu of %zu halves kept (steal max %.1f%%); "
                "epoch tails: on %s, off %s",
                kCores, kWarmEpochs, kHalfEpochs, setup_s.size(), kept,
                2 * setup_s.size(),
                100.0 * std::max(*std::max_element(rep_steal[0].begin(),
                                                   rep_steal[0].end()),
                                 *std::max_element(rep_steal[1].begin(),
                                                   rep_steal[1].end())),
                DescribeTail(on_tail).c_str(),
                DescribeTail(off_tail).c_str());
  r.notes.push_back(buf);
  std::snprintf(buf, sizeof(buf),
                "socket: simulated counters digest %016llx, %llu heap "
                "allocations in the timed window",
                static_cast<unsigned long long>(first.digests.back()),
                static_cast<unsigned long long>(first.allocs));
  r.notes.push_back(buf);

  if (tracer != nullptr) {
    for (int half = 0; half < 2; ++half) {
      const char* span = half == 0 ? "sim.machine.step.pf_on"
                                   : "sim.machine.step.pf_off";
      const std::string name = std::string("sim.machine.step_us.") +
                               (half == 0 ? "pf_on" : "pf_off");
      const Tracer::NameStats* stats = tracer->Find(span);
      std::vector<double> us;
      for (double ns : stats->self_ns) us.push_back(ns / 1e3);
      r.per_layer.push_back({name + ".p50", Median(us), "us"});
      r.per_layer.push_back(
          {name + ".p99", TailPercentileOrRank(us, 0.99).value, "us"});
    }
    for (const Probe& p : ProbeLayers(opt.seed, tracer)) {
      r.per_layer.push_back({p.name, p.ns, "ns"});
    }
    const auto delta = [](std::uint64_t done, std::uint64_t warm) {
      return static_cast<double>(done - warm);
    };
    const double covered = delta(first.llc_done.prefetch_covered_hits,
                                 first.llc_warm.prefetch_covered_hits);
    const double fills =
        delta(first.llc_done.prefetch_fills, first.llc_warm.prefetch_fills);
    const double instructions =
        delta(first.done.instructions, first.warm.instructions);
    const double cycles = delta(first.done.core_cycles, first.warm.core_cycles);
    const double dram_requests =
        delta(first.done.dram_requests, first.warm.dram_requests);
    const double dram_latency =
        first.done.dram_latency_ns_sum - first.warm.dram_latency_ns_sum;
    const std::vector<Metric> counts = {
        {"sim.cache.l1.demand_misses",
         delta(first.l1_done.demand_misses, first.l1_warm.demand_misses),
         "count"},
        {"sim.cache.l2.demand_misses",
         delta(first.l2_done.demand_misses, first.l2_warm.demand_misses),
         "count"},
        {"sim.cache.llc.demand_misses",
         delta(first.llc_done.demand_misses, first.llc_warm.demand_misses),
         "count"},
        {"sim.cache.llc.prefetch_fills", fills, "count"},
        {"sim.cache.llc.prefetch_covered_hits", covered, "count"},
        {"sim.cache.llc.prefetch_pollution_evictions",
         delta(first.llc_done.prefetch_pollution_evictions,
               first.llc_warm.prefetch_pollution_evictions),
         "count"},
        {"sim.prefetch.accuracy", fills > 0 ? covered / fills : 0.0, "ratio"},
        {"sim.memory.dram_bytes.demand",
         delta(first.done.dram_bytes[0], first.warm.dram_bytes[0]), "bytes"},
        {"sim.memory.dram_bytes.hw_prefetch",
         delta(first.done.dram_bytes[1], first.warm.dram_bytes[1]), "bytes"},
        {"sim.memory.dram_bytes.writeback",
         delta(first.done.dram_bytes[3], first.warm.dram_bytes[3]), "bytes"},
        {"sim.memory.avg_latency_ns",
         dram_requests > 0 ? dram_latency / dram_requests : 0.0, "ns"},
        {"sim.machine.ipc", cycles > 0 ? instructions / cycles : 0.0,
         "ratio"},
    };
    r.per_layer.insert(r.per_layer.end(), counts.begin(), counts.end());
    std::snprintf(buf, sizeof(buf),
                  "socket: sim.prefetch.accuracy = %.0f covered / %.0f fills; "
                  "sim.machine.allocs = %llu (with the tracer's own)",
                  covered, fills,
                  static_cast<unsigned long long>(first.allocs));
    r.notes.push_back(buf);
  }
  r.correct = r.failed == 0;
  return r;
}

}  // namespace perfbench
