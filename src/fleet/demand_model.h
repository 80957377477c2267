// The load-independent half of the fleet machine model's demand
// arithmetic, and its operating-point solve.
//
// MachineModel::Tick reduces a machine's tasks to three scalars, then
// solves for the memory-bandwidth utilization its served load generates.
// This file holds the two pieces of that work that load does not change:
//
//  1. ServiceDemandTable. Per service and prefetch regime, the
//     per-category LLC misses left after prefetch coverage, the effective
//     MPKI and the DRAM traffic per kilo-instruction. These depend on the
//     service spec and the platform's PrefetchResponse only; a task's
//     load merely scales them by its instruction rate. So a fleet
//     computes them once per service instead of once per task per tick.
//  2. SolveOperatingPoint. The fixed point u* = f(u*) of the map from an
//     assumed utilization to the utilization the load it can serve would
//     generate. The answer is, bit for bit, what a 20-step bisection of
//     [0, LatencyLut::kMaxUtilization] on "f(mid) > mid" returns; most of
//     that bisection's decisions are taken without evaluating f.
//
// Why decisions can be skipped: f is non-increasing in u in floating
// point, not just in real arithmetic. LatencyLut::At is non-decreasing
// (latency_curve.h), and every later step of f is monotone under
// round-to-nearest: "* freq / mlp", "cores_base + cores_miss * penalty",
// "cores / required", "bytes_at_full * scale", the bandwidth clamp (a
// min), and "/ saturation". So one evaluation y = f(x) proves
// f(u) > u for every u <= x with u < y, and f(u) <= u for every
// u >= max(x, y).
#ifndef LIMONCELLO_FLEET_DEMAND_MODEL_H_
#define LIMONCELLO_FLEET_DEMAND_MODEL_H_

#include <array>
#include <cstddef>
#include <vector>

#include "fleet/platform.h"
#include "fleet/service.h"
#include "sim/memory/latency_curve.h"

namespace limoncello {

// Which prefetching covers a machine's misses during one tick.
enum class PrefetchRegime : std::size_t {
  kHardware = 0,  // hardware prefetchers on
  kSoftware = 1,  // hardware off, software prefetching of tax code
  kNone = 2,      // hardware off, no software prefetching
};
inline constexpr std::size_t kNumPrefetchRegimes = 3;

// One service's demand per kilo-instruction in one regime.
struct DemandCoefficients {
  // LLC misses per kilo-instruction, per category, after coverage.
  std::array<double, kNumCategories> misses{};
  // Sum of `misses` over the categories.
  double mpki_eff = 0.0;
  // DRAM line fetches per kilo-instruction: the misses plus every
  // covered miss divided by the accuracy of the prefetcher covering it.
  double traffic_per_kinstr = 0.0;
};

struct ServiceDemand {
  const ServiceSpec* spec = nullptr;  // null: an unused slot
  std::array<DemandCoefficients, kNumPrefetchRegimes> by_regime{};
};

// Computes spec's coefficients under `response`, with the expressions
// and operand order the per-task loop used, so every value is the same
// double it computed.
ServiceDemand ComputeServiceDemand(const ServiceSpec& spec,
                                   const PrefetchResponse& response);

// The coefficients of every service placed on the machines that share
// one FleetState (so, one per fleet, one for the placement shadows, one
// per standalone machine). Keyed by spec pointer: a spec must not change
// while a task refers to it. A task's service_index is only a hint for
// the slot, because standalone users may pair any index with any spec.
//
// Thread contract: AddService may reallocate the table and runs only
// from MachineModel::AddTask; Find only reads and runs inside Tick, on
// any worker. FleetSimulator calls AddTask only in its serial phases
// (placement, and Rebalance at an epoch boundary), never while a
// parallel epoch is ticking the machines that share the table.
class ServiceDemandTable {
 public:
  // Computes spec's entry unless the table holds it. The entry takes
  // slot `hint` when that slot is free, so Find's first probe hits.
  // Every call must pass the same response (one platform per table).
  void AddService(const ServiceSpec& spec, int hint,
                  const PrefetchResponse& response);

  // The entry AddService made for spec; `hint` is checked against the
  // pointer.
  const ServiceDemand& Find(const ServiceSpec* spec, int hint) const {
    const std::size_t slot = static_cast<std::size_t>(hint);
    if (slot < entries_.size() && entries_[slot].spec == spec) {
      return entries_[slot];
    }
    return FindSlow(spec);
  }

 private:
  // Slots past this are never reserved for a hint; such entries append.
  static constexpr std::size_t kMaxHintSlot = 64;

  const ServiceDemand* Lookup(const ServiceSpec* spec, int hint) const;
  const ServiceDemand& FindSlow(const ServiceSpec* spec) const;

  std::vector<ServiceDemand> entries_;
};

// A machine's demand at one tick, reduced to load-scaled scalars. At an
// assumed utilization u, with penalty(u) = L(u) * freq / mlp:
//   required_cores(u) = cores_base + cores_miss * penalty(u)
//   bytes(u)          = bytes_at_full * scale(u)
struct DemandScalars {
  double cores_base = 0.0;     // sum of instr_rate * base_cpi / freq_hz
  double cores_miss = 0.0;     // sum of instr_rate * mpki_eff/1000/freq_hz
  double bytes_at_full = 0.0;  // DRAM bytes/s if all offered load is served
};

struct OperatingPoint {
  double utilization = 0.0;     // u*, bandwidth utilization
  double required_cores = 0.0;  // cores the offered load needs at u*
  double scale = 1.0;           // served / offered at u*
  double total_bytes = 0.0;     // DRAM bytes/s at u*
  int evaluations = 0;          // points of f evaluated, u* last
};

// Solves u = f(u) for the machine (see the file comment); the result's
// fields other than `evaluations` are bit-identical to evaluating f at
// the 20-step bisection's answer.
OperatingPoint SolveOperatingPoint(const DemandScalars& demand,
                                   const PlatformConfig& platform,
                                   const LatencyLut& lut);

}  // namespace limoncello

#endif  // LIMONCELLO_FLEET_DEMAND_MODEL_H_
