// Structure-of-arrays storage for the fleet tick loop's hot state.
//
// MachineModel keeps cold configuration (platform, tasks, control-plane
// objects) per machine, but every scalar the tick loop reads or writes
// each tick — utilizations, offered/served QPS, the prefetcher bit, the
// controller FSM mirror, the RNG stream — lives here, in contiguous
// cache-line-aligned arrays indexed by machine slot. Two things follow:
//
//  1. The serial loop walks memory linearly instead of pointer-chasing
//     through ~200 heap objects per machine.
//  2. Parallel slices never false-share: a slice's span of every array
//     starts and ends on a cache-line boundary (slice sizes are multiples
//     of 8 machines; every element type is 8 or 48 bytes, both of which
//     tile 64-byte lines at 8-machine granularity).
//
// The slice plan is a pure function of the machine count — never of the
// thread count — so the floating-point reduction grouping (per-slice
// partial metrics merged in slice order) is identical no matter how many
// workers execute the slices. That is the whole bit-identity argument;
// see DESIGN.md §12.
#ifndef LIMONCELLO_FLEET_FLEET_STATE_H_
#define LIMONCELLO_FLEET_FLEET_STATE_H_

#include <cstddef>
#include <cstdint>
#include <new>

#include "fleet/demand_model.h"
#include "util/check.h"
#include "util/rng.h"

namespace limoncello {

inline constexpr std::size_t kFleetCacheLineBytes = 64;

// Fixed-size array whose storage starts on a cache-line boundary. The
// element count is padded up to a multiple of kFleetSlotRound internally
// so no other allocation can share the trailing line.
template <typename T>
class AlignedArray {
 public:
  AlignedArray(std::size_t size, const T& fill) : size_(size) {
    const std::size_t bytes = RoundUpToLine(size * sizeof(T));
    data_ = static_cast<T*>(::operator new(
        bytes, std::align_val_t(kFleetCacheLineBytes)));
    for (std::size_t i = 0; i < size_; ++i) new (data_ + i) T(fill);
  }
  ~AlignedArray() {
    for (std::size_t i = 0; i < size_; ++i) data_[i].~T();
    ::operator delete(data_, std::align_val_t(kFleetCacheLineBytes));
  }

  AlignedArray(const AlignedArray&) = delete;
  AlignedArray& operator=(const AlignedArray&) = delete;

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T* data() { return data_; }
  const T* data() const { return data_; }
  std::size_t size() const { return size_; }

 private:
  static std::size_t RoundUpToLine(std::size_t bytes) {
    return (bytes + kFleetCacheLineBytes - 1) / kFleetCacheLineBytes *
           kFleetCacheLineBytes;
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
};

// Static decomposition of the fleet into contiguous machine slices. Each
// slice accumulates into its own partial FleetMetrics; partials merge in
// slice order. machines_per_slice is always a multiple of 8 (cache-line
// tiling, see file comment) and is a pure function of num_machines:
// ~n/64 so a fleet splits into roughly 64 slices (plenty of load-balance
// granularity for any sane worker count), floored at 8 so tiny fleets
// keep several slices, capped at 2048 so huge fleets still spread.
struct FleetSlicePlan {
  std::size_t machines_per_slice = 0;
  std::size_t num_slices = 0;

  static FleetSlicePlan For(std::size_t num_machines);

  std::size_t SliceBegin(std::size_t slice) const {
    return slice * machines_per_slice;
  }
  std::size_t SliceEnd(std::size_t slice, std::size_t num_machines) const {
    const std::size_t end = (slice + 1) * machines_per_slice;
    return end < num_machines ? end : num_machines;
  }
};

// The hot per-machine state arrays. One instance per fleet; standalone
// MachineModels (tests, figure tools) own a private single-slot instance.
// Machines that share an instance must share a platform.
// limolint:hot-struct — per-tick state must stay in AlignedArrays; a
// std::vector member here would reintroduce the pointer chase and the
// false sharing this type exists to remove.
struct FleetState {
  explicit FleetState(std::size_t num_machines)
      : last_bw_utilization(num_machines, 0.0),
        last_cpu_utilization(num_machines, 0.0),
        utilization_ewma(num_machines, 0.0),
        last_offered_qps(num_machines, 0.0),
        last_served_qps(num_machines, 0.0),
        prefetchers_on(num_machines, 1),
        controller_state(num_machines, 0),
        rng(num_machines, Rng(0)) {
    LIMONCELLO_CHECK_GT(num_machines, 0u);
  }

  FleetState(const FleetState&) = delete;
  FleetState& operator=(const FleetState&) = delete;

  std::size_t size() const { return last_bw_utilization.size(); }

  AlignedArray<double> last_bw_utilization;
  AlignedArray<double> last_cpu_utilization;
  AlignedArray<double> utilization_ewma;
  AlignedArray<double> last_offered_qps;
  AlignedArray<double> last_served_qps;
  // 0/1 prefetcher-enable bit (uint64 so the stride stays line-tiled).
  AlignedArray<std::uint64_t> prefetchers_on;
  // Mirror of the daemon FSM state (ControllerState as an integer);
  // written after each daemon tick so readers never chase the daemon.
  AlignedArray<std::uint64_t> controller_state;
  AlignedArray<Rng> rng;
  // Cold: one row per service placed on these machines, read by every
  // tick and written only by MachineModel::AddTask in serial phases (the
  // thread contract is in demand_model.h). Never process-global: each
  // FleetState, so each concurrently running fleet arm, has its own.
  ServiceDemandTable demand;
};

}  // namespace limoncello

#endif  // LIMONCELLO_FLEET_FLEET_STATE_H_
