// Socket memory controller: bandwidth accounting and queuing latency.
//
// The controller operates in fixed epochs. Within an epoch, request latency
// is computed from a smoothed utilization estimate carried over from prior
// epochs (one-epoch feedback lag, EWMA-smoothed), which mimics how real
// queuing delay reflects recent arrival rates. That estimate changes only
// in EndEpoch, so the latency is evaluated there, once per epoch, and
// every request of the next epoch is charged it (plus its own jitter).
// Demand, hardware-prefetch, software-prefetch, and writeback traffic are
// accounted separately so that experiments can report the prefetcher
// share of bandwidth.
#ifndef LIMONCELLO_SIM_MEMORY_MEMORY_CONTROLLER_H_
#define LIMONCELLO_SIM_MEMORY_MEMORY_CONTROLLER_H_

#include <cstdint>

#include "sim/memory/latency_curve.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/units.h"

namespace limoncello {

enum class TrafficClass : int {
  kDemand = 0,
  kHwPrefetch = 1,
  kSwPrefetch = 2,
  kWriteback = 3,
};
inline constexpr int kNumTrafficClasses = 4;

struct MemoryControllerConfig {
  // Saturation bandwidth of the socket (the machine-qualification
  // "memory bandwidth saturation threshold" of paper §3).
  double peak_gbps = 24.0;  // e.g. 8 cores x 3 GB/s per core
  LatencyCurveConfig latency;
  // EWMA smoothing for the utilization estimate (per epoch). Kept low:
  // elastic workloads (whose issue rate responds to latency) limit-cycle
  // against the one-epoch feedback lag if smoothing is too light.
  double utilization_alpha = 0.15;
  // Deterministic per-request latency jitter (fraction of latency).
  double jitter_fraction = 0.06;
  // Hardware prefetchers issue in bursts (degree > 1), so at the same
  // average utilization a prefetch-heavy mix queues worse than smooth
  // demand traffic (M/G/1 batch-arrival effect). The latency curve is
  // evaluated at utilization * (1 + penalty * hw_prefetch_share); this
  // is what lifts the prefetchers-on curve in paper Fig. 1.
  double prefetch_burst_penalty = 0.06;
};

class MemoryController {
 public:
  struct EpochStats {
    double utilization = 0.0;     // raw utilization of the finished epoch
    double avg_latency_ns = 0.0;  // mean served latency in the epoch
    std::uint64_t bytes[kNumTrafficClasses] = {0, 0, 0, 0};
    std::uint64_t requests = 0;
    std::uint64_t TotalBytes() const {
      return bytes[0] + bytes[1] + bytes[2] + bytes[3];
    }
  };

  struct Totals {
    std::uint64_t bytes[kNumTrafficClasses] = {0, 0, 0, 0};
    std::uint64_t requests = 0;
    double latency_ns_sum = 0.0;
    std::uint64_t TotalBytes() const {
      return bytes[0] + bytes[1] + bytes[2] + bytes[3];
    }
    double AvgLatencyNs() const {
      return requests ? latency_ns_sum / static_cast<double>(requests) : 0.0;
    }
  };

  MemoryController(const MemoryControllerConfig& config, Rng rng);

  void BeginEpoch(SimTimeNs epoch_ns);

  // Issues one line-sized request; returns its load-to-use latency (ns).
  // Writebacks consume bandwidth but return 0 (not on the load path).
  double Access(TrafficClass traffic);

  // Closes the epoch: computes raw utilization, folds it into the EWMA,
  // and returns the finished epoch's stats.
  EpochStats EndEpoch();

  // Current smoothed utilization estimate (what latency is computed from).
  double SmoothedUtilization() const { return utilization_ewma_; }

  // Smoothed share of traffic that is hardware prefetch.
  double SmoothedPrefetchShare() const { return prefetch_share_ewma_; }

  // Latency the controller charges each request of the current epoch
  // before jitter, including the burstiness penalty for prefetch-heavy
  // mixes. Fixed within an epoch: it is the curve at the smoothed
  // utilization and prefetch share, whose only writer is EndEpoch, so it
  // is computed there (and in the constructor, where it is the unloaded
  // latency), not per request.
  double CurrentLatencyNs() const { return current_latency_ns_; }

  const Totals& totals() const { return totals_; }
  const MemoryControllerConfig& config() const { return config_; }

  // Peak (saturation) bandwidth in bytes per nanosecond (== GB/s).
  double PeakBytesPerNs() const { return config_.peak_gbps; }

 private:
  // The curve at the smoothed state, which sets current_latency_ns_.
  double LatencyAtSmoothedState() const;

  MemoryControllerConfig config_;
  Rng rng_;
  double utilization_ewma_ = 0.0;
  double prefetch_share_ewma_ = 0.0;
  double current_latency_ns_ = 0.0;
  SimTimeNs epoch_ns_ = 0;
  bool in_epoch_ = false;
  EpochStats epoch_;
  Totals totals_;
};

}  // namespace limoncello

#endif  // LIMONCELLO_SIM_MEMORY_MEMORY_CONTROLLER_H_
