#include "sim/memory/memory_controller.h"

namespace limoncello {

MemoryController::MemoryController(const MemoryControllerConfig& config,
                                   Rng rng)
    : config_(config), rng_(rng) {
  LIMONCELLO_CHECK_GT(config_.peak_gbps, 0.0);
  LIMONCELLO_CHECK_GE(config_.utilization_alpha, 0.0);
  LIMONCELLO_CHECK_LE(config_.utilization_alpha, 1.0);
  current_latency_ns_ = LatencyAtSmoothedState();
}

double MemoryController::LatencyAtSmoothedState() const {
  return LatencyAtUtilization(
      config_.latency,
      utilization_ewma_ *
          (1.0 + config_.prefetch_burst_penalty * prefetch_share_ewma_));
}

void MemoryController::BeginEpoch(SimTimeNs epoch_ns) {
  LIMONCELLO_CHECK(!in_epoch_);
  LIMONCELLO_CHECK_GT(epoch_ns, 0);
  epoch_ns_ = epoch_ns;
  epoch_ = EpochStats{};
  in_epoch_ = true;
}

double MemoryController::Access(TrafficClass traffic) {
  LIMONCELLO_DCHECK(in_epoch_);
  const auto cls = static_cast<int>(traffic);
  epoch_.bytes[cls] += kCacheLineBytes;
  totals_.bytes[cls] += kCacheLineBytes;
  if (traffic == TrafficClass::kWriteback) return 0.0;

  double latency = current_latency_ns_;
  if (config_.jitter_fraction > 0.0) {
    latency *= 1.0 + config_.jitter_fraction * (2.0 * rng_.NextDouble() - 1.0);
  }
  ++epoch_.requests;
  ++totals_.requests;
  epoch_.avg_latency_ns += latency;  // running sum; divided in EndEpoch
  totals_.latency_ns_sum += latency;
  return latency;
}

MemoryController::EpochStats MemoryController::EndEpoch() {
  LIMONCELLO_CHECK(in_epoch_);
  in_epoch_ = false;
  const double epoch_bytes = static_cast<double>(epoch_.TotalBytes());
  const double capacity =
      PeakBytesPerNs() * static_cast<double>(epoch_ns_);
  epoch_.utilization = capacity > 0.0 ? epoch_bytes / capacity : 0.0;
  if (epoch_.requests > 0) {
    epoch_.avg_latency_ns /= static_cast<double>(epoch_.requests);
  }
  utilization_ewma_ += config_.utilization_alpha *
                       (epoch_.utilization - utilization_ewma_);
  const std::uint64_t total = epoch_.TotalBytes();
  const double share =
      total ? static_cast<double>(epoch_.bytes[static_cast<int>(
                  TrafficClass::kHwPrefetch)]) /
                  static_cast<double>(total)
            : 0.0;
  prefetch_share_ewma_ +=
      config_.utilization_alpha * (share - prefetch_share_ewma_);
  current_latency_ns_ = LatencyAtSmoothedState();
  return epoch_;
}

}  // namespace limoncello
