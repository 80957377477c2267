#include "wire_script.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::vector<std::string> WireDaemonFlags(const std::string& listen_path,
                                         int endpoints) {
  return {"--listen=" + listen_path,
          "--endpoints=" + std::to_string(endpoints),
          "--tick-ms=" + std::to_string(kWireTickMs),
          "--sustain-sec=0",
          "--max-missed-samples=" + std::to_string(kWireMaxMissedSamples)};
}

limoncello::ControllerConfig WireDaemonConfig() {
  // ConfigFromFlags with the flags above: thresholds at their defaults,
  // sustain 0 s; RunListen then sets the tick to --tick-ms and raises the
  // sustain window to at least two ticks.
  limoncello::ControllerConfig config;
  config.upper_threshold = 0.80;
  config.lower_threshold = 0.60;
  config.max_missed_samples = kWireMaxMissedSamples;
  config.tick_period_ns = static_cast<limoncello::SimTimeNs>(kWireTickMs) *
                          1000 * 1000;
  config.sustain_duration_ns = std::max<limoncello::SimTimeNs>(
      0, 2 * config.tick_period_ns);
  return config;
}

ToggleScript::ToggleScript(const limoncello::ControllerConfig& config,
                           int endpoints, std::uint64_t seed)
    : config_(config),
      crossing_samples_(static_cast<int>(std::max<std::int64_t>(
          1, (config.sustain_duration_ns + config.tick_period_ns - 1) /
                 config.tick_period_ns))),
      endpoints_(static_cast<std::size_t>(endpoints)),
      rng_(seed) {}

double ToggleScript::Hold() {
  // Strictly between the thresholds, jittered so no two samples repeat
  // bit for bit (a frozen exporter is telemetry garbage).
  const double mid = 0.5 * (config_.upper_threshold + config_.lower_threshold);
  const double span = 0.25 * (config_.upper_threshold -
                              config_.lower_threshold);
  return mid + rng_.NextDouble(-span, span);
}

ToggleScript::Frame ToggleScript::Next(std::uint32_t endpoint) {
  EndpointScript& script = endpoints_[endpoint];
  Frame frame;
  frame.batch.endpoint_id = endpoint;
  frame.batch.sequence = ++script.sequence;
  frame.batch.base_tick =
      static_cast<std::uint32_t>(script.frames * kSamplesPerFrame);
  frame.batch.num_samples = kSamplesPerFrame;
  frame.crossing = script.frames % kCrossingPeriod == kCrossingPeriod - 1;
  ++script.frames;
  const int hold_samples =
      frame.crossing ? static_cast<int>(kSamplesPerFrame) - crossing_samples_
                     : static_cast<int>(kSamplesPerFrame);
  for (int i = 0; i < hold_samples; ++i) {
    frame.batch.utilization[static_cast<std::size_t>(i)] = Hold();
  }
  if (frame.crossing) {
    // Enabled: push above the upper threshold long enough to disable;
    // disabled: below the lower threshold long enough to re-enable.
    const bool disable = script.enabled;
    for (int i = hold_samples; i < static_cast<int>(kSamplesPerFrame); ++i) {
      const double jitter = rng_.NextDouble(0.0, 0.05);
      frame.batch.utilization[static_cast<std::size_t>(i)] =
          disable ? config_.upper_threshold + 0.1 + jitter
                  : config_.lower_threshold - 0.1 - jitter;
    }
    script.enabled = !disable;
    frame.expect_enable = script.enabled;
  }
  return frame;
}

OpenLoopSchedule::OpenLoopSchedule(std::uint64_t start_ns, double rate_per_s)
    : start_ns_(start_ns), period_ns_(1e9 / rate_per_s) {}

std::uint64_t OpenLoopSchedule::DueNs(std::uint64_t index) const {
  return start_ns_ +
         static_cast<std::uint64_t>(static_cast<double>(index) * period_ns_);
}

std::uint64_t OpenLoopSchedule::DueBy(std::uint64_t now_ns) const {
  if (now_ns < start_ns_) return 0;
  return static_cast<std::uint64_t>(
             std::floor(static_cast<double>(now_ns - start_ns_) /
                        period_ns_)) +
         1;
}

void OpenLoopSchedule::RecordSend(std::uint64_t index, std::uint64_t send_ns) {
  const std::uint64_t due = DueNs(index);
  if (send_ns > due) {
    max_lateness_ns_ = std::max(max_lateness_ns_, send_ns - due);
  }
  last_send_ns_ = std::max(last_send_ns_, send_ns);
  sent_ = std::max(sent_, index + 1);
}

double OpenLoopSchedule::AchievedRate() const {
  if (sent_ < 2 || last_send_ns_ <= start_ns_) return 0.0;
  return static_cast<double>(sent_ - 1) * 1e9 /
         static_cast<double>(last_send_ns_ - start_ns_);
}

BisectResult BisectMaxRate(double lo, double hi, int max_probes,
                           double precision,
                           const std::function<bool(double)>& probe) {
  BisectResult result;
  result.rate = lo;
  while (result.probes < max_probes && hi - lo >= precision * lo) {
    const double mid = 0.5 * (lo + hi);
    ++result.probes;
    if (probe(mid)) {
      lo = mid;
      result.rate = mid;
    } else {
      hi = mid;
    }
  }
  return result;
}

}  // namespace perfbench
