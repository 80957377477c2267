// The wire workload's pure logic, kept apart from sockets so it can be
// tested: the toggle script each endpoint follows, the open-loop send
// schedule, and the max_fps bisection.
#ifndef PERFBENCH_WIRE_SCRIPT_H_
#define PERFBENCH_WIRE_SCRIPT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "control/telemetry_batch.h"
#include "core/controller_config.h"
#include "util/rng.h"

namespace perfbench {

// limoncellod flags the wire workload runs with. The FSM tick is 1 ms;
// --sustain-sec=0 makes limoncellod clamp the sustain window to two ticks.
// --max-missed-samples must exceed the ticks between two frames of one
// endpoint at the lowest offered rate, or the staleness fail-safe sends
// actuations the script does not expect.
inline constexpr int kWireTickMs = 1;
inline constexpr int kWireMaxMissedSamples = 1000000;
std::vector<std::string> WireDaemonFlags(const std::string& listen_path,
                                         int endpoints);

// The controller configuration limoncellod derives from WireDaemonFlags
// (ConfigFromFlags defaults plus RunListen's --tick-ms clamp).
limoncello::ControllerConfig WireDaemonConfig();

// Each endpoint sends frames of kSamplesPerFrame utilization samples.
// Every kCrossingPeriod-th frame of an endpoint ends with enough samples
// beyond a threshold to flip its FSM exactly once; every other sample
// sits between the thresholds, where neither state moves. Crossings
// alternate: disable (above the upper threshold), then enable (below the
// lower one).
inline constexpr std::uint32_t kSamplesPerFrame = 8;
inline constexpr std::uint64_t kCrossingPeriod = 8;

class ToggleScript {
 public:
  ToggleScript(const limoncello::ControllerConfig& config, int endpoints,
               std::uint64_t seed);

  struct Frame {
    limoncello::TelemetryBatch batch;
    bool crossing = false;
    bool expect_enable = false;  // the actuation a crossing must produce
  };

  // The next frame of `endpoint` (advances its frame counter, sequence
  // and believed prefetcher state).
  Frame Next(std::uint32_t endpoint);

  // The prefetcher state the script believes the plane holds for the
  // endpoint after every frame sent so far.
  bool believed_enabled(std::uint32_t endpoint) const {
    return endpoints_[endpoint].enabled;
  }
  // Re-anchors the belief to what the plane last actuated (after a phase
  // that may have lost crossings to shedding).
  void SetBelieved(std::uint32_t endpoint, bool enabled) {
    endpoints_[endpoint].enabled = enabled;
  }
  int endpoints() const { return static_cast<int>(endpoints_.size()); }

 private:
  struct EndpointScript {
    std::uint64_t frames = 0;
    std::uint64_t sequence = 0;
    bool enabled = true;
  };

  double Hold();

  limoncello::ControllerConfig config_;
  int crossing_samples_;
  std::vector<EndpointScript> endpoints_;
  limoncello::Rng rng_;
};

// Open-loop schedule: frame i is due at start + i / rate, whatever the
// system did with earlier frames. Lateness is measured from the due time.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(std::uint64_t start_ns, double rate_per_s);

  std::uint64_t DueNs(std::uint64_t index) const;
  // Number of frames due at or before now_ns (the next index to send is
  // sent() while sent() < DueBy(now)).
  std::uint64_t DueBy(std::uint64_t now_ns) const;

  // Records that frame `index` left at send_ns.
  void RecordSend(std::uint64_t index, std::uint64_t send_ns);

  std::uint64_t sent() const { return sent_; }
  std::uint64_t max_lateness_ns() const { return max_lateness_ns_; }
  // Frames sent per second between the first due time and the last send.
  double AchievedRate() const;

 private:
  std::uint64_t start_ns_;
  double period_ns_;
  std::uint64_t sent_ = 0;
  std::uint64_t last_send_ns_ = 0;
  std::uint64_t max_lateness_ns_ = 0;
};

// Bisects for the highest rate at which probe(rate) passes, given that
// `lo` passes. Each probe halves [lo, hi); the search stops after
// max_probes probes or when hi - lo < precision * lo, so it always
// terminates. Returns the highest passing rate seen (lo when none).
struct BisectResult {
  double rate = 0.0;
  int probes = 0;
};
BisectResult BisectMaxRate(double lo, double hi, int max_probes,
                           double precision,
                           const std::function<bool(double)>& probe);

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_SCRIPT_H_
