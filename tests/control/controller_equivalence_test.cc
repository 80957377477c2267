// The daemon and the control plane run one EndpointController, so the
// same telemetry must give the same decisions through either driver —
// not only FSM states (ControlPlaneTest.SingleEndpointMatchesBareController)
// but every actuator call, retry, and fail-safe.
//
// Each trace is fed to a LimoncelloDaemon (scripted UtilizationSource,
// fake actuator) and to a one-endpoint ControlPlane (one one-sample frame
// per tick, then DrainAll, then AdvanceTick). Both actuators fail on one
// schedule keyed by tick: the daemon's RunTick(t) retries and then
// decides at tick t; the plane decides while draining tick t, and its
// AdvanceTick after tick t closes t and retries as tick t+1.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <ostream>
#include <vector>

#include "control/control_plane.h"
#include "control/telemetry_batch.h"
#include "core/daemon.h"
#include "util/rng.h"

namespace limoncello {
namespace {

struct Call {
  bool enable;
  bool ok;
  bool operator==(const Call&) const = default;
};

void PrintTo(const Call& call, std::ostream* os) {
  *os << (call.enable ? "enable" : "disable") << (call.ok ? "/ok" : "/fail");
}

// Telemetry per tick (nullopt: no sample that tick) and the actuation
// outage [fail_begin, fail_end), in ticks.
struct Trace {
  std::vector<std::optional<double>> samples;
  int fail_begin = 0;
  int fail_end = 0;

  bool Fails(int tick) const { return tick >= fail_begin && tick < fail_end; }
};

ControllerConfig EquivalenceConfig() {
  ControllerConfig config;
  config.tick_period_ns = 1'000'000;
  config.sustain_duration_ns = 2'000'000;
  config.max_missed_samples = 5;
  config.retry_backoff_cap_ticks = 8;
  config.readback_period_ticks = 0;  // the plane cannot read back
  return config;
}

// Jittered utilization: real telemetry never repeats bit for bit, and the
// daemon rejects a frozen exporter.
std::vector<std::optional<double>> Blocks(const std::vector<double>& levels,
                                          int block_ticks, Rng& rng) {
  std::vector<std::optional<double>> samples;
  for (double level : levels) {
    for (int i = 0; i < block_ticks; ++i) {
      samples.push_back(level + rng.NextDouble(0.0, 0.02));
    }
  }
  return samples;
}

struct Outcome {
  std::vector<Call> calls;
  std::uint64_t toggles = 0;
  std::uint64_t failsafes = 0;
};

Outcome RunDaemon(const Trace& trace) {
  struct Telemetry : UtilizationSource {
    std::optional<double> SampleUtilization() override { return *sample; }
    const std::optional<double>* sample = nullptr;
  } telemetry;
  struct Actuator : PrefetchActuator {
    bool DisablePrefetchers() override { return Record(false); }
    bool EnablePrefetchers() override { return Record(true); }
    bool Record(bool enable) {
      calls.push_back({enable, !fail});
      return !fail;
    }
    bool fail = false;
    std::vector<Call> calls;
  } actuator;
  const ControllerConfig config = EquivalenceConfig();
  LimoncelloDaemon daemon(config, &telemetry, &actuator);
  for (std::size_t t = 0; t < trace.samples.size(); ++t) {
    telemetry.sample = &trace.samples[t];
    actuator.fail = trace.Fails(static_cast<int>(t));
    (void)daemon.RunTick(static_cast<SimTimeNs>(t) * config.tick_period_ns);
  }
  return {actuator.calls, daemon.controller().toggle_count(),
          daemon.stats().failsafe_resets.value()};
}

Outcome RunPlane(const Trace& trace) {
  ControlPlaneOptions options;
  options.num_endpoints = 1;
  options.num_shards = 1;
  options.config = EquivalenceConfig();
  bool fail = false;
  std::vector<Call> calls;
  ControlPlane plane(options, [&](std::uint32_t, bool enable) {
    calls.push_back({enable, !fail});
    return !fail;
  });
  unsigned char frame[kMaxTelemetryFrameBytes];
  for (std::size_t t = 0; t < trace.samples.size(); ++t) {
    const int tick = static_cast<int>(t);
    if (trace.samples[t].has_value()) {
      TelemetryBatch batch;
      batch.endpoint_id = 0;
      batch.sequence = t + 1;
      batch.num_samples = 1;
      batch.utilization[0] = *trace.samples[t];
      const std::size_t size = EncodeTelemetryBatch(batch, frame);
      EXPECT_EQ(plane.IngestFrame(frame, size, 0), PushResult::kOk);
    }
    fail = trace.Fails(tick);
    plane.DrainAll(0);
    fail = trace.Fails(tick + 1);
    plane.AdvanceTick();
  }
  return {calls, plane.ExportEndpoint(0).toggle_count,
          plane.SnapshotStats().stale_endpoint_failsafes.value()};
}

void ExpectEquivalent(const Trace& trace) {
  const Outcome daemon = RunDaemon(trace);
  const Outcome plane = RunPlane(trace);
  EXPECT_EQ(plane.calls, daemon.calls);
  EXPECT_EQ(plane.toggles, daemon.toggles);
  EXPECT_EQ(plane.failsafes, daemon.failsafes);
  // The trace must exercise what it claims to.
  bool failed = false;
  for (const Call& call : daemon.calls) failed = failed || !call.ok;
  EXPECT_TRUE(failed);
  EXPECT_GT(daemon.toggles, 0u);
}

TEST(ControllerEquivalenceTest, CrossingsThroughAnActuationFailureWindow) {
  Rng rng(1);
  Trace trace;
  trace.samples = Blocks({0.9, 0.4, 0.9, 0.4, 0.9, 0.4, 0.9, 0.4, 0.9, 0.4,
                          0.9, 0.4, 0.9, 0.4, 0.9, 0.4, 0.9, 0.4, 0.9, 0.4},
                         12, rng);
  // The enable decided at tick 13 fails, as do its retries at 14 and 16;
  // the one at 20 lands, before the next crossing.
  trace.fail_begin = 12;
  trace.fail_end = 20;
  ExpectEquivalent(trace);
}

TEST(ControllerEquivalenceTest, FailedDisableThenFsmFlipsBackBeforeRetry) {
  // The disable decided at tick 1 fails, and so does its retry at tick 2;
  // the FSM flips back to enable at tick 3, before the next retry (tick
  // 4). The hardware state is unknown, so the enable must be sent.
  Rng rng(2);
  Trace trace;
  trace.samples = Blocks({0.9}, 2, rng);
  for (const auto& sample : Blocks({0.4, 0.9, 0.4, 0.9, 0.4}, 6, rng)) {
    trace.samples.push_back(sample);
  }
  trace.fail_begin = 1;
  trace.fail_end = 3;
  ExpectEquivalent(trace);
}

TEST(ControllerEquivalenceTest, TelemetryGapDuringAnActuationOutage) {
  // Prefetchers go off, then the enable decided at tick 31 meets an
  // outage; 20 ticks of silence inside it trip the fail-safe repeatedly
  // while the retry is still failing.
  Rng rng(3);
  Trace trace;
  trace.samples = Blocks({0.9, 0.4, 0.9, 0.4}, 30, rng);
  for (int t = 40; t < 60; ++t) {
    trace.samples[static_cast<std::size_t>(t)] = std::nullopt;
  }
  trace.fail_begin = 30;
  trace.fail_end = 80;
  ExpectEquivalent(trace);
  const Outcome daemon = RunDaemon(trace);
  EXPECT_GE(daemon.failsafes, 4u);
  // Each fail-safe repeats the committed intent (enable), which the
  // pending retry already carries, so the retry keeps its backoff: 14
  // actuator calls, where re-arming the retry at delay 1 made 23.
  EXPECT_EQ(daemon.calls.size(), 14u);
}

}  // namespace
}  // namespace limoncello
