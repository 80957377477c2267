#include "core/daemon.h"

#include <gtest/gtest.h>

#include <deque>

#include "msr/simulated_msr_device.h"

namespace limoncello {
namespace {

// Scripted telemetry source.
class FakeTelemetry : public UtilizationSource {
 public:
  std::optional<double> SampleUtilization() override {
    if (samples_.empty()) return fallback_;
    const std::optional<double> s = samples_.front();
    samples_.pop_front();
    return s;
  }

  void Push(std::optional<double> sample) { samples_.push_back(sample); }
  void PushN(std::optional<double> sample, int n) {
    for (int i = 0; i < n; ++i) Push(sample);
  }
  void set_fallback(std::optional<double> f) { fallback_ = f; }

 private:
  std::deque<std::optional<double>> samples_;
  std::optional<double> fallback_ = 0.5;
};

// Actuator recording calls, with failure injection.
class FakeActuator : public PrefetchActuator {
 public:
  bool DisablePrefetchers() override {
    ++disable_calls;
    if (fail_next > 0) {
      --fail_next;
      return false;
    }
    enabled = false;
    return true;
  }
  bool EnablePrefetchers() override {
    ++enable_calls;
    if (fail_next > 0) {
      --fail_next;
      return false;
    }
    enabled = true;
    return true;
  }

  int disable_calls = 0;
  int enable_calls = 0;
  int fail_next = 0;
  bool enabled = true;
};

ControllerConfig FastConfig() {
  ControllerConfig config;
  config.upper_threshold = 0.8;
  config.lower_threshold = 0.6;
  config.sustain_duration_ns = 2 * kNsPerSec;
  config.tick_period_ns = kNsPerSec;
  config.max_missed_samples = 3;
  // Legacy every-tick retry; exponential backoff is exercised separately
  // in daemon_fault_test.
  config.retry_backoff_cap_ticks = 1;
  return config;
}

TEST(DaemonTest, DisablesOnSustainedHighAndReenablesOnLow) {
  FakeTelemetry telemetry;
  FakeActuator actuator;
  LimoncelloDaemon daemon(FastConfig(), &telemetry, &actuator);

  telemetry.PushN(0.9, 2);
  daemon.RunTick(0);
  auto record = daemon.RunTick(kNsPerSec);
  EXPECT_EQ(record.action, ControllerAction::kDisablePrefetchers);
  EXPECT_FALSE(actuator.enabled);

  telemetry.PushN(0.5, 2);
  daemon.RunTick(2 * kNsPerSec);
  record = daemon.RunTick(3 * kNsPerSec);
  EXPECT_EQ(record.action, ControllerAction::kEnablePrefetchers);
  EXPECT_TRUE(actuator.enabled);
  EXPECT_EQ(daemon.stats().disables, 1u);
  EXPECT_EQ(daemon.stats().enables, 1u);
}

TEST(DaemonTest, SteadyModerateLoadNeverActuates) {
  FakeTelemetry telemetry;
  FakeActuator actuator;
  telemetry.set_fallback(0.7);
  LimoncelloDaemon daemon(FastConfig(), &telemetry, &actuator);
  for (int i = 0; i < 100; ++i) daemon.RunTick(i * kNsPerSec);
  EXPECT_EQ(actuator.disable_calls, 0);
  EXPECT_EQ(actuator.enable_calls, 0);
}

TEST(DaemonTest, MissedTelemetryTriggersFailSafe) {
  FakeTelemetry telemetry;
  FakeActuator actuator;
  LimoncelloDaemon daemon(FastConfig(), &telemetry, &actuator);

  // Drive to disabled.
  telemetry.PushN(0.9, 2);
  daemon.RunTick(0);
  daemon.RunTick(kNsPerSec);
  ASSERT_FALSE(actuator.enabled);

  // Telemetry goes dark: after max_missed_samples, fail safe to enabled.
  telemetry.PushN(std::nullopt, 3);
  daemon.RunTick(2 * kNsPerSec);
  daemon.RunTick(3 * kNsPerSec);
  EXPECT_FALSE(actuator.enabled);  // not yet
  daemon.RunTick(4 * kNsPerSec);
  EXPECT_TRUE(actuator.enabled);  // fail-safe fired
  EXPECT_EQ(daemon.stats().failsafe_resets, 1u);
  EXPECT_EQ(daemon.controller().state(), ControllerState::kEnabledSteady);
}

TEST(DaemonTest, FailSafeWhenAlreadyEnabledDoesNotActuate) {
  FakeTelemetry telemetry;
  FakeActuator actuator;
  LimoncelloDaemon daemon(FastConfig(), &telemetry, &actuator);
  telemetry.PushN(std::nullopt, 3);
  daemon.RunTick(0);
  daemon.RunTick(kNsPerSec);
  daemon.RunTick(2 * kNsPerSec);
  EXPECT_EQ(daemon.stats().failsafe_resets, 1u);
  EXPECT_EQ(actuator.enable_calls, 0);  // already in the safe state
}

TEST(DaemonTest, IntermittentMissesDoNotFailSafe) {
  FakeTelemetry telemetry;
  FakeActuator actuator;
  LimoncelloDaemon daemon(FastConfig(), &telemetry, &actuator);
  for (int i = 0; i < 20; ++i) {
    telemetry.Push(std::nullopt);
    telemetry.Push(0.7);  // each miss followed by a good sample
  }
  for (int i = 0; i < 40; ++i) daemon.RunTick(i * kNsPerSec);
  EXPECT_EQ(daemon.stats().failsafe_resets, 0u);
  EXPECT_EQ(daemon.stats().missed_samples, 20u);
}

TEST(DaemonTest, FailedActuationIsRetriedUntilSuccess) {
  FakeTelemetry telemetry;
  FakeActuator actuator;
  actuator.fail_next = 2;
  LimoncelloDaemon daemon(FastConfig(), &telemetry, &actuator);

  telemetry.PushN(0.9, 2);
  telemetry.set_fallback(0.7);  // hold between thresholds afterwards
  daemon.RunTick(0);
  auto record = daemon.RunTick(kNsPerSec);
  EXPECT_EQ(record.action, ControllerAction::kDisablePrefetchers);
  EXPECT_FALSE(record.actuation_ok);
  EXPECT_TRUE(actuator.enabled);  // write failed

  daemon.RunTick(2 * kNsPerSec);  // retry fails again
  EXPECT_TRUE(actuator.enabled);
  daemon.RunTick(3 * kNsPerSec);  // retry succeeds
  EXPECT_FALSE(actuator.enabled);
  EXPECT_EQ(daemon.stats().actuation_failures, 2u);
}

TEST(DaemonTest, TracesRecordStateAndUtilization) {
  FakeTelemetry telemetry;
  FakeActuator actuator;
  LimoncelloDaemon daemon(FastConfig(), &telemetry, &actuator);
  telemetry.PushN(0.9, 2);
  telemetry.PushN(0.5, 2);
  for (int i = 0; i < 4; ++i) daemon.RunTick(i * kNsPerSec);
  ASSERT_EQ(daemon.state_trace().size(), 4u);
  EXPECT_EQ(daemon.state_trace().points()[0].value, 1.0);  // still on
  EXPECT_EQ(daemon.state_trace().points()[1].value, 0.0);  // disabled
  EXPECT_EQ(daemon.state_trace().points()[3].value, 1.0);  // re-enabled
  EXPECT_DOUBLE_EQ(daemon.utilization_trace().points()[0].value, 0.9);
}

TEST(DaemonTest, StatsCountTicks) {
  FakeTelemetry telemetry;
  FakeActuator actuator;
  LimoncelloDaemon daemon(FastConfig(), &telemetry, &actuator);
  for (int i = 0; i < 7; ++i) daemon.RunTick(i * kNsPerSec);
  EXPECT_EQ(daemon.stats().ticks, 7u);
}

// FakeActuator with working readback, for reconcile tests.
class ReadbackFakeActuator : public FakeActuator {
 public:
  std::optional<bool> StateMatches(bool want_enabled) override {
    return enabled == want_enabled;
  }
};

TEST(DaemonTest, ExportRestoreRoundTripsTheFullState) {
  FakeTelemetry telemetry;
  FakeActuator actuator;
  LimoncelloDaemon daemon(FastConfig(), &telemetry, &actuator);
  telemetry.PushN(0.9, 3);  // disable, then one steady tick
  for (int i = 0; i < 3; ++i) daemon.RunTick(i * kNsPerSec);
  ASSERT_EQ(daemon.controller().state(), ControllerState::kDisabledSteady);
  const LimoncelloDaemon::PersistentState exported = daemon.ExportState();
  EXPECT_EQ(exported.controller_state, ControllerState::kDisabledSteady);
  EXPECT_EQ(exported.toggle_count, 1u);
  EXPECT_EQ(exported.stats.ticks, 3u);

  FakeTelemetry telemetry2;
  FakeActuator actuator2;
  LimoncelloDaemon restarted(FastConfig(), &telemetry2, &actuator2);
  EXPECT_TRUE(restarted.RestoreState(exported));
  EXPECT_EQ(restarted.controller().state(),
            ControllerState::kDisabledSteady);
  EXPECT_EQ(restarted.controller().toggle_count(), 1u);
  EXPECT_EQ(restarted.stats().ticks, 3u);
  EXPECT_EQ(restarted.stats().warm_restores, 1u);
  // Round trip again: apart from the warm-restore count the snapshot is
  // unchanged.
  LimoncelloDaemon::PersistentState again = restarted.ExportState();
  again.stats.warm_restores = exported.stats.warm_restores;
  EXPECT_EQ(again, exported);
}

TEST(DaemonTest, RestoreStateFiresTheStateListener) {
  FakeTelemetry telemetry;
  FakeActuator actuator;
  LimoncelloDaemon daemon(FastConfig(), &telemetry, &actuator);
  std::optional<bool> heard;
  daemon.SetStateListener([&heard](bool enabled) { heard = enabled; });
  LimoncelloDaemon::PersistentState state;
  state.controller_state = ControllerState::kDisabledSteady;
  ASSERT_TRUE(daemon.RestoreState(state));
  ASSERT_TRUE(heard.has_value());
  EXPECT_FALSE(*heard);
}

TEST(DaemonTest, RestoreRejectsStatesViolatingConfigInvariants) {
  FakeTelemetry telemetry;
  FakeActuator actuator;
  LimoncelloDaemon daemon(FastConfig(), &telemetry, &actuator);

  LimoncelloDaemon::PersistentState bad;
  bad.controller_state = static_cast<ControllerState>(9);  // no such state
  EXPECT_FALSE(daemon.RestoreState(bad));

  bad = {};
  bad.pending_retry = static_cast<ControllerAction>(42);
  EXPECT_FALSE(daemon.RestoreState(bad));

  bad = {};
  bad.timer_ns = -1;
  EXPECT_FALSE(daemon.RestoreState(bad));

  bad = {};  // steady state must have a clear timer
  bad.controller_state = ControllerState::kEnabledSteady;
  bad.timer_ns = kNsPerSec;
  EXPECT_FALSE(daemon.RestoreState(bad));

  bad = {};  // arming timer must be inside the sustain window (2 s)
  bad.controller_state = ControllerState::kEnabledArming;
  bad.timer_ns = 5 * kNsPerSec;
  EXPECT_FALSE(daemon.RestoreState(bad));

  bad = {};  // backoff beyond the config cap (1)
  bad.retry_delay_ticks = 4;
  EXPECT_FALSE(daemon.RestoreState(bad));

  bad = {};  // missed-sample run at/past the fail-safe trip point (3)
  bad.consecutive_missed = 3;
  EXPECT_FALSE(daemon.RestoreState(bad));

  bad = {};  // a retry that contradicts the intent (enabled)
  bad.pending_retry = ControllerAction::kDisablePrefetchers;
  EXPECT_FALSE(daemon.RestoreState(bad));

  // Nothing was adopted: the daemon is still at its cold-start state.
  EXPECT_EQ(daemon.stats().warm_restores, 0u);
  EXPECT_EQ(daemon.controller().state(), ControllerState::kEnabledSteady);
}

TEST(DaemonTest, RestoreAcceptsEveryExportedState) {
  // Disables fail and enables succeed, so an enable lands while a disable
  // retry is backed off. A success that reset the backoff delay but kept
  // the wait countdown exported a state its own restore rejected.
  struct DisablesFail : PrefetchActuator {
    bool DisablePrefetchers() override { return false; }
    bool EnablePrefetchers() override { return true; }
  } actuator;
  ControllerConfig config = FastConfig();
  config.sustain_duration_ns = config.tick_period_ns;
  config.retry_backoff_cap_ticks = 8;
  FakeTelemetry telemetry;
  for (int block = 0; block < 4; ++block) {
    telemetry.PushN(0.9, 3);
    telemetry.PushN(0.4, 3);
  }
  LimoncelloDaemon daemon(config, &telemetry, &actuator);
  for (int t = 0; t < 24; ++t) {
    daemon.RunTick(t * kNsPerSec);
    FakeTelemetry fresh_telemetry;
    FakeActuator fresh_actuator;
    LimoncelloDaemon fresh(config, &fresh_telemetry, &fresh_actuator);
    EXPECT_TRUE(fresh.RestoreState(daemon.ExportState())) << "tick " << t;
  }
  EXPECT_GT(daemon.stats().actuation_failures.value(), 0u);
  EXPECT_GT(daemon.controller().toggle_count(), 2u);
}

TEST(DaemonTest, ReconcileWithoutReadbackIsUnknown) {
  FakeTelemetry telemetry;
  FakeActuator actuator;  // base fake: StateMatches returns nullopt
  LimoncelloDaemon daemon(FastConfig(), &telemetry, &actuator);
  EXPECT_EQ(daemon.ReconcileHardwareState(), ReconcileStatus::kUnknown);
  EXPECT_EQ(daemon.stats().recovery_reconciles, 0u);
}

TEST(DaemonTest, ReconcileReassertsMismatchedHardware) {
  FakeTelemetry telemetry;
  ReadbackFakeActuator actuator;
  actuator.enabled = false;  // hardware disagrees with cold-start intent
  LimoncelloDaemon daemon(FastConfig(), &telemetry, &actuator);
  EXPECT_EQ(daemon.ReconcileHardwareState(), ReconcileStatus::kReasserted);
  EXPECT_TRUE(actuator.enabled);
  EXPECT_EQ(daemon.stats().recovery_reconciles, 1u);

  // A second reconcile now matches and is side-effect free.
  EXPECT_EQ(daemon.ReconcileHardwareState(), ReconcileStatus::kMatched);
  EXPECT_EQ(daemon.stats().recovery_reconciles, 1u);
}

TEST(DaemonTest, MsrBackedActuatorEndToEnd) {
  // Full integration of daemon -> MsrPrefetchActuator -> PrefetchControl
  // -> SimulatedMsrDevice.
  SimulatedMsrDevice device(4);
  PrefetchControl control(&device, PlatformMsrLayout::kIntelStyle, 0, 4);
  MsrPrefetchActuator actuator(&control, 4);
  FakeTelemetry telemetry;
  LimoncelloDaemon daemon(FastConfig(), &telemetry, &actuator);

  telemetry.PushN(0.95, 2);
  daemon.RunTick(0);
  daemon.RunTick(kNsPerSec);
  EXPECT_EQ(control.AllDisabled(), true);
  EXPECT_EQ(device.PeekRaw(0, 0x1a4), 0xfu);

  telemetry.PushN(0.4, 2);
  daemon.RunTick(2 * kNsPerSec);
  daemon.RunTick(3 * kNsPerSec);
  EXPECT_EQ(control.AllEnabled(), true);
}

TEST(DaemonTest, MsrActuatorPartialFailureRetries) {
  SimulatedMsrDevice device(4);
  PrefetchControl control(&device, PlatformMsrLayout::kIntelStyle, 0, 4);
  MsrPrefetchActuator actuator(&control, 4);
  FakeTelemetry telemetry;
  LimoncelloDaemon daemon(FastConfig(), &telemetry, &actuator);

  device.FailCpu(3);  // one core's MSR interface is down
  telemetry.PushN(0.95, 2);
  telemetry.set_fallback(0.95);
  daemon.RunTick(0);
  daemon.RunTick(kNsPerSec);
  EXPECT_GT(daemon.stats().actuation_failures.value(), 0u);
  // The core comes back; a later tick's retry completes the disable.
  device.UnfailCpu(3);
  daemon.RunTick(2 * kNsPerSec);
  EXPECT_EQ(control.AllDisabled(), true);
}

}  // namespace
}  // namespace limoncello
