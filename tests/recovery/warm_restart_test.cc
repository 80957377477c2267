// End-to-end warm-restart acceptance: a daemon killed mid-run and
// restarted from its journal must reconverge with a never-killed control
// daemon fed the identical telemetry — same FSM state, same toggle
// count, same hardware state, same cumulative stats. Also covers the
// reboot-while-down race: the hardware reset under the dead daemon, and
// the restarted one must notice and re-assert its journaled intent.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/daemon.h"
#include "recovery/recovery_manager.h"
#include "test_temp_path.h"

namespace limoncello {
namespace {

class FakeTelemetry : public UtilizationSource {
 public:
  std::optional<double> SampleUtilization() override {
    if (next_ < script_.size()) return script_[next_++];
    return 0.7;  // quiet fallback between the thresholds
  }
  void Load(const std::vector<double>& script) {
    script_ = script;
    next_ = 0;
  }

 private:
  std::vector<double> script_;
  std::size_t next_ = 0;
};

class ReadbackActuator : public PrefetchActuator {
 public:
  bool DisablePrefetchers() override {
    if (fail_next > 0) {
      --fail_next;
      return false;
    }
    enabled = false;
    return true;
  }
  bool EnablePrefetchers() override {
    if (fail_next > 0) {
      --fail_next;
      return false;
    }
    enabled = true;
    return true;
  }
  std::optional<bool> StateMatches(bool want_enabled) override {
    return enabled == want_enabled;
  }

  bool enabled = true;
  int fail_next = 0;
};

ControllerConfig FastConfig() {
  ControllerConfig config;
  config.upper_threshold = 0.8;
  config.lower_threshold = 0.6;
  config.sustain_duration_ns = 2 * kNsPerSec;
  config.tick_period_ns = kNsPerSec;
  config.max_missed_samples = 3;
  config.retry_backoff_cap_ticks = 1;
  return config;
}

std::string TempPath(const std::string& name) {
  const std::string path = TestTempPath(name);
  std::error_code ec;
  std::filesystem::remove(path, ec);
  return path;
}

// A telemetry story that toggles the prefetchers twice: a sustained
// burst (disable), a lull (re-enable), and a second burst in the tail
// the restarted daemon must handle on its own.
const std::vector<double> kScript = {
    0.9, 0.9, 0.9, 0.7, 0.5, 0.5, 0.7, 0.7,   // ticks 1-8
    0.9, 0.9, 0.9, 0.7, 0.7, 0.5, 0.5, 0.7};  // ticks 9-16

std::vector<double> Slice(std::size_t begin, std::size_t end) {
  return {kScript.begin() + begin, kScript.begin() + end};
}

TEST(WarmRestartTest, KilledDaemonReconvergesWithTheControlArm) {
  // Control arm: one daemon, never killed, runs the whole script.
  FakeTelemetry control_telemetry;
  control_telemetry.Load(kScript);
  ReadbackActuator control_actuator;
  LimoncelloDaemon control(FastConfig(), &control_telemetry,
                           &control_actuator);
  for (std::size_t i = 0; i < kScript.size(); ++i) {
    control.RunTick(static_cast<SimTimeNs>(i) * kNsPerSec);
  }

  // Victim arm: identical telemetry, same hardware, but the process dies
  // (no shutdown flush — the journal's periodic appends are all it left)
  // after tick 8, a tick the cadence journals.
  const std::string path = TempPath("reconverge.journal");
  ReadbackActuator actuator;
  FakeTelemetry first_half;
  first_half.Load(Slice(0, 8));
  {
    LimoncelloDaemon victim(FastConfig(), &first_half, &actuator);
    RecoveryManager manager({.state_file = path, .snapshot_period_ticks = 4},
                            &victim);
    ASSERT_FALSE(manager.RecoverAndReconcile().warm);
    for (std::size_t i = 0; i < 8; ++i) {
      manager.OnTickComplete(
          victim.RunTick(static_cast<SimTimeNs>(i) * kNsPerSec));
    }
  }  // SIGKILL: daemon and manager destroyed, no FlushSnapshot

  FakeTelemetry second_half;
  second_half.Load(Slice(8, kScript.size()));
  LimoncelloDaemon restarted(FastConfig(), &second_half, &actuator);
  RecoveryManager manager({.state_file = path, .snapshot_period_ticks = 4},
                          &restarted);
  const RecoveryResult result = manager.RecoverAndReconcile();
  EXPECT_TRUE(result.warm);
  EXPECT_EQ(result.reconcile, ReconcileStatus::kMatched);
  EXPECT_EQ(restarted.stats().ticks, 8u);
  for (std::size_t i = 8; i < kScript.size(); ++i) {
    manager.OnTickComplete(
        restarted.RunTick(static_cast<SimTimeNs>(i) * kNsPerSec));
  }

  // Reconvergence invariant: the restarted daemon is indistinguishable
  // from the control arm on everything the journal carries.
  EXPECT_EQ(restarted.controller().state(), control.controller().state());
  EXPECT_EQ(restarted.controller().timer_ns(),
            control.controller().timer_ns());
  EXPECT_EQ(restarted.controller().toggle_count(),
            control.controller().toggle_count());
  EXPECT_EQ(actuator.enabled, control_actuator.enabled);
  EXPECT_EQ(restarted.stats().ticks, control.stats().ticks);
  EXPECT_EQ(restarted.stats().disables, control.stats().disables);
  EXPECT_EQ(restarted.stats().enables, control.stats().enables);
  EXPECT_EQ(restarted.stats().warm_restores, 1u);  // the one delta
}

TEST(WarmRestartTest, RebootWhileDownIsDetectedAndReasserted) {
  const std::string path = TempPath("reboot_reassert.journal");
  ReadbackActuator actuator;
  FakeTelemetry burst;
  burst.Load(Slice(0, 3));  // enough to disable
  {
    LimoncelloDaemon victim(FastConfig(), &burst, &actuator);
    RecoveryManager manager({.state_file = path}, &victim);
    for (int i = 0; i < 3; ++i) {
      manager.OnTickComplete(
          victim.RunTick(static_cast<SimTimeNs>(i) * kNsPerSec));
    }
    ASSERT_FALSE(actuator.enabled);
  }
  // While the daemon was dead the machine rebooted: BIOS default is on.
  actuator.enabled = true;

  FakeTelemetry quiet;
  LimoncelloDaemon restarted(FastConfig(), &quiet, &actuator);
  RecoveryManager manager({.state_file = path}, &restarted);
  const RecoveryResult result = manager.RecoverAndReconcile();
  EXPECT_TRUE(result.warm);
  EXPECT_EQ(result.reconcile, ReconcileStatus::kReasserted);
  EXPECT_FALSE(actuator.enabled);  // journaled intent wins
  EXPECT_EQ(restarted.stats().recovery_reconciles, 1u);
}

TEST(WarmRestartTest, FailedReassertArmsTheStandardRetry) {
  const std::string path = TempPath("reassert_retry.journal");
  ReadbackActuator actuator;
  FakeTelemetry burst;
  burst.Load(Slice(0, 3));
  {
    LimoncelloDaemon victim(FastConfig(), &burst, &actuator);
    RecoveryManager manager({.state_file = path}, &victim);
    for (int i = 0; i < 3; ++i) {
      manager.OnTickComplete(
          victim.RunTick(static_cast<SimTimeNs>(i) * kNsPerSec));
    }
  }
  actuator.enabled = true;
  actuator.fail_next = 1;  // the re-assert write fails once

  FakeTelemetry quiet;
  LimoncelloDaemon restarted(FastConfig(), &quiet, &actuator);
  RecoveryManager manager({.state_file = path}, &restarted);
  const RecoveryResult result = manager.RecoverAndReconcile();
  EXPECT_EQ(result.reconcile, ReconcileStatus::kRetryArmed);
  EXPECT_TRUE(actuator.enabled);  // still wrong...
  // ...until the normal tick loop's backoff retry lands it.
  restarted.RunTick(100 * kNsPerSec);
  restarted.RunTick(101 * kNsPerSec);
  EXPECT_FALSE(actuator.enabled);
}

}  // namespace
}  // namespace limoncello
