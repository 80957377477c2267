// The Limoncello controller daemon: one socket's telemetry → FSM →
// actuation.
//
// The decision logic lives in an EndpointController (the per-endpoint
// core every ControlPlane endpoint runs too): the hysteresis FSM, the
// committed intent, capped-exponential actuation retry, and the
// missed-tick fail-safe that forces prefetchers back on. Each tick (1 s in
// production) the daemon feeds it, and adds what only a daemon with its
// own telemetry source and MSRs has:
//   * Sample validation: non-finite, negative, or implausibly large
//     samples are rejected, and a sample bit-identical to the previous
//     one max_stale_samples times in a row is treated as a frozen
//     exporter. Either way the tick counts as missed and feeds the
//     controller's fail-safe.
//   * MSR readback (silent state loss, e.g. a reboot to the BIOS
//     default): every readback_period_ticks the hardware state is read
//     back through the actuator and the intent re-asserted on mismatch.
//   * The state listener (Soft Limoncello) and the Fig. 9 traces.
#ifndef LIMONCELLO_CORE_DAEMON_H_
#define LIMONCELLO_CORE_DAEMON_H_

#include <cstdint>
#include <functional>
#include <optional>

#include "core/actuator.h"
#include "core/endpoint_controller.h"
#include "stats/saturating.h"
#include "stats/time_series.h"
#include "telemetry/telemetry.h"

namespace limoncello {

// Outcome of reconciling journal-recovered intent against the hardware
// on warm restart (LimoncelloDaemon::ReconcileHardwareState).
enum class ReconcileStatus {
  kUnknown,     // actuator cannot read back; the restored intent stands
  kMatched,     // hardware already agrees with the restored intent
  kReasserted,  // mismatch: the intent was re-applied successfully
  kRetryArmed,  // mismatch: re-apply failed, backoff retry armed
};

const char* ReconcileStatusName(ReconcileStatus status);

// Private PrefetchActuator: the controller actuates through the daemon,
// which forwards to the real actuator and tells the state listener.
class LimoncelloDaemon : private PrefetchActuator {
 public:
  struct TickRecord {
    SimTimeNs time_ns = 0;
    double utilization = 0.0;     // NaN-free; 0 when sample missing
    bool sample_ok = false;
    ControllerAction action = ControllerAction::kNone;
    ControllerState state = ControllerState::kEnabledSteady;
    bool actuation_ok = true;
  };

  // Counters of the daemon's own input checks.
  struct InputStats {
    SatCounter invalid_samples;      // non-finite / out of range
    SatCounter stale_samples;        // frozen-exporter rejections
    SatCounter reboots_detected;     // readback mismatches
    SatCounter state_reasserts;      // successful re-assertions
    SatCounter recovery_reconciles;  // restored intent != hardware

    bool operator==(const InputStats&) const = default;
  };

  // The controller's counters plus the daemon's own.
  struct Stats : EndpointController::Stats, InputStats {
    bool operator==(const Stats&) const = default;
  };

  // Everything a warm restart must carry across a daemon process death:
  // the FSM, the actuation-retry machinery, the sample-validation state,
  // and the cumulative Stats (the LMJ1 journal record). Plain data;
  // src/recovery/ serializes it. Restored values are validated field by
  // field, never trusted.
  struct PersistentState {
    ControllerState controller_state = ControllerState::kEnabledSteady;
    SimTimeNs timer_ns = 0;
    std::uint64_t toggle_count = 0;
    ControllerAction pending_retry = ControllerAction::kNone;
    int retry_delay_ticks = 1;
    int retry_wait_ticks = 0;
    int consecutive_missed = 0;
    std::uint64_t last_sample_bits = 0;
    bool have_last_sample = false;
    int stale_run = 0;
    Stats stats;

    bool operator==(const PersistentState&) const = default;
  };

  // `telemetry` and `actuator` must outlive the daemon.
  LimoncelloDaemon(const ControllerConfig& config,
                   UtilizationSource* telemetry, PrefetchActuator* actuator);

  // Executes one controller tick at the given simulated time.
  TickRecord RunTick(SimTimeNs now_ns);

  // Snapshot of the state a warm restart needs (journaled by
  // RecoveryManager after actuations and periodically).
  PersistentState ExportState() const;

  // Adopts a recovered snapshot through EndpointController::RestoreState
  // (which validates every controller field) after vetting the sample-
  // validation fields; on any violation the daemon is left in its
  // cold-start state and false is returned. On success the state
  // listener (if any) is told the restored intent.
  bool RestoreState(const PersistentState& state);

  // Warm-restart reconciliation: reads the hardware prefetcher state
  // back through the actuator and compares it with the (possibly
  // just-restored) intent. The journal holds *intent* distilled from
  // telemetry history, so on mismatch the hardware is moved to match
  // the journal, not vice versa (see DESIGN.md §11); a failed re-assert
  // arms the standard backoff retry. Call before resuming RunTick.
  ReconcileStatus ReconcileHardwareState();

  // Observer invoked after every *successful* prefetcher-state change
  // (true = enabled). This is how Soft Limoncello learns the hardware
  // state (wire it to SoftPrefetchRuntime::SetHwPrefetchersEnabled).
  using StateListener = std::function<void(bool prefetchers_enabled)>;
  void SetStateListener(StateListener listener) {
    state_listener_ = std::move(listener);
  }

  const HysteresisController& controller() const {
    return core_.fsm();
  }
  Stats stats() const;

  // 1 = prefetchers commanded on, 0 = commanded off (for Fig. 9 traces).
  const TimeSeries& state_trace() const { return state_trace_; }
  const TimeSeries& utilization_trace() const { return utilization_trace_; }

  // Trace recording is on by default (figure tools and tests read the
  // traces). The fleet simulator turns it off: appending two TimeSeries
  // points per tick is the only allocation in an otherwise alloc-free
  // machine-tick, and at fleet scale the buffers would grow unbounded.
  void set_trace_recording(bool enabled) { trace_recording_ = enabled; }

 private:
  [[nodiscard]] bool DisablePrefetchers() override;
  [[nodiscard]] bool EnablePrefetchers() override;

  // Sample validation: non-finite/out-of-range and frozen-exporter
  // rejection. Returns nullopt (and bumps the matching counter) when the
  // sample must be treated as missed.
  std::optional<double> ValidateSample(std::optional<double> sample);
  // Periodic MSR readback: detect a silently reset state and re-assert.
  void MaybeReadback();

  const ControllerConfig& config() const { return core_.fsm().config(); }

  UtilizationSource* telemetry_;
  PrefetchActuator* actuator_;
  EndpointController core_;
  InputStats input_stats_;
  // Stale-sample detection: bit pattern of the last accepted sample and
  // the length of the current identical run.
  std::uint64_t last_sample_bits_ = 0;
  bool have_last_sample_ = false;
  int stale_run_ = 0;
  StateListener state_listener_;
  bool trace_recording_ = true;
  TimeSeries state_trace_;
  TimeSeries utilization_trace_;
};

}  // namespace limoncello

#endif  // LIMONCELLO_CORE_DAEMON_H_
