// One endpoint's Hard Limoncello control loop (paper §3, Fig. 8), shared
// by every driver: the single-socket LimoncelloDaemon (and with it every
// fleet MachineModel and `limoncellod --mode=real`) and each endpoint of
// the sharded ControlPlane (`limoncellod --listen`).
//
// The controller turns accepted utilization samples into prefetcher
// decisions through the hysteresis FSM and drives them onto the hardware
// through the PrefetchActuator the driver passes to each call. It owns
// everything past input validation:
//   * The committed intent. Every change of intent actuates at once; a
//     decision that repeats the intent never does. While no retry is
//     pending the hardware holds the intent. After a failed actuation
//     its state is unknown, and the pending retry, which always carries
//     the intent's action, heals it (a partly applied MSR write too); a
//     repeated decision, fail-safes included, leaves its backoff running.
//   * Capped-exponential actuation retry: the first retry on the next
//     tick, then the delay doubles up to retry_backoff_cap_ticks. A
//     success clears the whole retry state (delay and wait), so every
//     state the controller exports is one RestoreState accepts.
//   * The missed-tick fail-safe: max_missed_samples consecutive ticks
//     without an accepted sample force prefetchers back ON (the hardware
//     default) and reset the FSM, again every max_missed_samples ticks
//     while the silence lasts.
//   * The operator force pin. It owns the intent while set (the FSM keeps
//     tracking utilization underneath) and a pinned endpoint never fails
//     safe: the pin is a decision, not a decision starved of data.
//   * Export of all of the above, and restore with field-by-field
//     validation.
//
// Drivers keep the checks on their own inputs (the daemon validates
// samples and reads the MSRs back; the plane enforces sequence
// monotonicity and applies force commands). One tick is BeginTick, then
// any number of OnSample calls, then OnMissedTick if none was accepted.
// Every method is allocation-free. Not synchronized: a driver calls one
// controller from one thread at a time (the plane under the owning
// shard's lock).
#ifndef LIMONCELLO_CORE_ENDPOINT_CONTROLLER_H_
#define LIMONCELLO_CORE_ENDPOINT_CONTROLLER_H_

#include <cstdint>

#include "core/actuator.h"
#include "core/controller_config.h"
#include "core/hysteresis_controller.h"
#include "stats/saturating.h"

namespace limoncello {

class EndpointController {
 public:
  // Counters saturate at 2^64-1 instead of silently wrapping: a pinned
  // max value in a fleet dashboard is a visible anomaly, a wrapped small
  // value is a plausible lie (stats/saturating.h).
  struct Stats {
    SatCounter ticks;               // BeginTick calls
    SatCounter missed_samples;      // ticks closed without a sample
    SatCounter failsafe_resets;
    SatCounter actuation_failures;
    SatCounter retry_backoff_skips;  // ticks spent waiting to retry
    SatCounter disables;             // attempts, failed ones included
    SatCounter enables;              // attempts, failed ones included
    SatCounter warm_restores;        // snapshots adopted by RestoreState

    bool operator==(const Stats&) const = default;
  };

  // Everything a warm restart can carry. Plain data; each journal format
  // persists the part its driver needs (src/recovery/).
  struct State {
    ControllerState controller_state = ControllerState::kEnabledSteady;
    SimTimeNs timer_ns = 0;
    std::uint64_t toggle_count = 0;
    bool intent_enabled = true;
    bool force_active = false;
    bool force_enabled = true;  // pinned value when force_active
    ControllerAction pending_retry = ControllerAction::kNone;
    int retry_delay_ticks = 1;
    int retry_wait_ticks = 0;
    int consecutive_missed = 0;
    Stats stats;

    bool operator==(const State&) const = default;
  };

  explicit EndpointController(const ControllerConfig& config);

  // Opens a tick: counts it and runs the pending retry, either one step
  // of its backoff countdown or a new attempt.
  void BeginTick(PrefetchActuator& actuator);

  // One accepted sample: ticks the FSM and, unless pinned, commits and
  // actuates the decision. Returns the FSM's action.
  ControllerAction OnSample(double utilization, PrefetchActuator& actuator);

  // Closes a tick in which no sample was accepted. Returns true when the
  // fail-safe fired.
  bool OnMissedTick(PrefetchActuator& actuator);

  // Operator pin, and its release back to the FSM's current opinion.
  void Force(bool enable, PrefetchActuator& actuator);
  void ClearForce(PrefetchActuator& actuator);

  // Sends the committed intent whatever the hardware is believed to
  // hold: the driver found it wrong (readback) or cannot know (restart).
  // A failure arms the retry. Returns whether the actuation succeeded.
  bool Reassert(PrefetchActuator& actuator);

  State ExportState() const;

  // Adopts a snapshot. Every field is validated against the config's
  // invariants (enum ranges, backoff <= cap, counters below their trip
  // points, a retry and a pin that carry the intent); on any violation
  // nothing changes and false is returned, so a corrupt journal degrades
  // to a cold start, never to a controller running impossible state.
  bool RestoreState(const State& state);

  const HysteresisController& fsm() const { return fsm_; }
  const Stats& stats() const { return stats_; }
  bool intent_enabled() const { return intent_enabled_; }
  bool forced() const { return force_active_; }
  // The fail-safe fired and no sample has been accepted since.
  bool failsafe_active() const { return failsafe_active_; }
  bool retry_pending() const {
    return pending_retry_ != ControllerAction::kNone;
  }

 private:
  // Sets the intent and actuates it when it changes.
  void Commit(bool enable, PrefetchActuator& actuator);
  // One actuation; on failure arms the retry.
  bool Apply(ControllerAction action, PrefetchActuator& actuator);
  // Sends an enable or a disable (never kNone) and counts the attempt.
  bool Actuate(ControllerAction action, PrefetchActuator& actuator);
  // Records a fresh actuation failure and arms the first retry.
  void ArmRetry(ControllerAction action);
  // No retry pending, backoff back at its first step.
  void ClearRetry();

  HysteresisController fsm_;  // holds the config too
  Stats stats_;
  bool intent_enabled_ = true;
  bool force_active_ = false;
  bool force_enabled_ = true;
  bool failsafe_active_ = false;
  int consecutive_missed_ = 0;
  // Pending actuation that previously failed and must be retried.
  ControllerAction pending_retry_ = ControllerAction::kNone;
  int retry_delay_ticks_ = 1;  // current backoff step
  int retry_wait_ticks_ = 0;   // ticks left before the next attempt
};

}  // namespace limoncello

#endif  // LIMONCELLO_CORE_ENDPOINT_CONTROLLER_H_
