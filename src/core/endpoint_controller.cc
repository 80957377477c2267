#include "core/endpoint_controller.h"

#include <algorithm>

namespace limoncello {

namespace {

ControllerAction ActionFor(bool enable) {
  return enable ? ControllerAction::kEnablePrefetchers
                : ControllerAction::kDisablePrefetchers;
}

}  // namespace

EndpointController::EndpointController(const ControllerConfig& config)
    : fsm_(config) {}

bool EndpointController::Actuate(ControllerAction action,
                                 PrefetchActuator& actuator) {
  if (action == ControllerAction::kEnablePrefetchers) {
    ++stats_.enables;
    return actuator.EnablePrefetchers();
  }
  ++stats_.disables;
  return actuator.DisablePrefetchers();
}

void EndpointController::ArmRetry(ControllerAction action) {
  ++stats_.actuation_failures;
  pending_retry_ = action;
  retry_delay_ticks_ = 1;
  retry_wait_ticks_ = 0;  // first retry on the very next tick
}

bool EndpointController::Apply(ControllerAction action,
                               PrefetchActuator& actuator) {
  if (!Actuate(action, actuator)) {
    ArmRetry(action);
    return false;
  }
  // A fresh successful actuation supersedes any backed-off retry.
  ClearRetry();
  return true;
}

void EndpointController::ClearRetry() {
  pending_retry_ = ControllerAction::kNone;
  retry_delay_ticks_ = 1;
  retry_wait_ticks_ = 0;
}

void EndpointController::Commit(bool enable, PrefetchActuator& actuator) {
  if (intent_enabled_ == enable) return;  // held, or carried by the retry
  intent_enabled_ = enable;
  (void)Apply(ActionFor(enable), actuator);
}

void EndpointController::BeginTick(PrefetchActuator& actuator) {
  ++stats_.ticks;
  if (pending_retry_ == ControllerAction::kNone) return;
  if (retry_wait_ticks_ > 0) {
    --retry_wait_ticks_;
    ++stats_.retry_backoff_skips;
    return;
  }
  if (Actuate(pending_retry_, actuator)) {
    ClearRetry();
    return;
  }
  // Still failing: back off exponentially up to the cap so a persistent
  // fault does not turn every tick into an MSR write storm.
  ++stats_.actuation_failures;
  retry_delay_ticks_ =
      std::min(retry_delay_ticks_ * 2, fsm_.config().retry_backoff_cap_ticks);
  retry_wait_ticks_ = retry_delay_ticks_ - 1;
}

ControllerAction EndpointController::OnSample(double utilization,
                                              PrefetchActuator& actuator) {
  consecutive_missed_ = 0;
  failsafe_active_ = false;
  const ControllerAction action = fsm_.Tick(utilization);
  if (action != ControllerAction::kNone && !force_active_) {
    Commit(action == ControllerAction::kEnablePrefetchers, actuator);
  }
  return action;
}

bool EndpointController::OnMissedTick(PrefetchActuator& actuator) {
  ++stats_.missed_samples;
  if (++consecutive_missed_ < fsm_.config().max_missed_samples) return false;
  consecutive_missed_ = 0;
  if (force_active_) return false;
  // Fail safe: force the hardware default (prefetchers enabled).
  ++stats_.failsafe_resets;
  Commit(true, actuator);
  fsm_.Reset();
  failsafe_active_ = true;
  return true;
}

void EndpointController::Force(bool enable, PrefetchActuator& actuator) {
  force_active_ = true;
  force_enabled_ = enable;
  Commit(enable, actuator);
}

void EndpointController::ClearForce(PrefetchActuator& actuator) {
  force_active_ = false;
  Commit(fsm_.PrefetchersShouldBeEnabled(), actuator);
}

bool EndpointController::Reassert(PrefetchActuator& actuator) {
  return Apply(ActionFor(intent_enabled_), actuator);
}

EndpointController::State EndpointController::ExportState() const {
  State state;
  state.controller_state = fsm_.state();
  state.timer_ns = fsm_.timer_ns();
  state.toggle_count = fsm_.toggle_count();
  state.intent_enabled = intent_enabled_;
  state.force_active = force_active_;
  state.force_enabled = force_enabled_;
  state.pending_retry = pending_retry_;
  state.retry_delay_ticks = retry_delay_ticks_;
  state.retry_wait_ticks = retry_wait_ticks_;
  state.consecutive_missed = consecutive_missed_;
  state.stats = stats_;
  return state;
}

bool EndpointController::RestoreState(const State& state) {
  switch (state.pending_retry) {
    case ControllerAction::kNone:
    case ControllerAction::kDisablePrefetchers:
    case ControllerAction::kEnablePrefetchers:
      break;
    default:
      return false;  // decoded from disk; may be any bit pattern
  }
  if (state.retry_delay_ticks < 1 ||
      state.retry_delay_ticks > fsm_.config().retry_backoff_cap_ticks) {
    return false;
  }
  // The wait countdown is always armed below the current delay step.
  if (state.retry_wait_ticks < 0 ||
      state.retry_wait_ticks >= state.retry_delay_ticks) {
    return false;
  }
  // consecutive_missed resets the instant it reaches the trip point, so
  // a persisted value at or past it is impossible.
  if (state.consecutive_missed < 0 ||
      state.consecutive_missed >= fsm_.config().max_missed_samples) {
    return false;
  }
  // A pending retry always carries the intent's action (Commit relies on
  // it).
  if (state.pending_retry != ControllerAction::kNone &&
      state.pending_retry != ActionFor(state.intent_enabled)) {
    return false;
  }
  if (state.force_active && state.force_enabled != state.intent_enabled) {
    return false;
  }
  // The FSM last: its RestoreState mutates on success, so every other
  // field must already have been vetted.
  if (!fsm_.RestoreState(state.controller_state, state.timer_ns,
                         state.toggle_count)) {
    return false;
  }
  intent_enabled_ = state.intent_enabled;
  force_active_ = state.force_active;
  force_enabled_ = state.force_enabled;
  failsafe_active_ = false;
  pending_retry_ = state.pending_retry;
  retry_delay_ticks_ = state.retry_delay_ticks;
  retry_wait_ticks_ = state.retry_wait_ticks;
  consecutive_missed_ = state.consecutive_missed;
  stats_ = state.stats;
  ++stats_.warm_restores;
  return true;
}

}  // namespace limoncello
