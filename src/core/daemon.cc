#include "core/daemon.h"

#include <cmath>
#include <cstring>

#include "util/check.h"

namespace limoncello {

namespace {

// Utilization is a fraction of the saturation threshold; sockets can
// burst past 1.0, but an order of magnitude beyond is telemetry garbage
// (matches FileUtilizationSource's accepted range).
constexpr double kMaxPlausibleUtilization = 10.0;

}  // namespace

const char* ReconcileStatusName(ReconcileStatus status) {
  switch (status) {
    case ReconcileStatus::kUnknown:
      return "unknown";
    case ReconcileStatus::kMatched:
      return "matched";
    case ReconcileStatus::kReasserted:
      return "reasserted";
    case ReconcileStatus::kRetryArmed:
      return "retry_armed";
  }
  return "invalid";
}

LimoncelloDaemon::LimoncelloDaemon(const ControllerConfig& config,
                                   UtilizationSource* telemetry,
                                   PrefetchActuator* actuator)
    : telemetry_(telemetry),
      actuator_(actuator),
      core_(config) {
  LIMONCELLO_CHECK(telemetry != nullptr);
  LIMONCELLO_CHECK(actuator != nullptr);
}

bool LimoncelloDaemon::DisablePrefetchers() {
  const bool ok = actuator_->DisablePrefetchers();
  if (ok && state_listener_) state_listener_(false);
  return ok;
}

bool LimoncelloDaemon::EnablePrefetchers() {
  const bool ok = actuator_->EnablePrefetchers();
  if (ok && state_listener_) state_listener_(true);
  return ok;
}

LimoncelloDaemon::Stats LimoncelloDaemon::stats() const {
  Stats stats;
  static_cast<EndpointController::Stats&>(stats) = core_.stats();
  static_cast<InputStats&>(stats) = input_stats_;
  return stats;
}

std::optional<double> LimoncelloDaemon::ValidateSample(
    std::optional<double> sample) {
  if (!sample.has_value()) {
    // A gap breaks a stale run: the detector targets a pipeline that
    // keeps returning the same reading every single tick.
    stale_run_ = 0;
    have_last_sample_ = false;
    return std::nullopt;
  }
  if (!std::isfinite(*sample) || *sample < 0.0 ||
      *sample > kMaxPlausibleUtilization) {
    ++input_stats_.invalid_samples;
    return std::nullopt;
  }
  // Frozen-exporter detection: real utilization telemetry always
  // jitters, so a long bit-identical run means the value is stale even
  // though it still parses. Compare bit patterns, not values, so e.g.
  // a legitimately saturated 1.0 plateau with real jitter still passes.
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(double));
  std::memcpy(&bits, &*sample, sizeof(bits));
  if (have_last_sample_ && bits == last_sample_bits_) {
    if (++stale_run_ >= config().max_stale_samples) {
      ++input_stats_.stale_samples;
      return std::nullopt;
    }
  } else {
    stale_run_ = 0;
    last_sample_bits_ = bits;
    have_last_sample_ = true;
  }
  return sample;
}

void LimoncelloDaemon::MaybeReadback() {
  if (config().readback_period_ticks <= 0) return;
  if (core_.retry_pending()) return;  // already known
  if (core_.stats().ticks %
          static_cast<std::uint64_t>(config().readback_period_ticks) !=
      0) {
    return;
  }
  const std::optional<bool> matches =
      actuator_->StateMatches(core_.intent_enabled());
  if (!matches.has_value() || *matches) return;
  // The hardware lost our state (most likely a reboot restored the BIOS
  // default): re-assert the intent.
  ++input_stats_.reboots_detected;
  if (core_.Reassert(*this)) ++input_stats_.state_reasserts;
}

LimoncelloDaemon::PersistentState LimoncelloDaemon::ExportState() const {
  const EndpointController::State core = core_.ExportState();
  PersistentState state;
  state.controller_state = core.controller_state;
  state.timer_ns = core.timer_ns;
  state.toggle_count = core.toggle_count;
  state.pending_retry = core.pending_retry;
  state.retry_delay_ticks = core.retry_delay_ticks;
  state.retry_wait_ticks = core.retry_wait_ticks;
  state.consecutive_missed = core.consecutive_missed;
  state.last_sample_bits = last_sample_bits_;
  state.have_last_sample = have_last_sample_;
  state.stale_run = stale_run_;
  state.stats = stats();
  return state;
}

bool LimoncelloDaemon::RestoreState(const PersistentState& state) {
  // stale_run keeps counting through a long freeze; only its sign is
  // constrained.
  if (state.stale_run < 0) return false;
  // The daemon never pins, so its intent is the FSM's opinion.
  EndpointController::State core;
  core.controller_state = state.controller_state;
  core.timer_ns = state.timer_ns;
  core.toggle_count = state.toggle_count;
  core.intent_enabled =
      state.controller_state == ControllerState::kEnabledSteady ||
      state.controller_state == ControllerState::kEnabledArming;
  core.pending_retry = state.pending_retry;
  core.retry_delay_ticks = state.retry_delay_ticks;
  core.retry_wait_ticks = state.retry_wait_ticks;
  core.consecutive_missed = state.consecutive_missed;
  core.stats = state.stats;
  if (!core_.RestoreState(core)) return false;
  last_sample_bits_ = state.last_sample_bits;
  have_last_sample_ = state.have_last_sample;
  stale_run_ = state.stale_run;
  input_stats_ = state.stats;
  if (state_listener_) state_listener_(core_.intent_enabled());
  return true;
}

ReconcileStatus LimoncelloDaemon::ReconcileHardwareState() {
  const std::optional<bool> matches =
      actuator_->StateMatches(core_.intent_enabled());
  if (!matches.has_value()) return ReconcileStatus::kUnknown;
  if (*matches) return ReconcileStatus::kMatched;
  ++input_stats_.recovery_reconciles;
  // A successful re-assert supersedes any restored pending retry.
  return core_.Reassert(*this) ? ReconcileStatus::kReasserted
                               : ReconcileStatus::kRetryArmed;
}

LimoncelloDaemon::TickRecord LimoncelloDaemon::RunTick(SimTimeNs now_ns) {
  TickRecord record;
  record.time_ns = now_ns;
  // Retry a previously failed actuation before anything else so the
  // hardware state converges to the intent.
  core_.BeginTick(*this);

  const std::optional<double> sample =
      ValidateSample(telemetry_->SampleUtilization());
  if (!sample.has_value()) {
    (void)core_.OnMissedTick(*this);
    record.sample_ok = false;
    record.state = core_.fsm().state();
    if (trace_recording_) {
      state_trace_.Add(now_ns, core_.intent_enabled() ? 1.0 : 0.0);
    }
    return record;
  }

  record.sample_ok = true;
  record.utilization = *sample;
  record.action = core_.OnSample(*sample, *this);
  record.state = core_.fsm().state();
  // A decision's actuation either succeeded or armed a retry.
  if (record.action != ControllerAction::kNone) {
    record.actuation_ok = !core_.retry_pending();
  }
  MaybeReadback();
  if (trace_recording_) {
    utilization_trace_.Add(now_ns, *sample);
    state_trace_.Add(now_ns, core_.intent_enabled() ? 1.0 : 0.0);
  }
  return record;
}

}  // namespace limoncello
