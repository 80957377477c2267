#include "control/control_plane.h"

#include <utility>

#include "util/check.h"
#include "util/wire.h"

namespace limoncello {

namespace {

// Deterministic endpoint -> shard hash (Fibonacci mix). Any fixed
// function works; mixing avoids pinning consecutive ids to one shard.
std::uint32_t MixEndpointId(std::uint32_t endpoint_id) {
  return static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(endpoint_id) * 0x9E3779B97F4A7C15ULL) >>
      33);
}

// The plane's actuation hook bound to one endpoint: the PrefetchActuator
// its controller drives. Built on the stack per call; never allocates.
class EndpointActuator final : public PrefetchActuator {
 public:
  EndpointActuator(const ControlPlane::ActuateFn& actuate,
                   std::uint32_t endpoint_id)
      : actuate_(actuate), endpoint_id_(endpoint_id) {}

  bool DisablePrefetchers() override { return actuate_(endpoint_id_, false); }
  bool EnablePrefetchers() override { return actuate_(endpoint_id_, true); }

 private:
  const ControlPlane::ActuateFn& actuate_;
  std::uint32_t endpoint_id_;
};

}  // namespace

ControlPlane::ControlPlane(const ControlPlaneOptions& options,
                           ActuateFn actuate)
    : options_(options), actuate_(std::move(actuate)) {
  LIMONCELLO_CHECK_GE(options_.num_endpoints, 1);
  LIMONCELLO_CHECK_GE(options_.num_shards, 1);
  LIMONCELLO_CHECK(options_.config.Valid());
  LIMONCELLO_CHECK(actuate_ != nullptr);
  shards_.reserve(static_cast<std::size_t>(options_.num_shards));
  for (int s = 0; s < options_.num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(options_.queue));
  }
  // Partition endpoints across shards once; every per-endpoint slot is
  // allocated here so the ingest/drain paths never grow a vector.
  slot_of_.resize(static_cast<std::size_t>(options_.num_endpoints));
  for (std::uint32_t id = 0;
       id < static_cast<std::uint32_t>(options_.num_endpoints); ++id) {
    Shard& shard = *shards_[static_cast<std::size_t>(ShardOf(id))];
    MutexLock lock(&shard.mu);
    slot_of_[id] = static_cast<std::uint32_t>(shard.endpoints.size());
    shard.endpoints.emplace_back(options_.config);
    shard.endpoints.back().endpoint_id = id;
  }
}

int ControlPlane::ShardOf(std::uint32_t endpoint_id) const {
  return static_cast<int>(MixEndpointId(endpoint_id) %
                          static_cast<std::uint32_t>(options_.num_shards));
}

// limolint:hot-path — producer side: one endpoint-id peek plus one
// queue push; no decode, no shard-state lock, no allocation.
PushResult ControlPlane::IngestFrame(const unsigned char* data,
                                     std::size_t size,
                                     std::uint64_t enqueue_time_ns) {
  // Route by a fixed-offset peek at the payload's endpoint id. A frame
  // too short to peek goes to shard 0, where decode rejects and counts
  // it; a corrupt id mis-routes a frame that decode will reject anyway
  // (the CRC protects the id, so a *valid* frame never mis-routes).
  std::uint32_t endpoint_id = 0;
  if (data != nullptr && size >= kTelemetryBatchHeaderBytes + 4) {
    endpoint_id = LoadU32(data + kTelemetryBatchHeaderBytes);
  }
  Shard& shard = *shards_[static_cast<std::size_t>(ShardOf(endpoint_id))];
  const PushResult result =
      shard.queue.PushTelemetry(data, size, enqueue_time_ns);
  if (result != PushResult::kRejected) {
    shard.pending.store(true, std::memory_order_release);
  }
  return result;
}

PushResult ControlPlane::SubmitCommand(const ControlCommand& command,
                                       std::uint64_t enqueue_time_ns) {
  Shard& shard =
      *shards_[static_cast<std::size_t>(ShardOf(command.endpoint_id))];
  const PushResult result = shard.queue.PushCommand(command, enqueue_time_ns);
  if (result != PushResult::kRejected) {
    shard.pending.store(true, std::memory_order_release);
  }
  return result;
}

ControlPlane::EndpointState& ControlPlane::StateFor(
    Shard& shard, std::uint32_t endpoint_id) {
  LIMONCELLO_DCHECK(endpoint_id <
                    static_cast<std::uint32_t>(options_.num_endpoints));
  return shard.endpoints[slot_of_[endpoint_id]];
}

void ControlPlane::ApplyBatch(Shard& shard, const TelemetryBatch& batch) {
  if (batch.endpoint_id >=
      static_cast<std::uint32_t>(options_.num_endpoints)) {
    ++shard.stats.unknown_endpoints;
    return;
  }
  EndpointState& endpoint = StateFor(shard, batch.endpoint_id);
  // At-most-once: a duplicate, stale, or reordered-behind frame carries
  // a sequence number the endpoint has already consumed. Rejecting it
  // here is what makes transport duplication/replay harmless.
  if (endpoint.have_sequence && batch.sequence <= endpoint.last_sequence) {
    ++shard.stats.sequence_rejects;
    return;
  }
  endpoint.last_sequence = batch.sequence;
  endpoint.have_sequence = true;
  endpoint.last_update_tick = tick_;
  EndpointActuator actuator(actuate_, batch.endpoint_id);
  for (std::uint32_t i = 0; i < batch.num_samples; ++i) {
    ++shard.stats.samples_accepted;
    if (endpoint.controller.OnSample(batch.utilization[i], actuator) !=
        ControllerAction::kNone) {
      endpoint.journal_dirty = true;
    }
  }
}

void ControlPlane::ApplyCommand(Shard& shard,
                                const ControlCommand& command) {
  if (command.endpoint_id >=
      static_cast<std::uint32_t>(options_.num_endpoints)) {
    ++shard.stats.unknown_endpoints;
    return;
  }
  EndpointState& endpoint = StateFor(shard, command.endpoint_id);
  EndpointActuator actuator(actuate_, command.endpoint_id);
  switch (command.kind) {
    case CommandKind::kForceEnable:
      endpoint.controller.Force(true, actuator);
      break;
    case CommandKind::kForceDisable:
      endpoint.controller.Force(false, actuator);
      break;
    case CommandKind::kClearForce:
      endpoint.controller.ClearForce(actuator);
      break;
  }
  ++shard.stats.commands_applied;
  endpoint.journal_dirty = true;
}

// limolint:hot-path — consumer side: pop, decode, FSM tick, actuate.
// Bounded stack scratch; zero heap allocation (gated by
// bench_control_plane --gate).
int ControlPlane::DrainShard(int shard_index, std::uint64_t /*now_ns*/) {
  LIMONCELLO_DCHECK(shard_index >= 0 &&
                    shard_index < options_.num_shards);
  Shard& shard = *shards_[static_cast<std::size_t>(shard_index)];
  // Cleared before the first pop, with acquire: a push that raced past
  // the clear either lands in this drain's pops or has set the flag
  // again for the next drain, so no queued message is ever stranded.
  (void)shard.pending.exchange(false, std::memory_order_acquire);
  ControlMessage message;
  TelemetryBatch batch;
  int consumed = 0;
  MutexLock lock(&shard.mu);  // limolint:allow(hot-path-blocking)
  while (shard.queue.Pop(&message)) {
    ++consumed;
    if (message.kind == ControlMessage::Kind::kCommand) {
      ApplyCommand(shard, message.command);
      continue;
    }
    const BatchDecodeStatus status = DecodeTelemetryBatch(
        message.frame.data(), message.frame_bytes, &batch);
    if (status != BatchDecodeStatus::kOk) {
      ++shard.stats.decode_failures;
      continue;
    }
    ++shard.stats.frames_decoded;
    ApplyBatch(shard, batch);
  }
  return consumed;
}

int ControlPlane::DrainAll(std::uint64_t now_ns) {
  int consumed = 0;
  for (int s = 0; s < options_.num_shards; ++s) {
    if (!shards_[static_cast<std::size_t>(s)]->pending.load(
            std::memory_order_acquire)) {
      continue;
    }
    consumed += DrainShard(s, now_ns);
  }
  return consumed;
}

void ControlPlane::AdvanceTick() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    MutexLock lock(&shard.mu);
    for (EndpointState& endpoint : shard.endpoints) {
      EndpointActuator actuator(actuate_, endpoint.endpoint_id);
      // Close tick_: no batch accepted in it is a missed tick.
      if (endpoint.last_update_tick != tick_ &&
          endpoint.controller.OnMissedTick(actuator)) {
        // The fail-safe fired. Forget the sequence watermark along with
        // the FSM: a silent endpoint that comes back is usually a
        // restarted exporter whose sequence numbers begin again at 1,
        // and holding the old watermark would reject every frame it ever
        // sends. Stale replays of the *previous* incarnation are already
        // absorbed — the fail-safe has reset the FSM to the state a
        // fresh stream would rebuild anyway.
        endpoint.have_sequence = false;
        endpoint.last_sequence = 0;
        endpoint.journal_dirty = true;
      }
      // Open the next tick: a due retry fires.
      endpoint.controller.BeginTick(actuator);
    }
  }
  ++tick_;
}

EndpointPersistentState ControlPlane::ExportEndpoint(
    std::uint32_t endpoint_id) {
  const EndpointState endpoint = CopyEndpoint(endpoint_id);
  const EndpointController::State state = endpoint.controller.ExportState();
  EndpointPersistentState record;
  record.endpoint_id = endpoint_id;
  record.controller_state = state.controller_state;
  record.timer_ns = state.timer_ns;
  record.toggle_count = state.toggle_count;
  record.intent_enabled = state.intent_enabled;
  record.force_active = state.force_active;
  record.force_enabled = state.force_enabled;
  record.last_sequence = endpoint.last_sequence;
  record.have_sequence = endpoint.have_sequence;
  record.last_update_tick = endpoint.last_update_tick;
  return record;
}

std::vector<EndpointPersistentState> ControlPlane::ExportAllEndpoints() {
  std::vector<EndpointPersistentState> records;
  records.reserve(static_cast<std::size_t>(options_.num_endpoints));
  for (std::uint32_t id = 0;
       id < static_cast<std::uint32_t>(options_.num_endpoints); ++id) {
    records.push_back(ExportEndpoint(id));
  }
  return records;
}

void ControlPlane::CollectDirtyEndpoints(
    std::vector<EndpointPersistentState>* out) {
  for (std::uint32_t id = 0;
       id < static_cast<std::uint32_t>(options_.num_endpoints); ++id) {
    Shard& shard = *shards_[static_cast<std::size_t>(ShardOf(id))];
    bool dirty = false;
    {
      MutexLock lock(&shard.mu);
      EndpointState& endpoint = StateFor(shard, id);
      dirty = endpoint.journal_dirty;
      endpoint.journal_dirty = false;
    }
    if (dirty) out->push_back(ExportEndpoint(id));
  }
}

int ControlPlane::RestoreEndpoints(
    const std::vector<EndpointPersistentState>& records) {
  int adopted = 0;
  for (const EndpointPersistentState& record : records) {
    if (record.endpoint_id >=
        static_cast<std::uint32_t>(options_.num_endpoints)) {
      continue;
    }
    Shard& shard =
        *shards_[static_cast<std::size_t>(ShardOf(record.endpoint_id))];
    MutexLock lock(&shard.mu);
    EndpointState& endpoint = StateFor(shard, record.endpoint_id);
    // The record carries the FSM, intent and pin; the retry state and
    // counters keep their live values. Restart resets the staleness
    // clock: the endpoint gets a full window to be heard from before the
    // fail-safe fires.
    EndpointController::State state = endpoint.controller.ExportState();
    state.controller_state = record.controller_state;
    state.timer_ns = record.timer_ns;
    state.toggle_count = record.toggle_count;
    state.intent_enabled = record.intent_enabled;
    state.force_active = record.force_active;
    state.force_enabled = record.force_enabled;
    state.consecutive_missed = 0;
    if (!endpoint.controller.RestoreState(state)) continue;
    endpoint.last_sequence = record.last_sequence;
    endpoint.have_sequence = record.have_sequence;
    endpoint.last_update_tick = tick_;
    ++adopted;
    // Journal intent wins over whatever the hardware drifted to while
    // the plane was down: re-assert unconditionally.
    EndpointActuator actuator(actuate_, record.endpoint_id);
    (void)endpoint.controller.Reassert(actuator);
  }
  return adopted;
}

ControlPlane::Stats ControlPlane::SnapshotStats() {
  Stats total;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    const BoundedControlQueue::Counters queue =
        shard.queue.SnapshotCounters();
    MutexLock lock(&shard.mu);
    total.frames_ingested += queue.telemetry_pushed.value();
    total.frames_shed += queue.telemetry_shed.value();
    total.frames_rejected += queue.telemetry_rejected.value();
    total.commands_ingested += queue.commands_pushed.value();
    total.command_overflows += queue.command_overflows.value();
    total.backpressure_signals += queue.backpressure_signals.value();
    const Stats& s = shard.stats;
    total.frames_decoded += s.frames_decoded.value();
    total.decode_failures += s.decode_failures.value();
    total.sequence_rejects += s.sequence_rejects.value();
    total.unknown_endpoints += s.unknown_endpoints.value();
    total.samples_accepted += s.samples_accepted.value();
    total.commands_applied += s.commands_applied.value();
    for (const EndpointState& endpoint : shard.endpoints) {
      const EndpointController::Stats& c = endpoint.controller.stats();
      total.disables += c.disables.value();
      total.enables += c.enables.value();
      total.actuation_failures += c.actuation_failures.value();
      total.retry_backoff_skips += c.retry_backoff_skips.value();
      total.stale_endpoint_failsafes += c.failsafe_resets.value();
      total.warm_restores += c.warm_restores.value();
    }
  }
  return total;
}

BoundedControlQueue::Counters ControlPlane::SnapshotQueueCounters() {
  BoundedControlQueue::Counters total;
  for (auto& shard_ptr : shards_) {
    const BoundedControlQueue::Counters c =
        shard_ptr->queue.SnapshotCounters();
    total.telemetry_pushed += c.telemetry_pushed.value();
    total.commands_pushed += c.commands_pushed.value();
    total.telemetry_shed += c.telemetry_shed.value();
    total.telemetry_rejected += c.telemetry_rejected.value();
    total.command_overflows += c.command_overflows.value();
    total.backpressure_signals += c.backpressure_signals.value();
    total.telemetry_popped += c.telemetry_popped.value();
    total.commands_popped += c.commands_popped.value();
  }
  return total;
}

ControlPlane::EndpointState ControlPlane::CopyEndpoint(
    std::uint32_t endpoint_id) {
  LIMONCELLO_CHECK(endpoint_id <
                   static_cast<std::uint32_t>(options_.num_endpoints));
  Shard& shard = *shards_[static_cast<std::size_t>(ShardOf(endpoint_id))];
  MutexLock lock(&shard.mu);
  return StateFor(shard, endpoint_id);
}

bool ControlPlane::EndpointIntentEnabled(std::uint32_t endpoint_id) {
  return CopyEndpoint(endpoint_id).controller.intent_enabled();
}

ControllerState ControlPlane::EndpointControllerState(
    std::uint32_t endpoint_id) {
  return CopyEndpoint(endpoint_id).controller.fsm().state();
}

bool ControlPlane::EndpointInFailsafe(std::uint32_t endpoint_id) {
  return CopyEndpoint(endpoint_id).controller.failsafe_active();
}

bool ControlPlane::EndpointForced(std::uint32_t endpoint_id) {
  return CopyEndpoint(endpoint_id).controller.forced();
}

}  // namespace limoncello
