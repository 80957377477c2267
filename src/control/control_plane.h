// Sharded fleet control plane: one daemon, many endpoints.
//
// One process ingests telemetry batches from N endpoints over a
// CRC-framed wire format and runs one EndpointController per endpoint
// (core/endpoint_controller.h, the per-endpoint core LimoncelloDaemon
// runs too), actuating each endpoint's prefetchers through a caller-
// supplied hook.
//
// Architecture (DESIGN.md §15):
//
//   producers ──► shard 0 [BoundedControlQueue]─► drain ─► FSMs ─► actuate
//   (transport)   shard 1 [BoundedControlQueue]─► drain ─► FSMs ─► actuate
//       ...          ...
//
//   * Draining is decoupled from the tick: DrainAll skips shards with
//     nothing queued, so an owner can drain after every transport poll
//     (limoncellod --listen does) and keep AdvanceTick on its clock.
//   * Endpoints are statically partitioned across shards by a
//     deterministic hash. A frame's shard is computed from a fixed-
//     offset peek at the endpoint id — no decode, no lock.
//   * The ingest path touches exactly one shard's queue mutex; there
//     are no cross-shard locks anywhere on the hot path. Shards drain
//     independently, so drains parallelize across a ThreadPool with no
//     shared mutable state.
//   * Everything a shard needs is preallocated at construction: the
//     queue rings and the endpoint table. The steady-state ingest + drain
//     path performs zero heap allocations (bench_control_plane --gate
//     audits this with an operator-new probe).
//
// Trust boundary: frames arrive as untrusted bytes. DecodeTelemetryBatch
// enforces framing, CRC, version, bounds, and sample plausibility;
// the plane then enforces per-endpoint sequence monotonicity, so
// duplicated, stale, reordered, or replayed frames are rejected and
// counted rather than double-applied. The transport may lose frames
// (and the queue may shed them); a tick in which an endpoint had no
// batch accepted is a missed tick for its controller, whose fail-safe
// turns prolonged silence into prefetchers forced back ON.
//
// Determinism: given the same frame sequence pushed per shard in the
// same order, drains produce bit-identical endpoint state and counters
// at any thread count — a shard's work depends only on its own queue.
// SnapshotStats merges per-shard counters in shard order.
#ifndef LIMONCELLO_CONTROL_CONTROL_PLANE_H_
#define LIMONCELLO_CONTROL_CONTROL_PLANE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "control/bounded_queue.h"
#include "control/telemetry_batch.h"
#include "core/controller_config.h"
#include "core/endpoint_controller.h"
#include "stats/saturating.h"
#include "util/mutex.h"

namespace limoncello {

// Everything a warm restart must carry across a control-plane process
// death, per endpoint. Plain data; src/recovery/ serializes it
// (EndpointStateJournal). Restored values are validated field by field,
// never trusted.
struct EndpointPersistentState {
  std::uint32_t endpoint_id = 0;
  ControllerState controller_state = ControllerState::kEnabledSteady;
  SimTimeNs timer_ns = 0;
  std::uint64_t toggle_count = 0;
  bool intent_enabled = true;   // prefetcher intent (committed decision)
  bool force_active = false;    // operator force pin
  bool force_enabled = true;    // pinned value when force_active
  std::uint64_t last_sequence = 0;
  bool have_sequence = false;
  std::uint64_t last_update_tick = 0;  // plane tick of last good batch

  bool operator==(const EndpointPersistentState&) const = default;
};

struct ControlPlaneOptions {
  int num_endpoints = 1;
  int num_shards = 4;
  ControllerConfig config;
  BoundedControlQueue::Options queue;
};

class ControlPlane {
 public:
  // Applies a prefetcher state to one endpoint; returns false on
  // actuation failure (the endpoint's controller arms its retry).
  // Called from drain/tick paths with the owning shard's lock held —
  // must not call back into the plane. Drains of different shards may
  // run concurrently (see DrainShard), so the function must be safe to
  // call from several threads at once.
  using ActuateFn =
      std::function<bool(std::uint32_t endpoint_id, bool enable)>;

  // Cumulative counters, all saturating. Snapshot is a per-shard merge
  // in shard order, so it is bit-identical at any drain thread count.
  struct Stats {
    // Ingest (queue admission, summed over shards).
    SatCounter frames_ingested;       // telemetry frames accepted
    SatCounter frames_shed;           // oldest-telemetry drops
    SatCounter frames_rejected;       // refused at the queue
    SatCounter commands_ingested;
    SatCounter command_overflows;
    SatCounter backpressure_signals;
    // Decode / validation (the trust boundary).
    SatCounter frames_decoded;        // framed + CRC + bounds clean
    SatCounter decode_failures;       // truncated/corrupt/foreign bytes
    SatCounter sequence_rejects;      // duplicate or stale frame replays
    SatCounter unknown_endpoints;     // valid frame, id out of range
    SatCounter samples_accepted;
    // Control decisions, summed over the endpoint controllers
    // (EndpointController::Stats).
    SatCounter disables;              // attempts, failed ones included
    SatCounter enables;               // attempts, failed ones included
    SatCounter actuation_failures;
    SatCounter retry_backoff_skips;   // ticks spent waiting to retry
    SatCounter stale_endpoint_failsafes;  // controller fail-safes
    SatCounter commands_applied;
    SatCounter warm_restores;         // endpoints adopted from a journal

    bool operator==(const Stats&) const = default;
  };

  ControlPlane(const ControlPlaneOptions& options, ActuateFn actuate);

  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  // --- Hot ingest path (producer side, any thread) -----------------

  // Routes a raw wire frame to its shard's queue. The frame is not
  // decoded here — a fixed-offset peek extracts the endpoint id for
  // routing; validation happens at drain, after any shedding.
  PushResult IngestFrame(const unsigned char* data, std::size_t size,
                         std::uint64_t enqueue_time_ns);

  // Routes an operator/actuation command (never shed in favor of
  // telemetry; see BoundedControlQueue's policy).
  PushResult SubmitCommand(const ControlCommand& command,
                           std::uint64_t enqueue_time_ns);

  // --- Drain (consumer side, one caller per shard at a time) -------

  // Drains one shard's queue to empty: decodes frames, applies
  // commands, feeds each accepted sample to its endpoint's controller.
  // `now_ns` is the drain time (not read yet; kept for per-stage
  // latency stamps). Returns the number of messages consumed. Safe to
  // call for different shards concurrently.
  int DrainShard(int shard, std::uint64_t now_ns);

  // Serial convenience: drains every shard that has had a push since its
  // last drain, in shard order. A shard with nothing queued costs one
  // atomic load and takes no lock, so an owner may call this after every
  // transport poll (limoncellod --listen does) as cheaply as once per
  // tick. Draining early changes no telemetry decision: a frame's
  // samples reach its controller in queue order under the same tick_
  // either way. (A command pops ahead of telemetry queued before it, so
  // its order relative to those frames does depend on the cadence.)
  int DrainAll(std::uint64_t now_ns);

  // Advances the plane's tick. For every endpoint it first closes the
  // current tick (no batch accepted in it is a missed tick for the
  // controller, whose fail-safe may fire and make the plane forget the
  // sequence watermark), then opens the next one (a due actuation
  // retry). Call once per tick period, after draining. Not concurrent
  // with drains: the control loop is drain phase → tick phase (drains
  // may parallelize across shards *within* the drain phase).
  void AdvanceTick();

  // --- Warm restart ------------------------------------------------

  // Snapshot of one endpoint / all endpoints (ascending id order).
  EndpointPersistentState ExportEndpoint(std::uint32_t endpoint_id);
  std::vector<EndpointPersistentState> ExportAllEndpoints();

  // Appends to `out` the records of endpoints whose committed state
  // changed since the last collection, in ascending id order, and
  // clears their dirty marks. The journaling cadence lives with the
  // caller (cold path) so file IO never rides the drain.
  void CollectDirtyEndpoints(std::vector<EndpointPersistentState>* out);

  // Adopts journal-recovered endpoint records. Each record is validated
  // (id in range, then EndpointController::RestoreState: FSM invariants,
  // force/intent consistency); invalid records are skipped — that
  // endpoint cold-starts. For every adopted record the restored intent
  // is re-asserted through the actuator: the journal holds decisions
  // distilled from telemetry history, so on disagreement the hardware
  // moves to match the journal, never vice versa (DESIGN.md §11).
  // Returns the number of records adopted.
  int RestoreEndpoints(const std::vector<EndpointPersistentState>& records);

  // --- Observation -------------------------------------------------

  Stats SnapshotStats();
  // Queue counters summed over shards (shard order).
  BoundedControlQueue::Counters SnapshotQueueCounters();

  bool EndpointIntentEnabled(std::uint32_t endpoint_id);
  ControllerState EndpointControllerState(std::uint32_t endpoint_id);
  bool EndpointInFailsafe(std::uint32_t endpoint_id);
  bool EndpointForced(std::uint32_t endpoint_id);

  int ShardOf(std::uint32_t endpoint_id) const;
  std::uint64_t tick() const { return tick_; }
  int num_endpoints() const { return options_.num_endpoints; }
  int num_shards() const { return options_.num_shards; }

 private:
  struct EndpointState {
    explicit EndpointState(const ControllerConfig& config)
        : controller(config) {}

    EndpointController controller;
    std::uint32_t endpoint_id = 0;
    // The plane's own input checks: the sequence watermark, and the
    // tick of the last accepted batch (construction and restore count
    // as heard, so a fresh endpoint gets a full window).
    std::uint64_t last_sequence = 0;
    bool have_sequence = false;
    std::uint64_t last_update_tick = 0;
    bool journal_dirty = false;
  };

  // One shard: a queue plus the endpoint states it owns. Shard state
  // is guarded by its own mutex; no path takes two shard locks.
  struct Shard {
    BoundedControlQueue queue;
    // Set after every accepted push, cleared by DrainShard before its
    // first pop: false means the queue has nothing DrainAll must drain.
    std::atomic<bool> pending{false};
    Mutex mu;
    std::vector<EndpointState> endpoints LIMONCELLO_GUARDED_BY(mu);
    // Ingest, decode and command counters; the controller counters live
    // in the endpoints' controllers.
    Stats stats LIMONCELLO_GUARDED_BY(mu);

    explicit Shard(const BoundedControlQueue::Options& queue_options)
        : queue(queue_options) {}
  };

  // Drain helpers; all require the shard's lock.
  void ApplyBatch(Shard& shard, const TelemetryBatch& batch)
      LIMONCELLO_REQUIRES(shard.mu);
  void ApplyCommand(Shard& shard, const ControlCommand& command)
      LIMONCELLO_REQUIRES(shard.mu);

  // endpoint_id must be < num_endpoints (checked).
  EndpointState& StateFor(Shard& shard, std::uint32_t endpoint_id)
      LIMONCELLO_REQUIRES(shard.mu);
  // A copy taken under the shard's lock, for the observation accessors.
  EndpointState CopyEndpoint(std::uint32_t endpoint_id);

  ControlPlaneOptions options_;
  ActuateFn actuate_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // endpoint id -> index into its shard's endpoint vector.
  std::vector<std::uint32_t> slot_of_;
  std::uint64_t tick_ = 0;
};

}  // namespace limoncello

#endif  // LIMONCELLO_CONTROL_CONTROL_PLANE_H_
