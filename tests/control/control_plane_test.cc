// ControlPlane semantics: routing, sequence rejection, staleness
// fail-safe, actuation retry, force commands, warm restart, the
// bit-identical-across-thread-counts drain contract, and drain cadence
// (DrainAll's pending flags, per-tick vs per-message drains).
#include "control/control_plane.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <tuple>
#include <vector>

#include "control/telemetry_batch.h"
#include "core/hysteresis_controller.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace limoncello {
namespace {

// Tick-scaled config: one sample == one plane tick == 1 ms; two sustained
// samples beyond a threshold toggle the FSM. Keeps tests short.
ControllerConfig FastConfig() {
  ControllerConfig config;
  config.tick_period_ns = 1'000'000;
  config.sustain_duration_ns = 2'000'000;
  config.max_missed_samples = 5;
  config.retry_backoff_cap_ticks = 8;
  return config;
}

ControlPlaneOptions SmallPlane(int endpoints, int shards = 4) {
  ControlPlaneOptions options;
  options.num_endpoints = endpoints;
  options.num_shards = shards;
  options.config = FastConfig();
  return options;
}

// Records every actuation; programmable to fail per endpoint. Drains of
// different shards may run concurrently and each calls the hook, so the
// hook serializes on `mu`; tests read the fields only between drains.
struct FakeFleet {
  struct Call {
    std::uint32_t endpoint_id;
    bool enable;
  };
  Mutex mu;
  std::vector<Call> calls;
  std::vector<bool> enabled;
  std::vector<bool> faulty;

  explicit FakeFleet(int endpoints)
      : enabled(static_cast<std::size_t>(endpoints), true),
        faulty(static_cast<std::size_t>(endpoints), false) {}

  ControlPlane::ActuateFn Hook() {
    return [this](std::uint32_t id, bool enable) {
      MutexLock lock(&mu);
      calls.push_back({id, enable});
      if (faulty[id]) return false;
      enabled[id] = enable;
      return true;
    };
  }
};

// Sends one batch of identical samples and drains it.
PushResult SendBatch(ControlPlane& plane, std::uint32_t endpoint_id,
                     std::uint64_t sequence, double utilization,
                     std::uint32_t num_samples = 1,
                     std::uint64_t enqueue_ns = 0) {
  TelemetryBatch batch;
  batch.endpoint_id = endpoint_id;
  batch.sequence = sequence;
  batch.num_samples = num_samples;
  for (std::uint32_t i = 0; i < num_samples; ++i) {
    batch.utilization[i] = utilization;
  }
  unsigned char frame[kMaxTelemetryFrameBytes];
  const std::size_t size = EncodeTelemetryBatch(batch, frame);
  return plane.IngestFrame(frame, size, enqueue_ns);
}

TEST(ControlPlaneTest, HighUtilizationDisablesLowReenables) {
  FakeFleet fleet(1);
  ControlPlane plane(SmallPlane(1), fleet.Hook());
  ASSERT_TRUE(plane.EndpointIntentEnabled(0));

  // sustain = 2 ticks: 3 high samples arm + fire the disable.
  SendBatch(plane, 0, 1, 0.95, 3);
  plane.DrainAll(0);
  EXPECT_FALSE(plane.EndpointIntentEnabled(0));
  EXPECT_FALSE(fleet.enabled[0]);
  EXPECT_EQ(plane.SnapshotStats().disables, 1u);

  SendBatch(plane, 0, 2, 0.30, 3);
  plane.DrainAll(0);
  EXPECT_TRUE(plane.EndpointIntentEnabled(0));
  EXPECT_TRUE(fleet.enabled[0]);
  EXPECT_EQ(plane.SnapshotStats().enables, 1u);
}

TEST(ControlPlaneTest, EndpointsAreIndependent) {
  FakeFleet fleet(16);
  ControlPlane plane(SmallPlane(16), fleet.Hook());
  // Only endpoint 5 sees high utilization.
  for (std::uint32_t e = 0; e < 16; ++e) {
    SendBatch(plane, e, 1, e == 5 ? 0.95 : 0.40, 3);
  }
  plane.DrainAll(0);
  for (std::uint32_t e = 0; e < 16; ++e) {
    EXPECT_EQ(plane.EndpointIntentEnabled(e), e != 5) << e;
  }
}

TEST(ControlPlaneTest, SequenceRegressionsRejected) {
  FakeFleet fleet(1);
  ControlPlane plane(SmallPlane(1), fleet.Hook());
  EXPECT_EQ(SendBatch(plane, 0, 5, 0.5), PushResult::kOk);
  plane.DrainAll(0);
  ASSERT_EQ(plane.SnapshotStats().samples_accepted, 1u);

  // Duplicate (same sequence) and stale (lower sequence) replays are
  // dropped at the plane, not double-applied.
  SendBatch(plane, 0, 5, 0.5);
  SendBatch(plane, 0, 3, 0.5);
  plane.DrainAll(0);
  EXPECT_EQ(plane.SnapshotStats().samples_accepted, 1u);
  EXPECT_EQ(plane.SnapshotStats().sequence_rejects, 2u);

  // Progress resumes on the next fresh sequence; gaps are fine (frames
  // may legitimately be lost in transport).
  SendBatch(plane, 0, 9, 0.5);
  plane.DrainAll(0);
  EXPECT_EQ(plane.SnapshotStats().samples_accepted, 2u);
}

TEST(ControlPlaneTest, GarbageAndForeignFramesCounted) {
  FakeFleet fleet(2);
  ControlPlane plane(SmallPlane(2), fleet.Hook());
  unsigned char junk[32] = {0xDE, 0xAD};
  plane.IngestFrame(junk, sizeof(junk), 0);
  // Valid frame for an endpoint this plane does not manage.
  SendBatch(plane, 77, 1, 0.5);
  plane.DrainAll(0);
  const ControlPlane::Stats stats = plane.SnapshotStats();
  EXPECT_EQ(stats.decode_failures, 1u);
  EXPECT_EQ(stats.unknown_endpoints, 1u);
  EXPECT_EQ(stats.samples_accepted, 0u);
}

TEST(ControlPlaneTest, StaleEndpointFailsSafeToPrefetchersOn) {
  FakeFleet fleet(1);
  ControlPlane plane(SmallPlane(1), fleet.Hook());
  // Drive the endpoint into the disabled state...
  SendBatch(plane, 0, 1, 0.95, 3);
  plane.DrainAll(0);
  plane.AdvanceTick();
  ASSERT_FALSE(plane.EndpointIntentEnabled(0));

  // ...then go silent past max_missed_samples ticks: the fail-safe
  // forces prefetchers back ON and resets the FSM.
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(plane.EndpointInFailsafe(0)) << i;
    plane.AdvanceTick();
  }
  EXPECT_TRUE(plane.EndpointInFailsafe(0));
  EXPECT_TRUE(plane.EndpointIntentEnabled(0));
  EXPECT_TRUE(fleet.enabled[0]);
  EXPECT_EQ(plane.EndpointControllerState(0),
            ControllerState::kEnabledSteady);
  EXPECT_EQ(plane.SnapshotStats().stale_endpoint_failsafes, 1u);

  // Telemetry resuming clears the fail-safe.
  SendBatch(plane, 0, 2, 0.40);
  plane.DrainAll(0);
  EXPECT_FALSE(plane.EndpointInFailsafe(0));
}

TEST(ControlPlaneTest, StalenessFailsafeForgetsSequenceWatermark) {
  // A restarted exporter process numbers its frames from 1 again. Until
  // the staleness window expires, those frames look like replays of
  // long-consumed sequences and are rejected; the fail-safe must reset
  // the watermark along with the FSM or the endpoint is rejected
  // forever — reconvergence would be unbounded.
  FakeFleet fleet(1);
  ControlPlane plane(SmallPlane(1), fleet.Hook());
  SendBatch(plane, 0, 900, 0.5);
  plane.DrainAll(0);
  ASSERT_EQ(plane.SnapshotStats().samples_accepted, 1u);

  // The exporter dies and restarts: its fresh stream is rejected while
  // the plane still holds the old watermark...
  SendBatch(plane, 0, 1, 0.5);
  plane.DrainAll(0);
  EXPECT_EQ(plane.SnapshotStats().sequence_rejects, 1u);
  EXPECT_EQ(plane.SnapshotStats().samples_accepted, 1u);

  // ...and rejected frames do not count as liveness, so the staleness
  // sweep fires within max_missed_samples ticks and forgets the
  // watermark.
  for (int i = 0; i < 6; ++i) {
    SendBatch(plane, 0, static_cast<std::uint64_t>(2 + i), 0.5);
    plane.DrainAll(0);
    plane.AdvanceTick();
  }
  EXPECT_EQ(plane.SnapshotStats().stale_endpoint_failsafes, 1u);

  // The restarted stream is now adopted: its next frame is accepted and
  // clears the fail-safe. Bounded reconvergence.
  SendBatch(plane, 0, 10, 0.5);
  plane.DrainAll(0);
  EXPECT_FALSE(plane.EndpointInFailsafe(0));
  EXPECT_GE(plane.SnapshotStats().samples_accepted, 2u);
}

TEST(ControlPlaneTest, ActuationFailureRetriesWithCappedBackoff) {
  FakeFleet fleet(1);
  fleet.faulty[0] = true;
  ControlPlane plane(SmallPlane(1), fleet.Hook());
  SendBatch(plane, 0, 1, 0.95, 3);
  plane.DrainAll(0);
  // Intent committed, hardware unchanged.
  EXPECT_FALSE(plane.EndpointIntentEnabled(0));
  EXPECT_TRUE(fleet.enabled[0]);
  ASSERT_EQ(plane.SnapshotStats().actuation_failures, 1u);
  const std::size_t calls_after_first = fleet.calls.size();

  // Backoff doubles per failed retry: waits of 1, 2, 4... ticks. Feed
  // fresh telemetry each tick so the staleness fail-safe stays out of
  // the picture (utilization mid-band: no new FSM action).
  std::uint64_t sequence = 2;
  auto run_ticks = [&](int n) {
    for (int i = 0; i < n; ++i) {
      SendBatch(plane, 0, sequence++, 0.70);
      plane.DrainAll(0);
      plane.AdvanceTick();
    }
  };
  run_ticks(1);  // wait 1 -> retry #1 fires (fails)
  EXPECT_EQ(fleet.calls.size(), calls_after_first + 1);
  run_ticks(2);  // wait 2 -> retry #2
  EXPECT_EQ(fleet.calls.size(), calls_after_first + 2);
  run_ticks(4);  // wait 4 -> retry #3
  EXPECT_EQ(fleet.calls.size(), calls_after_first + 3);

  // Repair the actuator: the next retry lands the disable.
  fleet.faulty[0] = false;
  run_ticks(8);
  EXPECT_FALSE(fleet.enabled[0]);
  EXPECT_GE(plane.SnapshotStats().retry_backoff_skips, 1u);
}

TEST(ControlPlaneTest, ForceCommandsPinAndRelease) {
  FakeFleet fleet(1);
  ControlPlane plane(SmallPlane(1), fleet.Hook());
  ControlCommand force;
  force.endpoint_id = 0;
  force.kind = CommandKind::kForceDisable;
  plane.SubmitCommand(force, 0);
  plane.DrainAll(0);
  EXPECT_TRUE(plane.EndpointForced(0));
  EXPECT_FALSE(plane.EndpointIntentEnabled(0));
  EXPECT_FALSE(fleet.enabled[0]);

  // Telemetry keeps ticking the FSM but cannot actuate a pinned
  // endpoint: low utilization would re-enable, the pin holds.
  SendBatch(plane, 0, 1, 0.30, 3);
  plane.DrainAll(0);
  EXPECT_FALSE(fleet.enabled[0]);
  EXPECT_FALSE(plane.EndpointIntentEnabled(0));

  // A pinned endpoint is exempt from the staleness fail-safe: the
  // operator's decision is not starved of data, it overrides data.
  for (int i = 0; i < 10; ++i) plane.AdvanceTick();
  EXPECT_FALSE(plane.EndpointInFailsafe(0));
  EXPECT_FALSE(fleet.enabled[0]);

  // kClearForce hands control back to the FSM (which, having seen low
  // utilization, wants prefetchers on).
  force.kind = CommandKind::kClearForce;
  plane.SubmitCommand(force, 0);
  plane.DrainAll(0);
  EXPECT_FALSE(plane.EndpointForced(0));
  EXPECT_TRUE(plane.EndpointIntentEnabled(0));
  EXPECT_TRUE(fleet.enabled[0]);
  EXPECT_EQ(plane.SnapshotStats().commands_applied, 2u);
}

TEST(ControlPlaneTest, ShardingIsDeterministicAndInRange) {
  ControlPlaneOptions options = SmallPlane(1000, 8);
  FakeFleet fleet(1000);
  ControlPlane plane(options, fleet.Hook());
  ControlPlane plane2(options, fleet.Hook());
  std::vector<int> per_shard(8, 0);
  for (std::uint32_t e = 0; e < 1000; ++e) {
    const int shard = plane.ShardOf(e);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 8);
    EXPECT_EQ(shard, plane2.ShardOf(e));
    ++per_shard[static_cast<std::size_t>(shard)];
  }
  // The multiplicative hash spreads endpoints roughly evenly: no shard
  // is empty or holds more than a third of the fleet.
  for (int shard = 0; shard < 8; ++shard) {
    EXPECT_GT(per_shard[static_cast<std::size_t>(shard)], 0) << shard;
    EXPECT_LT(per_shard[static_cast<std::size_t>(shard)], 334) << shard;
  }
}

TEST(ControlPlaneTest, DrainsAreBitIdenticalAcrossThreadCounts) {
  // Same frame stream, serial canonical pushes; drain with 1 vs 4
  // threads; every counter and every endpoint's final state must match.
  auto run = [](int threads) {
    FakeFleet fleet(64);
    ControlPlane plane(SmallPlane(64, 8), fleet.Hook());
    ThreadPool pool(threads);
    std::uint64_t sequence = 1;
    for (int round = 0; round < 50; ++round) {
      for (std::uint32_t e = 0; e < 64; ++e) {
        const double util = ((round + e) % 7 < 3) ? 0.95 : 0.30;
        SendBatch(plane, e, sequence, util, 2);
      }
      ++sequence;
      pool.ParallelFor(0, plane.num_shards(), [&plane](std::int64_t shard) {
        plane.DrainShard(static_cast<int>(shard), 0);
      });
      plane.AdvanceTick();
    }
    struct Outcome {
      ControlPlane::Stats stats;
      std::vector<EndpointPersistentState> states;
    };
    return Outcome{plane.SnapshotStats(), plane.ExportAllEndpoints()};
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  EXPECT_TRUE(serial.stats == parallel.stats);
  EXPECT_TRUE(serial.states == parallel.states);
  EXPECT_GT(serial.stats.disables.value(), 0u);
}

TEST(ControlPlaneTest, WarmRestartRestoresAndReassertsIntent) {
  FakeFleet fleet(8);
  std::vector<EndpointPersistentState> journal;
  {
    ControlPlane plane(SmallPlane(8), fleet.Hook());
    SendBatch(plane, 3, 1, 0.95, 3);  // endpoint 3 -> disabled
    ControlCommand force;
    force.endpoint_id = 6;
    force.kind = CommandKind::kForceDisable;
    plane.SubmitCommand(force, 0);
    plane.DrainAll(0);
    journal = plane.ExportAllEndpoints();
  }
  ASSERT_EQ(journal.size(), 8u);
  EXPECT_FALSE(journal[3].intent_enabled);
  EXPECT_TRUE(journal[6].force_active);

  // Hardware rebooted to BIOS default (all on) while the plane was down.
  fleet.enabled.assign(8, true);
  fleet.calls.clear();
  ControlPlane plane(SmallPlane(8), fleet.Hook());
  EXPECT_EQ(plane.RestoreEndpoints(journal), 8);
  // The journal's intent wins over the hardware: 3 and 6 re-disabled.
  EXPECT_FALSE(fleet.enabled[3]);
  EXPECT_FALSE(fleet.enabled[6]);
  EXPECT_TRUE(fleet.enabled[0]);
  EXPECT_FALSE(plane.EndpointIntentEnabled(3));
  EXPECT_TRUE(plane.EndpointForced(6));
  EXPECT_EQ(plane.SnapshotStats().warm_restores, 8u);
  // Sequence tracking survives: the pre-crash sequence is still rejected.
  SendBatch(plane, 3, 1, 0.40);
  plane.DrainAll(0);
  EXPECT_EQ(plane.SnapshotStats().sequence_rejects, 1u);
}

TEST(ControlPlaneTest, CorruptJournalRecordsColdStartTheirEndpoint) {
  FakeFleet fleet(4);
  ControlPlane plane(SmallPlane(4), fleet.Hook());
  std::vector<EndpointPersistentState> journal(3);
  journal[0].endpoint_id = 1;
  journal[0].intent_enabled = false;
  journal[1].endpoint_id = 99;  // out of range
  journal[2].endpoint_id = 2;   // inconsistent force pin
  journal[2].force_active = true;
  journal[2].force_enabled = true;
  journal[2].intent_enabled = false;
  EXPECT_EQ(plane.RestoreEndpoints(journal), 1);
  EXPECT_FALSE(plane.EndpointIntentEnabled(1));
  EXPECT_TRUE(plane.EndpointIntentEnabled(2));   // cold start
  EXPECT_FALSE(plane.EndpointForced(2));
}

TEST(ControlPlaneTest, CollectDirtyEndpointsTracksCommittedChanges) {
  FakeFleet fleet(8);
  ControlPlane plane(SmallPlane(8), fleet.Hook());
  std::vector<EndpointPersistentState> dirty;
  plane.CollectDirtyEndpoints(&dirty);
  EXPECT_TRUE(dirty.empty());

  SendBatch(plane, 2, 1, 0.95, 3);  // toggles endpoint 2
  SendBatch(plane, 5, 1, 0.40, 3);  // no toggle, but sequence moved
  plane.DrainAll(0);
  plane.CollectDirtyEndpoints(&dirty);
  ASSERT_FALSE(dirty.empty());
  bool saw2 = false;
  for (const EndpointPersistentState& s : dirty) {
    if (s.endpoint_id == 2) {
      saw2 = true;
      EXPECT_FALSE(s.intent_enabled);
    }
  }
  EXPECT_TRUE(saw2);

  // Marks are cleared by collection.
  dirty.clear();
  plane.CollectDirtyEndpoints(&dirty);
  EXPECT_TRUE(dirty.empty());
}

// The single-endpoint plane must make exactly the decisions a bare
// HysteresisController makes on the same sample stream — the
// contract behind `limoncellod --endpoints=1` staying bit-identical
// to the pre-control-plane daemon path.
TEST(ControlPlaneTest, SingleEndpointMatchesBareController) {
  const ControllerConfig config = FastConfig();
  FakeFleet fleet(1);
  ControlPlane plane(SmallPlane(1), fleet.Hook());
  HysteresisController reference(config);

  std::uint64_t sequence = 1;
  Rng rng(11);
  for (int tick = 0; tick < 400; ++tick) {
    const double util = rng.NextDouble();
    reference.Tick(util);
    SendBatch(plane, 0, sequence++, util);
    plane.DrainAll(0);
    plane.AdvanceTick();
    ASSERT_EQ(plane.EndpointControllerState(0), reference.state()) << tick;
    ASSERT_EQ(plane.EndpointIntentEnabled(0),
              reference.PrefetchersShouldBeEnabled())
        << tick;
  }
  const EndpointPersistentState exported = plane.ExportEndpoint(0);
  EXPECT_EQ(exported.toggle_count, reference.toggle_count());
  EXPECT_EQ(exported.timer_ns, reference.timer_ns());
}

// The pending-flag handshake under contention. A producer pushes one
// frame at a time and waits for the drainer, which calls DrainAll in a
// loop, to pop it before pushing the next, so every push races the end
// of the drain that popped its predecessor. A push that lands after a
// drain's last pop must leave its shard flagged for the next DrainAll;
// if the flag could be cleared after that push, the frame would sit in
// the queue with nothing left to flag it, and the producer would wait
// out its deadline.
TEST(ControlPlaneTest, DrainAllStrandsNoConcurrentPush) {
  constexpr int kFrames = 20000;
  FakeFleet fleet(1);
  ControlPlane plane(SmallPlane(1, 1), fleet.Hook());
  std::atomic<bool> done{false};
  int stranded_at = -1;
  ThreadPool pool(2);
  pool.ParallelFor(0, 2, [&](std::int64_t task) {
    if (task == 1) {
      while (!done.load()) {
        if (plane.DrainAll(0) == 0) ::sched_yield();
      }
      return;
    }
    for (int i = 0; i < kFrames && stranded_at < 0; ++i) {
      SendBatch(plane, 0, static_cast<std::uint64_t>(i + 1), 0.70);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (plane.SnapshotQueueCounters().telemetry_popped.value() <=
             static_cast<std::uint64_t>(i)) {
        if (std::chrono::steady_clock::now() > deadline) {
          stranded_at = i;
          break;
        }
        ::sched_yield();  // one core may be running both tasks
      }
    }
    done.store(true);
  });
  EXPECT_EQ(stranded_at, -1) << "frame " << stranded_at << " was stranded";
  EXPECT_EQ(plane.SnapshotStats().samples_accepted.value(),
            static_cast<std::uint64_t>(kFrames));
}

// limoncellod --listen drains after every transport poll rather than
// once per tick. One recorded message sequence is fed to two planes:
// plane A queues each tick's messages and drains once, plane B drains
// after every message; both advance the tick at the same points. The
// sequence has crossings both ways, duplicate and stale frames, an
// actuator outage that makes retries fire, an endpoint whose silence
// trips the fail-safe, and force commands. Every shard stays below its
// backpressure watermark, so nothing is shed and the queue counters
// match too. Only the global actuation order may differ (shard order vs
// arrival order); each endpoint's own sequence may not.
TEST(ControlPlaneTest, DrainCadenceDoesNotChangeDecisions) {
  constexpr int kEndpoints = 16;
  constexpr int kTicks = 48;
  constexpr std::uint32_t kFlaky = 3;    // actuator down for ticks 6-13
  constexpr std::uint32_t kSilent = 0;   // no telemetry for ticks 14-23
  constexpr std::uint32_t kPinned = 9;   // forced off for ticks 20-29

  struct Message {
    bool command = false;
    ControlCommand cmd;
    TelemetryBatch batch;
  };
  // The recording: per tick, the messages in arrival order. A command is
  // the first message of its tick: the queue pops commands ahead of
  // telemetry, so one queued behind frames would reach its endpoint
  // before them under a per-tick drain and after them under a per-frame
  // drain.
  std::vector<std::vector<Message>> ticks(kTicks);
  Rng rng(26);
  std::vector<std::uint64_t> sequence(kEndpoints, 0);
  for (int t = 0; t < kTicks; ++t) {
    std::vector<Message>& out = ticks[static_cast<std::size_t>(t)];
    if (t == 20 || t == 30) {
      Message m;
      m.command = true;
      m.cmd.endpoint_id = kPinned;
      m.cmd.kind =
          t == 20 ? CommandKind::kForceDisable : CommandKind::kClearForce;
      out.push_back(m);
    }
    for (int round = 0; round < 2; ++round) {
      for (std::uint32_t e = 0; e < kEndpoints; ++e) {
        if (e == kSilent && t >= 14 && t < 24) continue;
        if (round == 1 && rng.NextBounded(3) != 0) continue;
        // Five-tick phases alternate above the upper threshold and
        // below the lower one, offset per endpoint. kSilent goes quiet
        // in a high phase, so its fail-safe has prefetchers to re-enable.
        const bool high = ((t + 3 * static_cast<int>(e)) / 5) % 2 == 0;
        Message m;
        m.batch.endpoint_id = e;
        m.batch.sequence = ++sequence[e];
        m.batch.num_samples = 1 + static_cast<std::uint32_t>(
                                      rng.NextBounded(3));
        for (std::uint32_t i = 0; i < m.batch.num_samples; ++i) {
          m.batch.utilization[i] =
              high ? rng.NextDouble(0.85, 0.99) : rng.NextDouble(0.1, 0.5);
        }
        out.push_back(m);
        // A duplicate of this frame, and a stale replay of an earlier one.
        if (rng.NextBounded(8) == 0) out.push_back(m);
        if (m.batch.sequence > 2 && rng.NextBounded(8) == 0) {
          Message stale = m;
          stale.batch.sequence -= 2;
          out.push_back(stale);
        }
      }
    }
  }

  struct Outcome {
    // Per endpoint: (tick, enable, succeeded) for every actuator call.
    std::vector<std::vector<std::tuple<int, bool, bool>>> actuations;
    ControlPlane::Stats stats;
    BoundedControlQueue::Counters queue;
    std::vector<EndpointPersistentState> states;
  };
  auto run = [&ticks](bool drain_per_message) {
    Outcome outcome;
    outcome.actuations.resize(kEndpoints);
    int tick = 0;
    ControlPlane plane(
        SmallPlane(kEndpoints, 4),
        [&outcome, &tick](std::uint32_t id, bool enable) {
          const bool ok = !(id == kFlaky && tick >= 6 && tick < 14);
          outcome.actuations[id].emplace_back(tick, enable, ok);
          return ok;
        });
    unsigned char frame[kMaxTelemetryFrameBytes];
    for (tick = 0; tick < kTicks; ++tick) {
      for (const Message& m : ticks[static_cast<std::size_t>(tick)]) {
        const PushResult pushed =
            m.command ? plane.SubmitCommand(m.cmd, 0)
                      : plane.IngestFrame(
                            frame, EncodeTelemetryBatch(m.batch, frame), 0);
        EXPECT_EQ(pushed, PushResult::kOk);
        if (drain_per_message) plane.DrainAll(0);
      }
      plane.DrainAll(0);
      plane.AdvanceTick();
    }
    outcome.stats = plane.SnapshotStats();
    outcome.queue = plane.SnapshotQueueCounters();
    outcome.states = plane.ExportAllEndpoints();
    return outcome;
  };

  const Outcome per_tick = run(false);
  const Outcome per_message = run(true);
  for (std::uint32_t e = 0; e < kEndpoints; ++e) {
    EXPECT_EQ(per_tick.actuations[e], per_message.actuations[e]) << e;
  }
  EXPECT_TRUE(per_tick.stats == per_message.stats);
  EXPECT_TRUE(per_tick.queue == per_message.queue);
  EXPECT_TRUE(per_tick.states == per_message.states);

  // The recording exercised every path it claims to.
  const ControlPlane::Stats& s = per_tick.stats;
  EXPECT_GT(s.disables.value(), 0u);
  EXPECT_GT(s.enables.value(), 0u);
  EXPECT_GT(s.sequence_rejects.value(), 0u);
  EXPECT_GT(s.actuation_failures.value(), 1u);  // the first try, then retries
  EXPECT_GT(s.retry_backoff_skips.value(), 0u);
  EXPECT_GT(s.stale_endpoint_failsafes.value(), 0u);
  bool failsafe_enable = false;
  for (const auto& [tick, enable, ok] : per_tick.actuations[kSilent]) {
    failsafe_enable |= tick >= 14 && tick < 24 && enable;
  }
  EXPECT_TRUE(failsafe_enable);
  EXPECT_EQ(s.commands_applied.value(), 2u);
  EXPECT_EQ(s.frames_shed.value(), 0u);
  EXPECT_EQ(s.backpressure_signals.value(), 0u);
}

}  // namespace
}  // namespace limoncello
