// Socket transport end to end, in process: SocketListener + ControlPlane
// on one side, ExporterClient on the other, real UNIX/TCP sockets in
// between — plus the FlakyProxy torturing the wire. These tests drive
// the exact objects the limoncellod/limoncello-exporter binaries run;
// only the process boundary is folded away.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "control/control_plane.h"
#include "transport/exporter_client.h"
#include "transport/flaky_proxy.h"
#include "transport/socket_addr.h"
#include "transport/socket_listener.h"

namespace limoncello {
namespace {

// Unique-enough UNIX socket path per test (sockaddr_un is short; keep
// it under /tmp, not the build tree).
SocketAddress UnixAddress(const char* tag) {
  static int counter = 0;
  char path[96];
  std::snprintf(path, sizeof(path), "/tmp/limoncello_test_%d_%s_%d.sock",
                static_cast<int>(::getpid()), tag, counter++);
  SocketAddress address;
  address.kind = SocketAddress::Kind::kUnix;
  address.path = path;
  return address;
}

ControlPlaneOptions SmallPlane(int endpoints) {
  ControlPlaneOptions options;
  options.num_endpoints = endpoints;
  options.num_shards = 2;
  options.config.tick_period_ns = 1'000'000;
  options.config.sustain_duration_ns = 2'000'000;
  options.config.max_missed_samples = 5;
  return options;
}

ExporterClient::Options ClientOptions(const SocketAddress& address,
                                      std::uint32_t endpoint_id) {
  ExporterClient::Options options;
  options.address = address;
  options.endpoint.endpoint_id = endpoint_id;
  options.endpoint.samples_per_batch = 1;  // a frame per Step
  options.tick_period_ms = 0;
  return options;
}

// One plane + listener pair wired the way RunListen wires them, and
// turned the way it turns them: every poll is followed by a drain, so a
// frame reaches its FSM in the turn that reads it; the tick is separate.
struct PlaneUnderTest {
  explicit PlaneUnderTest(const SocketAddress& address, int endpoints) {
    SocketListener::Options lo;
    lo.address = address;
    listener = std::make_unique<SocketListener>(lo);
    plane = std::make_unique<ControlPlane>(
        SmallPlane(endpoints),
        [this](std::uint32_t id, bool enable) {
          return listener->SendActuation(id, enable);
        });
    listener->BindPlane(plane.get());
  }

  // One control-loop turn: socket events, then a drain, then (when
  // asked) a tick.
  void Turn(std::uint64_t now_ns, bool tick = false) {
    listener->PollOnce(0, now_ns);
    plane->DrainAll(now_ns);
    if (tick) plane->AdvanceTick();
  }

  std::unique_ptr<SocketListener> listener;
  std::unique_ptr<ControlPlane> plane;
};

TEST(SocketTransportTest, TelemetryFlowsAndIntentIsReasserted) {
  const SocketAddress address = UnixAddress("flow");
  PlaneUnderTest pt(address, 2);
  ASSERT_TRUE(pt.listener->Start());

  ExporterClient client(ClientOptions(address, 0));
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(client.Step()) << i;
    pt.Turn(static_cast<std::uint64_t>(i));
  }

  const ControlPlane::Stats stats = pt.plane->SnapshotStats();
  EXPECT_GE(stats.frames_decoded, 20u);
  EXPECT_EQ(stats.decode_failures, 0u);
  EXPECT_GE(stats.samples_accepted, 20u);

  const SocketListener::Stats wire = pt.listener->SnapshotStats();
  EXPECT_EQ(wire.accepts, 1u);
  EXPECT_GE(wire.frames_ingested, 20u);
  EXPECT_EQ(wire.corrupt_frames, 0u);
  // The first CRC-valid frame bound the route and re-asserted the
  // plane's intent down the fresh connection; the client applied it.
  EXPECT_GE(wire.reroutes, 1u);
  EXPECT_GE(wire.intent_reasserts, 1u);
  EXPECT_GE(client.stats().actuations_applied, 1u);
}

TEST(SocketTransportTest, TcpLoopbackWithAutoAssignedPort) {
  SocketAddress address;
  address.kind = SocketAddress::Kind::kTcp;
  address.host = "127.0.0.1";
  address.port = 0;  // kernel assigns
  PlaneUnderTest pt(address, 1);
  ASSERT_TRUE(pt.listener->Start());
  ASSERT_GT(pt.listener->bound_port(), 0);

  SocketAddress dial = address;
  dial.port = pt.listener->bound_port();
  ExporterClient client(ClientOptions(dial, 0));
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(client.Step()) << i;
    pt.Turn(static_cast<std::uint64_t>(i));
  }
  EXPECT_GE(pt.plane->SnapshotStats().samples_accepted, 8u);
}

TEST(SocketTransportTest, RestartedExporterIsHealedWithinStalenessWindow) {
  const SocketAddress address = UnixAddress("restart");
  PlaneUnderTest pt(address, 1);
  ASSERT_TRUE(pt.listener->Start());

  // First exporter incarnation advances the sequence watermark.
  auto client = std::make_unique<ExporterClient>(ClientOptions(address, 0));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client->Step());
    pt.Turn(static_cast<std::uint64_t>(i));
  }
  const std::uint64_t accepted_before =
      pt.plane->SnapshotStats().samples_accepted;
  ASSERT_GE(accepted_before, 5u);

  // Kill it (destructor closes the socket like _exit would)...
  client.reset();
  pt.Turn(100);
  EXPECT_EQ(pt.listener->SnapshotStats().disconnects, 1u);

  // ...and restart: the new process numbers frames from 1 again, so the
  // plane rejects the stream until the staleness sweep forgets the old
  // watermark — bounded by max_missed_samples ticks, after which the
  // fresh stream is adopted and telemetry progresses again.
  ExporterClient reborn(ClientOptions(address, 0));
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(reborn.Step());
    pt.Turn(static_cast<std::uint64_t>(200 + i), /*tick=*/true);
  }
  const ControlPlane::Stats stats = pt.plane->SnapshotStats();
  EXPECT_GT(stats.sequence_rejects, 0u);          // the rejection phase
  EXPECT_GE(stats.stale_endpoint_failsafes, 1u);  // the forgetting
  EXPECT_GT(stats.samples_accepted, accepted_before);  // the healing
  EXPECT_FALSE(pt.plane->EndpointInFailsafe(0));

  const SocketListener::Stats wire = pt.listener->SnapshotStats();
  EXPECT_GE(wire.reroutes, 2u);          // route rebound to the new fd
  EXPECT_GE(wire.intent_reasserts, 2u);  // intent pushed to it again
  EXPECT_GE(reborn.stats().actuations_applied, 1u);
}

TEST(SocketTransportTest, ChaosProxyOnTheWireIsSurvived) {
  const SocketAddress plane_address = UnixAddress("chaosup");
  const SocketAddress proxy_address = UnixAddress("chaosdn");
  PlaneUnderTest pt(plane_address, 1);
  ASSERT_TRUE(pt.listener->Start());

  FlakyProxy::Options po;
  po.listen_address = proxy_address;
  po.upstream_address = plane_address;
  po.seed = 99;
  po.spec.transport_drop_rate = 0.08;
  po.spec.transport_reorder_rate = 0.05;
  po.spec.transport_duplicate_rate = 0.05;
  po.spec.transport_truncate_rate = 0.10;
  po.spec.transport_stale_rate = 0.05;
  FlakyProxy proxy(po);
  ASSERT_TRUE(proxy.Start());

  ExporterClient client(ClientOptions(proxy_address, 0));
  for (int i = 0; i < 300; ++i) {
    client.Step();
    proxy.PollOnce(0);
    pt.Turn(static_cast<std::uint64_t>(i), /*tick=*/(i % 10 == 9));
  }

  const FlakyProxy::Stats chaos = proxy.SnapshotStats();
  EXPECT_GT(chaos.frames_forwarded, 100u);
  EXPECT_GT(chaos.frames_truncated, 0u);
  EXPECT_GT(chaos.frames_dropped, 0u);

  // Truncated frames tore the upstream stream mid-frame; the listener's
  // byte-scan resync absorbed every tear and the CRC gate let only
  // intact frames through — the plane never saw a malformed byte.
  const SocketListener::Stats wire = pt.listener->SnapshotStats();
  EXPECT_GT(wire.resync_bytes, 0u);
  const ControlPlane::Stats stats = pt.plane->SnapshotStats();
  EXPECT_EQ(stats.decode_failures, 0u);
  EXPECT_GT(stats.samples_accepted, 50u);
  // Duplicates and stale re-deliveries surfaced as sequence rejects,
  // not double-applied samples.
  EXPECT_GT(stats.sequence_rejects, 0u);
}

}  // namespace
}  // namespace limoncello
