// Control-plane ingest throughput and CI gate
// (BENCH_control.json).
//
// Sweep mode (default): pre-encodes a deterministic telemetry workload
// (SimulatedEndpoint fleet, parallel encode), then times the full ingest
// path — multi-producer pushes into the sharded BoundedControlQueues,
// parallel per-shard drains through decode, FSM tick, and actuation — at
// a sweep of thread counts. Reports samples/sec and frames/sec, plus
// a chaos-transport reconvergence arm (EXPERIMENTS.md table), and emits
// BENCH_control.json so the numbers can be tracked across PRs.
//
// Gate mode (--gate, registered as the bench_control_gate ctest): fails
// the build when
//   - drains at different thread counts diverge in ANY counter or in any
//     endpoint's final persistent state (the plane promises bit-identical
//     results: pushes are serial canonical-order, drains parallelize per
//     shard, so shed/ingest counters must not depend on thread count),
//   - the steady-state push+drain loop allocates (>= 0.01 heap
//     allocations per frame, counted by the operator-new probe below), or
//   - serial ingest throughput falls below the 1M samples/sec floor the
//     design doc commits to (DESIGN.md §15).
//
// Gate mode additionally crosses the process boundary (PR: socket
// transport): a forked blaster child streams the same pre-encoded
// workload over a real UNIX socket into a SocketListener-fed plane
// (ingest + alloc floors must hold there too), and a kill -9 storm
// spawns the limoncellod / limoncello-exporter / limoncello-flakyproxy
// trio, SIGKILLs every role at least once, and requires the restarted
// plane to report full reconvergence and leave a replayable journal.
//
//   bench_control_plane [--endpoints=N] [--ticks=N] [--threads=1,2,4]
//                       [--json=BENCH_control.json] [--gate]
//                       [--daemon=PATH --exporter=PATH --flakyproxy=PATH]
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <new>
#include <string>
#include <vector>

#include "control/control_plane.h"
#include "control/endpoint_sim.h"
#include "control/telemetry_batch.h"
#include "core/controller_config.h"
#include "faults/fault_plan.h"
#include "faults/transport_chaos.h"
#include "recovery/state_journal.h"
#include "transport/socket_addr.h"
#include "transport/socket_listener.h"
#include "util/flags.h"
#include "util/posix_io.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"

// ---------------------------------------------------------------------------
// Global allocation probe (same shape as bench_fleet_engine's): every
// operator new in this binary funnels through CountedAlloc, so the gate
// can assert that the steady-state push+drain loop performs ~zero heap
// allocations per frame. The aligned forms are overridden too.

namespace {

std::atomic<std::uint64_t> g_heap_allocs{0};
std::atomic<bool> g_count_allocs{false};

void CountAlloc() {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

void* CountedAlloc(std::size_t size) {
  CountAlloc();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) std::abort();
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  CountAlloc();
  const std::size_t padded = (size + align - 1) / align * align;
  void* p = std::aligned_alloc(align, padded == 0 ? align : padded);
  if (p == nullptr) std::abort();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace limoncello::bench {
namespace {

// DESIGN.md §15's ingest throughput commitment (samples/sec, serial).
constexpr double kGateSamplesPerSecFloor = 1.0e6;
// Steady-state allocation budget: the push+drain loop must not touch
// the heap; the budget only absorbs measurement jitter.
constexpr double kGateAllocsPerFrame = 0.01;

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Workload: the full frame stream of a SimulatedEndpoint fleet,
// pre-encoded so the timed region measures ingest, not generation.
// Frames are stored in canonical order (round-major, endpoint-minor);
// every run replays the identical byte stream.

struct Workload {
  int endpoints = 0;
  int samples_per_batch = 0;
  int rounds = 0;  // ticks / samples_per_batch
  std::uint64_t total_samples = 0;
  // frame (round, endpoint) lives at offsets[round * endpoints + e].
  std::vector<unsigned char> bytes;
  std::vector<std::size_t> offsets;
  std::vector<std::uint32_t> sizes;

  const unsigned char* FrameData(int round, int endpoint) const {
    return bytes.data() + offsets[static_cast<std::size_t>(round) *
                                      static_cast<std::size_t>(endpoints) +
                                  static_cast<std::size_t>(endpoint)];
  }
  std::uint32_t FrameSize(int round, int endpoint) const {
    return sizes[static_cast<std::size_t>(round) *
                     static_cast<std::size_t>(endpoints) +
                 static_cast<std::size_t>(endpoint)];
  }
};

Workload GenerateWorkload(int endpoints, int ticks, int samples_per_batch,
                          int threads) {
  Workload w;
  w.endpoints = endpoints;
  w.samples_per_batch = samples_per_batch;
  w.rounds = ticks / samples_per_batch;
  const std::size_t frames =
      static_cast<std::size_t>(w.rounds) * static_cast<std::size_t>(endpoints);
  w.bytes.resize(frames * kMaxTelemetryFrameBytes);
  w.offsets.resize(frames);
  w.sizes.resize(frames);
  for (std::size_t i = 0; i < frames; ++i) {
    w.offsets[i] = i * kMaxTelemetryFrameBytes;
  }

  // Parallel encode: each endpoint's stream is an independent function
  // of its forked Rng, so lanes share nothing.
  const Rng root(42);
  ThreadPool pool(ResolveThreadCount(threads));
  pool.ParallelFor(0, endpoints, [&](std::int64_t e) {
    SimulatedEndpoint::Options eo;
    eo.endpoint_id = static_cast<std::uint32_t>(e);
    eo.samples_per_batch = samples_per_batch;
    SimulatedEndpoint endpoint(eo, root.Fork(static_cast<std::uint64_t>(e)));
    int round = 0;
    for (int tick = 0; tick < w.rounds * samples_per_batch; ++tick) {
      const std::size_t slot =
          static_cast<std::size_t>(round) *
              static_cast<std::size_t>(w.endpoints) +
          static_cast<std::size_t>(e);
      const std::size_t size = endpoint.Tick(&w.bytes[w.offsets[slot]]);
      if (size > 0) {
        w.sizes[slot] = static_cast<std::uint32_t>(size);
        ++round;
      }
    }
  });
  w.total_samples = static_cast<std::uint64_t>(w.rounds) *
                    static_cast<std::uint64_t>(endpoints) *
                    static_cast<std::uint64_t>(samples_per_batch);
  return w;
}

ControlPlaneOptions PlaneOptions(int endpoints, int shards, int capacity) {
  ControlPlaneOptions options;
  options.num_endpoints = endpoints;
  options.num_shards = shards;
  options.queue.capacity = capacity;
  options.config.tick_period_ns = 1'000'000;  // 1 ms plane tick
  return options;
}

// ---------------------------------------------------------------------------
// One timed ingest run: replays the workload through a fresh plane.
// Pushes are serial in canonical order (so counters are comparable
// across thread counts); drains parallelize per shard on `threads`
// lanes every `drain_every` rounds. With parallel_push, pushes fan out
// across endpoint lanes instead (the MPSC demonstration arm — counters
// still race-free, but shed choices may vary with interleaving).

struct RunResult {
  int threads = 1;
  double seconds = 0.0;
  double samples_per_sec = 0.0;
  double frames_per_sec = 0.0;
  ControlPlane::Stats stats;
  BoundedControlQueue::Counters queue;
  std::vector<EndpointPersistentState> final_states;
};

RunResult RunIngest(const Workload& w, const ControlPlaneOptions& options,
                    int threads, int drain_every, bool parallel_push) {
  std::vector<std::uint8_t> hardware(
      static_cast<std::size_t>(options.num_endpoints), 1);
  ControlPlane plane(options, [&hardware](std::uint32_t id, bool enable) {
    hardware[id] = enable ? 1 : 0;
    return true;
  });
  ThreadPool pool(threads);
  const int shards = plane.num_shards();

  RunResult r;
  r.threads = threads;
  const std::uint64_t start = NowNs();
  for (int round = 0; round < w.rounds; ++round) {
    if (parallel_push) {
      pool.ParallelFor(0, w.endpoints, [&](std::int64_t e) {
        plane.IngestFrame(w.FrameData(round, static_cast<int>(e)),
                          w.FrameSize(round, static_cast<int>(e)), NowNs());
      });
    } else {
      for (int e = 0; e < w.endpoints; ++e) {
        plane.IngestFrame(w.FrameData(round, e), w.FrameSize(round, e),
                          NowNs());
      }
    }
    if ((round + 1) % drain_every == 0 || round + 1 == w.rounds) {
      pool.ParallelFor(0, shards, [&](std::int64_t shard) {
        plane.DrainShard(static_cast<int>(shard), NowNs());
      });
      plane.AdvanceTick();
    }
  }
  const std::uint64_t stop = NowNs();

  r.seconds = static_cast<double>(stop - start) * 1e-9;
  r.stats = plane.SnapshotStats();
  r.queue = plane.SnapshotQueueCounters();
  r.final_states = plane.ExportAllEndpoints();
  if (r.seconds > 0.0) {
    r.samples_per_sec =
        static_cast<double>(r.stats.samples_accepted.value()) / r.seconds;
    r.frames_per_sec =
        static_cast<double>(r.stats.frames_ingested.value()) / r.seconds;
  }
  return r;
}

bool SameOutcome(const RunResult& a, const RunResult& b) {
  return a.stats == b.stats && a.queue == b.queue &&
         a.final_states == b.final_states;
}

// Allocations per frame across a serial push+drain replay, counted after
// a one-round warmup (construction, ring building, and the first drain's
// lazily-grown scratch excluded — steady state is the claim).
double MeasureIngestAllocs(const Workload& w,
                           const ControlPlaneOptions& options) {
  std::vector<std::uint8_t> hardware(
      static_cast<std::size_t>(options.num_endpoints), 1);
  ControlPlane plane(options, [&hardware](std::uint32_t id, bool enable) {
    hardware[id] = enable ? 1 : 0;
    return true;
  });
  // Warmup round.
  for (int e = 0; e < w.endpoints; ++e) {
    plane.IngestFrame(w.FrameData(0, e), w.FrameSize(0, e), NowNs());
  }
  plane.DrainAll(NowNs());
  plane.AdvanceTick();

  g_heap_allocs.store(0);
  g_count_allocs.store(true);
  std::uint64_t frames = 0;
  for (int round = 1; round < w.rounds; ++round) {
    for (int e = 0; e < w.endpoints; ++e) {
      plane.IngestFrame(w.FrameData(round, e), w.FrameSize(round, e),
                        NowNs());
      ++frames;
    }
    plane.DrainAll(NowNs());
    plane.AdvanceTick();
  }
  g_count_allocs.store(false);
  const std::uint64_t allocs = g_heap_allocs.load();
  return frames > 0 ? static_cast<double>(allocs) /
                          static_cast<double>(frames)
                    : static_cast<double>(allocs);
}

// ---------------------------------------------------------------------------
// Chaos reconvergence arm: replays a fleet through per-endpoint
// ChaosTransports with aggressive fault rates for the first
// `chaos_ticks`, then clean transport, and measures how long the plane
// takes to shake off the damage — the EXPERIMENTS.md table row.

struct ChaosResult {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t reordered = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t truncated = 0;
  std::uint64_t staled = 0;
  std::uint64_t decode_failures = 0;
  std::uint64_t sequence_rejects = 0;
  std::uint64_t failsafes = 0;
  // Ticks after the chaos window until the last endpoint delivered a
  // clean accepted batch (plane fully reconverged; -1 = never).
  int reconvergence_ticks = -1;
  int endpoints_reconverged = 0;
  int endpoints = 0;
};

ChaosResult RunChaos(int endpoints, int ticks, int chaos_ticks,
                     int samples_per_batch) {
  ChaosResult result;
  result.endpoints = endpoints;

  ControlPlaneOptions options = PlaneOptions(endpoints,
                                             std::min(endpoints, 8), 1024);
  // Staleness must budget for batch cadence: a batch lands every
  // samples_per_batch plane ticks, so the threshold sits past one whole
  // missed batch — a single dropped frame recovers on the next batch,
  // two consecutive losses trip the fail-safe.
  options.config.max_missed_samples = 2 * samples_per_batch;
  const Rng root(42);
  std::vector<std::unique_ptr<SimulatedEndpoint>> fleet;
  for (int e = 0; e < endpoints; ++e) {
    SimulatedEndpoint::Options eo;
    eo.endpoint_id = static_cast<std::uint32_t>(e);
    eo.samples_per_batch = samples_per_batch;
    fleet.push_back(std::make_unique<SimulatedEndpoint>(
        eo, root.Fork(static_cast<std::uint64_t>(e))));
  }
  ControlPlane plane(options, [&fleet](std::uint32_t id, bool enable) {
    return fleet[id]->Actuate(enable);
  });

  // Aggressive chaos window: ~1 in 4 frames is faulted somehow.
  FaultSpec spec;
  spec.transport_drop_rate = 0.08;
  spec.transport_reorder_rate = 0.05;
  spec.transport_duplicate_rate = 0.04;
  spec.transport_truncate_rate = 0.05;
  spec.transport_stale_rate = 0.03;
  const int chaos_frames = chaos_ticks / samples_per_batch;
  const Rng chaos_root(7);
  std::vector<FaultPlan> plans;
  std::vector<std::unique_ptr<ChaosTransport>> wires;
  for (int e = 0; e < endpoints; ++e) {
    plans.push_back(FaultPlan::Generate(
        spec, chaos_frames, chaos_root.Fork(static_cast<std::uint64_t>(e))));
  }
  std::uint64_t now_ns = 0;
  for (int e = 0; e < endpoints; ++e) {
    wires.push_back(std::make_unique<ChaosTransport>(
        &plans[static_cast<std::size_t>(e)],
        [&plane, &now_ns](const unsigned char* data, std::size_t size) {
          plane.IngestFrame(data, size, now_ns);
        }));
  }

  std::vector<int> reconverged_at(static_cast<std::size_t>(endpoints), -1);
  unsigned char frame[kMaxTelemetryFrameBytes];
  for (int tick = 0; tick < ticks; ++tick) {
    now_ns = static_cast<std::uint64_t>(tick) * 1'000'000ULL;
    for (int e = 0; e < endpoints; ++e) {
      const std::size_t size = fleet[static_cast<std::size_t>(e)]->Tick(frame);
      if (size > 0) {
        wires[static_cast<std::size_t>(e)]->Send(frame, size);
      }
    }
    if (tick == chaos_ticks - 1) {
      for (auto& wire : wires) wire->Flush();  // release parked frames
    }
    const std::uint64_t accepted_before =
        plane.SnapshotStats().samples_accepted.value();
    plane.DrainAll(now_ns);
    plane.AdvanceTick();
    // Post-window bookkeeping: an endpoint has reconverged once a clean
    // batch of its telemetry lands (samples accepted and it is out of
    // fail-safe).
    if (tick >= chaos_ticks &&
        plane.SnapshotStats().samples_accepted.value() > accepted_before) {
      for (int e = 0; e < endpoints; ++e) {
        if (reconverged_at[static_cast<std::size_t>(e)] < 0 &&
            !plane.EndpointInFailsafe(static_cast<std::uint32_t>(e))) {
          reconverged_at[static_cast<std::size_t>(e)] = tick - chaos_ticks;
        }
      }
    }
  }

  for (const auto& wire : wires) {
    const ChaosTransport::Stats& ws = wire->stats();
    result.frames_sent += ws.sent.value();
    result.frames_delivered += ws.delivered.value();
    result.dropped += ws.dropped.value();
    result.reordered += ws.reordered.value();
    result.duplicated += ws.duplicated.value();
    result.truncated += ws.truncated.value();
    result.staled += ws.staled.value();
  }
  const ControlPlane::Stats stats = plane.SnapshotStats();
  result.decode_failures = stats.decode_failures.value();
  result.sequence_rejects = stats.sequence_rejects.value();
  result.failsafes = stats.stale_endpoint_failsafes.value();
  for (int e = 0; e < endpoints; ++e) {
    const int at = reconverged_at[static_cast<std::size_t>(e)];
    if (at >= 0) {
      ++result.endpoints_reconverged;
      result.reconvergence_ticks = std::max(result.reconvergence_ticks, at);
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Multi-process arms (gate only). Everything above exercises the plane
// in process; these two put the PR's actual deliverable — the socket
// transport — under the same floors.

// Socket-floor arm: a forked child connects to a real UNIX socket and
// blasts the pre-encoded workload; the parent runs the production
// wiring (SocketListener + ControlPlane, actuation routed back through
// the listener) and must sustain the ingest floor and the allocation
// budget with the frames arriving as an arbitrarily-split byte stream
// instead of in-process function calls.
struct SocketFloorResult {
  bool completed = false;
  double samples_per_sec = 0.0;
  double allocs_per_frame = 0.0;
  std::uint64_t frames_over_socket = 0;
};

SocketFloorResult RunSocketFloor(const Workload& w) {
  SocketFloorResult result;
  char path[64];
  std::snprintf(path, sizeof(path), "/tmp/limoncello_gate_%d.sock",
                static_cast<int>(::getpid()));
  SocketAddress address;
  address.kind = SocketAddress::Kind::kUnix;
  address.path = path;

  SocketListener::Options listener_options;
  listener_options.address = address;
  SocketListener listener(listener_options);
  // Queue capacity x shards exceeds the whole workload, so nothing can
  // shed: every frame the wire delivers must be accepted, making
  // samples/sec an honest end-to-end rate.
  ControlPlane plane(PlaneOptions(w.endpoints, 8, 4096),
                     [&listener](std::uint32_t id, bool enable) {
                       return listener.SendActuation(id, enable);
                     });
  listener.BindPlane(&plane);
  if (!listener.Start()) return result;

  // Go handshake: the blaster sends the warmup round, then waits for one
  // byte on this pair before it sends the rest. The counting window thus
  // opens before the measured rounds leave the child, even when a single
  // PollOnce could read the whole workload.
  int go[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, go) != 0) {
    listener.Stop();
    (void)::unlink(path);
    return result;
  }
  const pid_t child = ::fork();
  if (child < 0) {
    ::close(go[0]);
    ::close(go[1]);
    listener.Stop();
    (void)::unlink(path);
    return result;
  }
  if (child == 0) {
    // Blaster: the workload bytes are shared copy-on-write and only
    // read; nothing here allocates. The opportunistic drain keeps the
    // child's receive buffer from filling with actuation frames.
    ::close(go[1]);
    const int fd = ConnectSocket(address);
    if (fd < 0) _exit(3);
    unsigned char sink[4096];
    for (int round = 0; round < w.rounds; ++round) {
      if (round == 1) {
        unsigned char byte = 0;
        if (ReadChunk(go[0], &byte, 1) != 1) _exit(5);
      }
      for (int e = 0; e < w.endpoints; ++e) {
        if (!SendFully(fd, w.FrameData(round, e), w.FrameSize(round, e))) {
          _exit(4);
        }
      }
      (void)::recv(fd, sink, sizeof(sink), MSG_DONTWAIT);
    }
    _exit(0);
  }
  ::close(go[0]);

  const std::uint64_t expected_frames =
      static_cast<std::uint64_t>(w.rounds) *
      static_cast<std::uint64_t>(w.endpoints);
  // Warmup ends once a full round has crossed the wire: accept, sink
  // binding, pollfd growth, and first-drain scratch are all excluded —
  // steady state is the claim, same as the in-process measurement.
  const std::uint64_t warmup_frames =
      static_cast<std::uint64_t>(w.endpoints);
  const std::uint64_t deadline_ns = NowNs() + 30'000'000'000ULL;
  bool counting = false;
  std::uint64_t counted_from_frames = 0;
  std::uint64_t counted_from_samples = 0;
  std::uint64_t count_start_ns = 0;
  std::uint64_t frames = 0;
  while (frames < expected_frames && NowNs() < deadline_ns) {
    listener.PollOnce(20, NowNs());
    plane.DrainAll(NowNs());
    plane.AdvanceTick();
    frames = listener.SnapshotStats().frames_ingested.value();
    if (!counting && frames >= warmup_frames) {
      counting = true;
      counted_from_frames = frames;
      counted_from_samples = plane.SnapshotStats().samples_accepted.value();
      g_heap_allocs.store(0);
      g_count_allocs.store(true);
      count_start_ns = NowNs();
      const unsigned char byte = 1;
      (void)SendFully(go[1], &byte, 1);
    }
  }
  g_count_allocs.store(false);
  const std::uint64_t count_stop_ns = NowNs();
  // A blaster still waiting for the go byte (deadline hit during warmup)
  // reads EOF here and exits.
  ::close(go[1]);

  int status = 0;
  (void)::waitpid(child, &status, 0);
  const bool child_ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  listener.Stop();
  (void)::unlink(path);

  const std::uint64_t counted_frames = frames - counted_from_frames;
  const std::uint64_t counted_samples =
      plane.SnapshotStats().samples_accepted.value() - counted_from_samples;
  const double seconds =
      static_cast<double>(count_stop_ns - count_start_ns) * 1e-9;
  result.completed = child_ok && frames == expected_frames && counting;
  result.frames_over_socket = frames;
  if (seconds > 0.0) {
    result.samples_per_sec = static_cast<double>(counted_samples) / seconds;
  }
  if (counted_frames > 0) {
    result.allocs_per_frame = static_cast<double>(g_heap_allocs.load()) /
                              static_cast<double>(counted_frames);
  }
  return result;
}

// Kill-storm arm: the real binaries, a real chaos proxy on the wire,
// and SIGKILL for every role — exporters one by one, the proxy, and the
// plane itself (journal warm-restore on the way back up). The restarted
// plane's graceful shutdown must report every endpoint reconverged, and
// the journal it leaves behind must replay to all endpoints.

pid_t SpawnTool(const std::vector<std::string>& argv,
                const std::string& log_path) {
  // argv is marshalled before fork: the child only dup2s and execs.
  std::vector<char*> args;
  args.reserve(argv.size() + 1);
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const int fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd >= 0) {
    (void)::dup2(fd, STDOUT_FILENO);
    (void)::dup2(fd, STDERR_FILENO);
    if (fd > STDERR_FILENO) (void)::close(fd);
  }
  ::execv(args[0], args.data());
  _exit(127);
}

void ReapProcess(pid_t pid) {
  if (pid <= 0) return;
  int status = 0;
  (void)::waitpid(pid, &status, 0);
}

void KillHard(pid_t pid) {
  if (pid <= 0) return;
  (void)::kill(pid, SIGKILL);
  ReapProcess(pid);
}

void StopSoft(pid_t pid) {
  if (pid <= 0) return;
  (void)::kill(pid, SIGTERM);
  ReapProcess(pid);
}

void SleepMs(int ms) {
  timespec ts{};
  ts.tv_sec = ms / 1000;
  ts.tv_nsec = static_cast<long>(ms % 1000) * 1'000'000L;
  while (::nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

bool FileContains(const std::string& path, const char* needle) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::string contents;
  char buffer[4096];
  std::size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    contents.append(buffer, n);
  }
  std::fclose(f);
  return contents.find(needle) != std::string::npos;
}

struct KillStormResult {
  bool ran = false;          // all three binaries spawned
  bool reconverged = false;  // plane's final banner says every endpoint
  bool journal_ok = false;   // journal replays to all endpoints
  int journal_endpoints = 0;
  std::uint64_t journal_valid_records = 0;
};

KillStormResult RunKillStorm(const std::string& daemon_path,
                             const std::string& exporter_path,
                             const std::string& proxy_path) {
  KillStormResult result;
  constexpr int kEndpoints = 8;
  char prefix[64];
  std::snprintf(prefix, sizeof(prefix), "/tmp/limoncello_gate_%d",
                static_cast<int>(::getpid()));
  const std::string plane_sock = std::string(prefix) + "_plane.sock";
  const std::string proxy_sock = std::string(prefix) + "_proxy.sock";
  const std::string journal = std::string(prefix) + ".journal";
  const std::string plane_log = std::string(prefix) + "_plane.log";
  const std::string peer_log = std::string(prefix) + "_peers.log";
  for (const std::string& p :
       {plane_sock, proxy_sock, journal, plane_log, peer_log}) {
    (void)::unlink(p.c_str());
  }

  // Plane tick 10 ms with a 16-tick staleness window: a restarted
  // exporter (sequence reset to 1) must be re-adopted within 160 ms.
  auto spawn_plane = [&]() {
    return SpawnTool({daemon_path, "--listen=" + plane_sock,
                      "--endpoints=" + std::to_string(kEndpoints),
                      "--tick-ms=10", "--max-missed-samples=16",
                      "--state-file=" + journal},
                     plane_log);
  };
  // Mild ambient chaos: every fault category stays live on the wire for
  // the whole storm, on top of the kills.
  auto spawn_proxy = [&]() {
    return SpawnTool({proxy_path, "--listen=" + proxy_sock,
                      "--upstream=" + plane_sock, "--seed=7",
                      "--drop=0.02", "--reorder=0.01", "--duplicate=0.02",
                      "--truncate=0.02", "--stale=0.01"},
                     peer_log);
  };
  auto spawn_exporter = [&](int id) {
    return SpawnTool({exporter_path, "--connect=" + proxy_sock,
                      "--endpoint-id=" + std::to_string(id),
                      "--seed=" + std::to_string(100 + id), "--tick-ms=2",
                      "--samples-per-batch=2", "--initial-backoff-ms=5",
                      "--max-backoff-ms=80"},
                     peer_log);
  };

  pid_t plane = spawn_plane();
  pid_t proxy = spawn_proxy();
  std::vector<pid_t> exporters;
  for (int i = 0; i < kEndpoints; ++i) {
    exporters.push_back(spawn_exporter(i));
  }
  result.ran = plane > 0 && proxy > 0;
  for (const pid_t e : exporters) result.ran = result.ran && e > 0;
  if (!result.ran) {
    StopSoft(plane);
    StopSoft(proxy);
    for (const pid_t e : exporters) StopSoft(e);
    return result;
  }

  SleepMs(400);  // steady telemetry through the proxy

  // SIGKILL every exporter in turn; each restart resets its sequence
  // numbering, forcing the plane through reject -> staleness-forget ->
  // re-adopt for every endpoint.
  for (int i = 0; i < kEndpoints; ++i) {
    KillHard(exporters[static_cast<std::size_t>(i)]);
    SleepMs(30);
    exporters[static_cast<std::size_t>(i)] = spawn_exporter(i);
  }
  SleepMs(200);

  // SIGKILL the proxy: every connection on both sides dies at once.
  KillHard(proxy);
  SleepMs(100);
  proxy = spawn_proxy();
  SleepMs(200);

  // SIGKILL the plane itself; the restart warm-restores from the
  // journal (stale socket file included — no operator cleanup).
  KillHard(plane);
  SleepMs(150);
  plane = spawn_plane();

  // Stabilization: covers reconnect backoff (cap 80 ms), the staleness
  // window (160 ms), and several clean batches on top.
  SleepMs(1500);

  // Graceful shutdown prints the reconvergence banner and snapshots the
  // journal; peers are still alive at that instant, so "fresh" is a
  // statement about the healed fleet, not about shutdown ordering.
  StopSoft(plane);
  for (const pid_t e : exporters) StopSoft(e);
  StopSoft(proxy);

  char banner[64];
  std::snprintf(banner, sizeof(banner), "reconverged %d/%d endpoints",
                kEndpoints, kEndpoints);
  result.reconverged = FileContains(plane_log, banner);

  const EndpointJournalReplay replay = EndpointStateJournal::Replay(journal);
  result.journal_endpoints = static_cast<int>(replay.states.size());
  result.journal_valid_records = replay.valid_records;
  bool all_sequenced =
      replay.states.size() == static_cast<std::size_t>(kEndpoints);
  for (const EndpointPersistentState& state : replay.states) {
    all_sequenced = all_sequenced && state.have_sequence;
  }
  result.journal_ok = replay.file_found && all_sequenced;

  if (result.reconverged && result.journal_ok) {
    for (const std::string& p :
         {plane_sock, proxy_sock, journal, plane_log, peer_log}) {
      (void)::unlink(p.c_str());
    }
  } else {
    std::fprintf(stderr,
                 "kill-storm evidence kept: %s %s %s\n",
                 plane_log.c_str(), peer_log.c_str(), journal.c_str());
  }
  return result;
}

// ---------------------------------------------------------------------------

std::vector<int> ParseThreadList(const std::string& spec) {
  std::vector<int> threads;
  std::string token;
  for (std::size_t i = 0; i <= spec.size(); ++i) {
    if (i == spec.size() || spec[i] == ',') {
      if (!token.empty()) {
        const int t = std::atoi(token.c_str());
        if (t >= 1) threads.push_back(t);
        token.clear();
      }
    } else {
      token.push_back(spec[i]);
    }
  }
  return threads;
}

bool WriteJson(const std::string& path, const Workload& w,
               const ControlPlaneOptions& options,
               const std::vector<RunResult>& runs, bool deterministic,
               double allocs_per_frame, const ChaosResult& chaos,
               int hardware_threads) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"control_plane\",\n");
  std::fprintf(f, "  \"endpoints\": %d,\n", w.endpoints);
  std::fprintf(f, "  \"shards\": %d,\n", options.num_shards);
  std::fprintf(f, "  \"samples_per_batch\": %d,\n", w.samples_per_batch);
  std::fprintf(f, "  \"rounds\": %d,\n", w.rounds);
  std::fprintf(f, "  \"queue_capacity\": %d,\n", options.queue.capacity);
  std::fprintf(f, "  \"hardware_threads\": %d,\n", hardware_threads);
  std::fprintf(f, "  \"ingest\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    std::fprintf(
        f,
        "    {\"threads\": %d, \"seconds\": %.6f, \"samples_per_sec\": "
        "%.0f, \"frames_per_sec\": %.0f, \"frames_shed\": "
        "%llu, \"backpressure_signals\": %llu}%s\n",
        r.threads, r.seconds, r.samples_per_sec, r.frames_per_sec,
        static_cast<unsigned long long>(r.stats.frames_shed.value()),
        static_cast<unsigned long long>(
            r.stats.backpressure_signals.value()),
        i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"deterministic_across_threads\": %s,\n",
               deterministic ? "true" : "false");
  std::fprintf(f, "  \"allocs_per_frame\": %.6f,\n", allocs_per_frame);
  std::fprintf(
      f,
      "  \"chaos\": {\"endpoints\": %d, \"frames_sent\": %llu, "
      "\"frames_delivered\": %llu, \"dropped\": %llu, \"reordered\": %llu, "
      "\"duplicated\": %llu, \"truncated\": %llu, \"stale_redeliveries\": "
      "%llu, \"decode_failures\": %llu, \"sequence_rejects\": %llu, "
      "\"stale_endpoint_failsafes\": %llu, \"endpoints_reconverged\": %d, "
      "\"reconvergence_ticks_max\": %d}\n",
      chaos.endpoints, static_cast<unsigned long long>(chaos.frames_sent),
      static_cast<unsigned long long>(chaos.frames_delivered),
      static_cast<unsigned long long>(chaos.dropped),
      static_cast<unsigned long long>(chaos.reordered),
      static_cast<unsigned long long>(chaos.duplicated),
      static_cast<unsigned long long>(chaos.truncated),
      static_cast<unsigned long long>(chaos.staled),
      static_cast<unsigned long long>(chaos.decode_failures),
      static_cast<unsigned long long>(chaos.sequence_rejects),
      static_cast<unsigned long long>(chaos.failsafes),
      chaos.endpoints_reconverged, chaos.reconvergence_ticks);
  std::fprintf(f, "}\n");
  std::fclose(f);
  return true;
}

// ---------------------------------------------------------------------------

int RunGate(const FlagParser& flags) {
  // Fixed gate configuration: big enough that serial wall time dominates
  // timer noise, small enough to stay an instant ctest. Capacity 64 with
  // drains every 4 rounds makes the queues actually shed, so the
  // determinism check covers the shed path, not just the happy path.
  const int endpoints = 128;
  const int samples_per_batch = 8;
  const int ticks = 1024;
  const int hw = ResolveThreadCount(0);
  const Workload w = GenerateWorkload(endpoints, ticks, samples_per_batch, 0);
  std::printf("control plane gate: %d endpoints x %d rounds (%llu samples), "
              "host has %d hardware threads\n",
              endpoints, w.rounds,
              static_cast<unsigned long long>(w.total_samples), hw);

  const ControlPlaneOptions shed_options = PlaneOptions(endpoints, 8, 64);
  std::vector<RunResult> runs;
  for (int t : {1, 2, 4}) {
    runs.push_back(RunIngest(w, shed_options, t, /*drain_every=*/4,
                             /*parallel_push=*/false));
  }
  bool identical = true;
  for (const RunResult& r : runs) identical &= SameOutcome(runs[0], r);
  std::printf("[%s] counters + endpoint state bit-identical at 1/2/4 drain "
              "threads (shed %llu of %llu frames)\n",
              identical ? "pass" : "FAIL",
              static_cast<unsigned long long>(
                  runs[0].stats.frames_shed.value()),
              static_cast<unsigned long long>(
                  runs[0].stats.frames_ingested.value()));
  const bool shed_exercised = runs[0].stats.frames_shed.value() > 0;
  std::printf("[%s] shed path exercised by the gate workload\n",
              shed_exercised ? "pass" : "FAIL");

  const ControlPlaneOptions roomy_options = PlaneOptions(endpoints, 8, 1024);
  const double allocs_per_frame = MeasureIngestAllocs(w, roomy_options);
  const bool allocs_ok = allocs_per_frame < kGateAllocsPerFrame;
  std::printf("[%s] heap allocs per frame: %.4f (budget %.2f)\n",
              allocs_ok ? "pass" : "FAIL", allocs_per_frame,
              kGateAllocsPerFrame);

  // Best-of-3 serial throughput vs the 1M samples/sec floor.
  RunResult best;
  for (int rep = 0; rep < 3; ++rep) {
    RunResult r = RunIngest(w, roomy_options, 1, /*drain_every=*/1,
                            /*parallel_push=*/false);
    if (rep == 0 || r.samples_per_sec > best.samples_per_sec) {
      best = std::move(r);
    }
  }
  const bool fast_enough = best.samples_per_sec >= kGateSamplesPerSecFloor;
  std::printf("[%s] serial ingest %.2fM samples/sec (floor %.1fM)\n",
              fast_enough ? "pass" : "FAIL", best.samples_per_sec * 1e-6,
              kGateSamplesPerSecFloor * 1e-6);

  // The same floors, with a process boundary and a real socket in the
  // middle: frames arrive as an arbitrarily-split byte stream through
  // the reassembler instead of as in-process calls.
  const SocketFloorResult socket_floor = RunSocketFloor(w);
  const bool socket_fast =
      socket_floor.completed &&
      socket_floor.samples_per_sec >= kGateSamplesPerSecFloor;
  const bool socket_allocs_ok =
      socket_floor.completed &&
      socket_floor.allocs_per_frame < kGateAllocsPerFrame;
  std::printf("[%s] socket ingest %.2fM samples/sec across the process "
              "boundary (floor %.1fM; %llu frames over the wire)\n",
              socket_fast ? "pass" : "FAIL",
              socket_floor.samples_per_sec * 1e-6,
              kGateSamplesPerSecFloor * 1e-6,
              static_cast<unsigned long long>(
                  socket_floor.frames_over_socket));
  std::printf("[%s] socket heap allocs per frame: %.4f (budget %.2f)\n",
              socket_allocs_ok ? "pass" : "FAIL",
              socket_floor.allocs_per_frame, kGateAllocsPerFrame);

  // Kill-storm: needs the tool binaries (ctest passes their paths).
  // Without them the arm is reported as skipped, never silently green.
  const std::string daemon_path = flags.GetString("daemon").value_or("");
  const std::string exporter_path = flags.GetString("exporter").value_or("");
  const std::string proxy_path = flags.GetString("flakyproxy").value_or("");
  bool storm_ok = true;
  if (daemon_path.empty() || exporter_path.empty() || proxy_path.empty()) {
    std::printf("[skip] kill -9 storm (pass --daemon/--exporter/"
                "--flakyproxy to run it)\n");
  } else {
    const KillStormResult storm =
        RunKillStorm(daemon_path, exporter_path, proxy_path);
    storm_ok = storm.ran && storm.reconverged && storm.journal_ok;
    std::printf("[%s] kill -9 storm: plane, proxy, and all 8 exporters "
                "each SIGKILLed; restarted plane reconverged 8/8 "
                "(banner %s) and the journal replays %d endpoint(s) "
                "from %llu valid record(s)\n",
                storm_ok ? "pass" : "FAIL",
                storm.reconverged ? "found" : "MISSING",
                storm.journal_endpoints,
                static_cast<unsigned long long>(
                    storm.journal_valid_records));
  }

  return identical && shed_exercised && allocs_ok && fast_enough &&
                 socket_fast && socket_allocs_ok && storm_ok
             ? 0
             : 1;
}

int Run(const FlagParser& flags) {
  if (flags.GetBool("gate").value_or(false)) return RunGate(flags);

  const int endpoints =
      static_cast<int>(flags.GetInt("endpoints").value_or(256));
  const int ticks = static_cast<int>(flags.GetInt("ticks").value_or(4096));
  const int samples_per_batch = 8;
  const int hw = ResolveThreadCount(0);
  std::string spec = flags.GetString("threads").value_or("1,2,4");
  std::vector<int> threads = ParseThreadList(spec);
  if (threads.empty()) {
    std::fprintf(stderr, "error: bad --threads list '%s'\n", spec.c_str());
    return 2;
  }

  std::printf("control plane ingest: %d endpoints x %d ticks (host has %d "
              "hardware threads)\n",
              endpoints, ticks, hw);
  const Workload w = GenerateWorkload(endpoints, ticks, samples_per_batch, 0);
  const ControlPlaneOptions options = PlaneOptions(endpoints, 8, 1024);

  // Throughput sweep: parallel producers + parallel per-shard drains.
  std::vector<RunResult> runs;
  for (int t : threads) {
    runs.push_back(RunIngest(w, options, t, /*drain_every=*/1,
                             /*parallel_push=*/t > 1));
  }
  Table table({"threads", "wall(s)", "samples/sec", "frames/sec",
               "shed"});
  for (const RunResult& r : runs) {
    table.AddRow({Table::Num(static_cast<std::int64_t>(r.threads)),
                  Table::Num(r.seconds, 3), Table::Num(r.samples_per_sec, 0),
                  Table::Num(r.frames_per_sec, 0),
                  Table::Num(static_cast<std::int64_t>(
                      r.stats.frames_shed.value()))});
  }
  table.Print("Control plane: ingest throughput by thread count");

  // Determinism cross-check at sweep scale (serial canonical pushes).
  std::vector<RunResult> det;
  for (int t : {1, 4}) {
    det.push_back(RunIngest(w, PlaneOptions(endpoints, 8, 64), t,
                            /*drain_every=*/4, /*parallel_push=*/false));
  }
  const bool deterministic = SameOutcome(det[0], det[1]);
  std::printf("\ncounters across drain thread counts: %s\n",
              deterministic ? "bit-identical" : "MISMATCH (plane bug!)");

  const double allocs_per_frame = MeasureIngestAllocs(w, options);
  std::printf("steady-state heap allocs per frame: %.4f\n", allocs_per_frame);

  // Chaos reconvergence arm.
  const ChaosResult chaos = RunChaos(/*endpoints=*/64, /*ticks=*/2048,
                                     /*chaos_ticks=*/1024, samples_per_batch);
  std::printf(
      "\nchaos arm: %llu frames sent -> %llu delivered (%llu dropped, %llu "
      "reordered, %llu duplicated, %llu truncated, %llu stale)\n"
      "           %llu decode failures, %llu sequence rejects, %llu "
      "fail-safes; %d/%d endpoints reconverged within %d ticks of the "
      "window closing\n",
      static_cast<unsigned long long>(chaos.frames_sent),
      static_cast<unsigned long long>(chaos.frames_delivered),
      static_cast<unsigned long long>(chaos.dropped),
      static_cast<unsigned long long>(chaos.reordered),
      static_cast<unsigned long long>(chaos.duplicated),
      static_cast<unsigned long long>(chaos.truncated),
      static_cast<unsigned long long>(chaos.staled),
      static_cast<unsigned long long>(chaos.decode_failures),
      static_cast<unsigned long long>(chaos.sequence_rejects),
      static_cast<unsigned long long>(chaos.failsafes),
      chaos.endpoints_reconverged, chaos.endpoints,
      chaos.reconvergence_ticks);

  const std::string json_path =
      flags.GetString("json").value_or("BENCH_control.json");
  if (!WriteJson(json_path, w, options, runs, deterministic, allocs_per_frame,
                 chaos, hw)) {
    std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return deterministic ? 0 : 1;
}

}  // namespace
}  // namespace limoncello::bench

int main(int argc, char** argv) {
  limoncello::FlagParser flags;
  flags.Define("endpoints", "fleet size for the sweep (default 256)")
      .Define("ticks", "exporter ticks to replay (default 4096)")
      .Define("threads", "comma-separated thread counts (default 1,2,4)")
      .Define("json", "output path (default BENCH_control.json)")
      .Define("gate", "run the CI gate checks and exit")
      .Define("daemon", "limoncellod path (gate kill-storm arm)")
      .Define("exporter", "limoncello-exporter path (gate kill-storm arm)")
      .Define("flakyproxy", "limoncello-flakyproxy path (gate kill-storm arm)");
  if (!flags.Parse(argc, argv)) return 2;
  return limoncello::bench::Run(flags);
}
