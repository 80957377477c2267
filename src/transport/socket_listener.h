// The control plane's ingest front door: a poll(2) readiness loop over
// a listening socket and its accepted exporter connections.
//
// Design (DESIGN.md §16):
//
//   exporters ──connect──► listener ──frames──► ControlPlane::IngestFrame
//             ◄─actuation─          ◄─ActuateFn─
//
//   * Single-threaded by construction: the owner calls PollOnce() from
//     its control loop; accepts, reads, frame reassembly, ingest and
//     actuation flushes all happen on that one thread, so the listener
//     needs no locks of its own. (The plane's own sharded locking makes
//     ingest safe regardless.)
//   * Nonblocking everywhere: accept4(SOCK_NONBLOCK), EAGAIN-aware
//     reads and sends, EINTR retried at the syscall wrappers
//     (util/posix_io.h). The loop never stalls on one slow peer.
//   * Each connection owns a FrameReassembler, so frames split or
//     coalesced across reads — or torn by the flaky proxy — reassemble
//     independently per stream.
//   * Actuation routing is learned, not configured: a CRC-valid
//     telemetry frame binds its endpoint id to the connection it
//     arrived on. A rebind (exporter restarted and reconnected) re-
//     asserts the plane's current intent to the new connection, because
//     a fresh exporter process boots with hardware-default prefetcher
//     state and must be told what the plane last decided.
//   * The actuation path absorbs the three classic write-side failures:
//     SIGPIPE is never raised (MSG_NOSIGNAL), partial writes stay
//     buffered per connection and flush on POLLOUT, and a slow consumer
//     whose buffer is full causes the actuation to report failure —
//     feeding the plane's existing capped-exponential retry — instead
//     of blocking the loop.
#ifndef LIMONCELLO_TRANSPORT_SOCKET_LISTENER_H_
#define LIMONCELLO_TRANSPORT_SOCKET_LISTENER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "control/control_plane.h"
#include "stats/saturating.h"
#include "transport/frame_reassembler.h"
#include "transport/socket_addr.h"

struct pollfd;  // <poll.h>

namespace limoncello {

class SocketListener {
 public:
  struct Options {
    SocketAddress address;
    int backlog = 64;
    int max_connections = 512;
    std::size_t read_chunk_bytes = 4096;
    // Cap on buffered outbound actuation bytes per connection; beyond
    // it the consumer is slow and actuations fail into the plane's
    // retry machinery rather than growing memory.
    std::size_t out_buffer_bytes = 8192;
  };

  struct Stats {
    SatCounter accepts;
    SatCounter accept_overflows;   // connection table full
    SatCounter disconnects;
    SatCounter bytes_received;
    SatCounter frames_ingested;    // handed to ControlPlane::IngestFrame
    // Reassembly (summed over live and closed connections).
    SatCounter resync_bytes;
    SatCounter corrupt_frames;
    SatCounter oversize_rejects;
    SatCounter partial_frame_drops;  // EOF mid-frame (truncated final)
    // Actuation routing and delivery.
    SatCounter reroutes;             // endpoint bound to a new connection
    SatCounter intent_reasserts;     // intent pushed after a (re)bind
    SatCounter actuations_queued;
    SatCounter actuation_partial_flushes;
    SatCounter actuation_no_route;       // endpoint never seen / peer gone
    SatCounter actuation_slow_consumer;  // out buffer full, actuation failed
  };

  explicit SocketListener(const Options& options);
  ~SocketListener();

  SocketListener(const SocketListener&) = delete;
  SocketListener& operator=(const SocketListener&) = delete;

  // The plane is bound after construction (its ActuateFn closes over
  // this listener, so the two reference each other). Must be called
  // before PollOnce.
  void BindPlane(ControlPlane* plane);

  // Binds + listens. Returns false with errno set on failure.
  bool Start();

  // One readiness cycle: waits up to timeout_ms (0 = nonblocking poll),
  // then accepts new connections, reads and ingests telemetry, and
  // flushes pending actuation bytes. Returns the number of descriptors
  // that had events, or -1 on a dead listener socket.
  int PollOnce(int timeout_ms, std::uint64_t now_ns);

  // ControlPlane ActuateFn target: encodes an actuation frame and
  // queues it to endpoint_id's connection. Returns false (plane will
  // retry with backoff) when the endpoint has no live route or its
  // connection is a slow consumer. Called with a shard lock held: never
  // calls back into the plane.
  bool SendActuation(std::uint32_t endpoint_id, bool enable);

  void Stop();

  // TCP only: the port actually bound (use port 0 to auto-assign in
  // tests). 0 for UNIX listeners.
  std::uint16_t bound_port() const { return bound_port_; }

  int connection_count() const { return live_connections_; }

  // Totals including reassembly counters of closed connections.
  Stats SnapshotStats() const;

 private:
  struct Connection;

  void Accept();
  void HandleReadable(int slot, std::uint64_t now_ns);
  void HandleWritable(int slot);
  void CloseConnection(int slot);
  // Routes frame bytes into the plane and maintains actuation routing.
  void DeliverFrame(int slot, const unsigned char* frame, std::size_t size,
                    std::uint64_t now_ns);
  bool QueueFrameBytes(Connection& conn, const unsigned char* frame,
                       std::size_t size);
  void FlushConnection(int slot);

  Options options_;
  ControlPlane* plane_ = nullptr;
  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  int live_connections_ = 0;
  std::vector<std::unique_ptr<Connection>> slots_;
  // One past the highest slot ever accepted into. Accept fills the
  // lowest free slot, so every live connection sits below it and
  // PollOnce scans no further.
  int slot_limit_ = 0;
  // endpoint id -> slot index, -1 when unrouted.
  std::vector<int> route_;
  std::vector<pollfd> pollfds_;
  std::vector<int> pollfd_slot_;  // parallel: slot of pollfds_[i], -1 = listener
  // Timestamp for frames delivered by the current read pass; the per-
  // connection sinks are bound once and read it from here instead of
  // being rebound (and reallocated) every read.
  std::uint64_t deliver_now_ns_ = 0;
  Stats stats_;
};

}  // namespace limoncello

#endif  // LIMONCELLO_TRANSPORT_SOCKET_LISTENER_H_
