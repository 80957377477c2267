#include "transport/socket_listener.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "control/actuation_frame.h"
#include "control/telemetry_batch.h"
#include "util/check.h"
#include "util/posix_io.h"
#include "util/wire.h"

namespace limoncello {

// One accepted exporter stream. The reassembler buffer and the outbound
// actuation buffer are both sized at accept time; nothing here grows on
// the steady-state read/ingest/flush path.
struct SocketListener::Connection {
  Connection(const FrameReassembler::Options& reassembly,
             std::size_t out_capacity)
      : reassembler(reassembly), out(out_capacity) {}

  int fd = -1;
  FrameReassembler reassembler;
  FrameReassembler::FrameSink sink;  // bound once; captures {listener, slot}
  // Outbound actuation bytes: pending range is [out_head, out_size).
  std::vector<unsigned char> out;
  std::size_t out_head = 0;
  std::size_t out_size = 0;
};

SocketListener::SocketListener(const Options& options) : options_(options) {
  LIMONCELLO_CHECK_GT(options_.max_connections, 0);
  LIMONCELLO_CHECK_GT(options_.read_chunk_bytes, 0u);
  LIMONCELLO_CHECK_GE(options_.out_buffer_bytes, kActuationFrameBytes);
  slots_.resize(static_cast<std::size_t>(options_.max_connections));
}

SocketListener::~SocketListener() { Stop(); }

void SocketListener::BindPlane(ControlPlane* plane) {
  plane_ = plane;
  route_.assign(static_cast<std::size_t>(plane->num_endpoints()), -1);
}

bool SocketListener::Start() {
  LIMONCELLO_CHECK(plane_ != nullptr);
  listen_fd_ = CreateListenSocket(options_.address, options_.backlog);
  if (listen_fd_ < 0) return false;
  if (!SetNonBlocking(listen_fd_)) {
    Stop();
    return false;
  }
  if (options_.address.kind == SocketAddress::Kind::kTcp) {
    sockaddr_in sin{};
    socklen_t len = sizeof(sin);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&sin),
                      &len) == 0) {
      bound_port_ = ntohs(sin.sin_port);
    }
  }
  pollfds_.reserve(static_cast<std::size_t>(options_.max_connections) + 1);
  pollfd_slot_.reserve(static_cast<std::size_t>(options_.max_connections) +
                       1);
  return true;
}

void SocketListener::Stop() {
  for (int slot = 0; slot < static_cast<int>(slots_.size()); ++slot) {
    if (slots_[static_cast<std::size_t>(slot)] != nullptr &&
        slots_[static_cast<std::size_t>(slot)]->fd >= 0) {
      CloseConnection(slot);
    }
  }
  if (listen_fd_ >= 0) {
    (void)::close(listen_fd_);
    listen_fd_ = -1;
  }
}

int SocketListener::PollOnce(int timeout_ms, std::uint64_t now_ns) {
  if (listen_fd_ < 0) return -1;
  pollfds_.clear();
  pollfd_slot_.clear();
  pollfd listener_entry{};
  listener_entry.fd = listen_fd_;
  listener_entry.events = POLLIN;
  pollfds_.push_back(listener_entry);
  pollfd_slot_.push_back(-1);
  for (int slot = 0; slot < slot_limit_; ++slot) {
    Connection* conn = slots_[static_cast<std::size_t>(slot)].get();
    if (conn == nullptr || conn->fd < 0) continue;
    pollfd entry{};
    entry.fd = conn->fd;
    entry.events = POLLIN;
    if (conn->out_size > conn->out_head) entry.events |= POLLOUT;
    pollfds_.push_back(entry);
    pollfd_slot_.push_back(slot);
  }

  int ready;
  for (;;) {
    ready = ::poll(pollfds_.data(),
                   static_cast<nfds_t>(pollfds_.size()), timeout_ms);
    if (ready < 0 && errno == EINTR) {
      // A signal (SIGTERM on its way to the shutdown flag, SIGCHLD from
      // a test harness) interrupted the wait; report an empty cycle so
      // the owner re-checks its shutdown flag before we wait again.
      return 0;
    }
    break;
  }
  if (ready <= 0) return 0;

  for (std::size_t i = 0; i < pollfds_.size(); ++i) {
    const short revents = pollfds_[i].revents;
    if (revents == 0) continue;
    const int slot = pollfd_slot_[i];
    if (slot < 0) {
      if (revents & POLLIN) Accept();
      continue;
    }
    Connection* conn = slots_[static_cast<std::size_t>(slot)].get();
    if (conn == nullptr || conn->fd != pollfds_[i].fd) continue;
    if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
      // POLLHUP with unread data still delivers POLLIN first on Linux,
      // but a half-closed exporter has nothing more to say that its
      // final read() pass below won't surface.
      HandleReadable(slot, now_ns);
      if (slots_[static_cast<std::size_t>(slot)] != nullptr &&
          slots_[static_cast<std::size_t>(slot)]->fd >= 0) {
        CloseConnection(slot);
      }
      continue;
    }
    if (revents & POLLIN) HandleReadable(slot, now_ns);
    Connection* still = slots_[static_cast<std::size_t>(slot)].get();
    if ((revents & POLLOUT) && still != nullptr && still->fd >= 0) {
      HandleWritable(slot);
    }
  }
  return ready;
}

void SocketListener::Accept() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: drained; other errors: try again next cycle
    }
    int slot = -1;
    for (int s = 0; s < static_cast<int>(slots_.size()); ++s) {
      Connection* conn = slots_[static_cast<std::size_t>(s)].get();
      if (conn == nullptr || conn->fd < 0) {
        slot = s;
        break;
      }
    }
    if (slot < 0) {
      ++stats_.accept_overflows;
      (void)::close(fd);
      continue;
    }
    FrameReassembler::Options reassembly;
    reassembly.magic = kTelemetryBatchMagic;
    reassembly.max_payload_bytes = kTelemetryBatchFixedPayloadBytes +
                                   8 * TelemetryBatch::kMaxSamples;
    reassembly.read_chunk_bytes = options_.read_chunk_bytes;
    auto& entry = slots_[static_cast<std::size_t>(slot)];
    entry = std::make_unique<Connection>(reassembly,
                                         options_.out_buffer_bytes);
    entry->fd = fd;
    // The sink is bound once per connection so the per-read ingest loop
    // constructs nothing; the delivery timestamp rides in deliver_now_ns_.
    entry->sink = [this, slot](const unsigned char* frame,
                               std::size_t size) {
      DeliverFrame(slot, frame, size, deliver_now_ns_);
    };
    if (slot >= slot_limit_) slot_limit_ = slot + 1;
    ++live_connections_;
    ++stats_.accepts;
  }
}

void SocketListener::HandleReadable(int slot, std::uint64_t now_ns) {
  Connection* conn = slots_[static_cast<std::size_t>(slot)].get();
  unsigned char chunk[8192];
  const std::size_t chunk_cap =
      options_.read_chunk_bytes < sizeof(chunk) ? options_.read_chunk_bytes
                                                : sizeof(chunk);
  deliver_now_ns_ = now_ns;
  for (;;) {
    const ssize_t n = ReadChunk(conn->fd, chunk, chunk_cap);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // drained
      CloseConnection(slot);
      return;
    }
    if (n == 0) {
      // EOF. Bytes still buffered mean the peer died mid-frame — a
      // truncated final frame, counted and dropped, never delivered.
      if (conn->reassembler.buffered_bytes() > 0) {
        ++stats_.partial_frame_drops;
      }
      CloseConnection(slot);
      return;
    }
    stats_.bytes_received += static_cast<std::uint64_t>(n);
    (void)conn->reassembler.Ingest(chunk, static_cast<std::size_t>(n),
                                   conn->sink);
    // Frame delivery can close this connection from under us (actuation
    // flush hitting a reset peer); the object stays alive — slots are
    // recycled at accept, never freed mid-read — but the fd is gone.
    if (conn->fd < 0) return;
    if (static_cast<std::size_t>(n) < chunk_cap) return;  // likely drained
  }
}

void SocketListener::DeliverFrame(int slot, const unsigned char* frame,
                                  std::size_t size, std::uint64_t now_ns) {
  ++stats_.frames_ingested;
  (void)plane_->IngestFrame(frame, size, now_ns);
  // Routing peek: the payload opens with the endpoint id (the same
  // fixed-offset peek the plane's shard router uses). The frame is
  // CRC-valid here, so the id is trustworthy.
  if (size < kTelemetryBatchHeaderBytes + 4) return;
  const std::uint32_t endpoint_id =
      LoadU32(frame + kTelemetryBatchHeaderBytes);
  if (endpoint_id >= route_.size()) return;
  Connection* conn = slots_[static_cast<std::size_t>(slot)].get();
  if (conn->fd < 0) return;  // closed earlier in this same read pass
  const int previous = route_[endpoint_id];
  if (previous == slot) return;
  route_[endpoint_id] = slot;
  ++stats_.reroutes;
  // A new binding means a fresh exporter process (or one that failed
  // over): it boots on hardware defaults, so push the plane's current
  // decision at it rather than waiting for the FSM to toggle again.
  ActuationCommandFrame command;
  command.endpoint_id = endpoint_id;
  command.enable = plane_->EndpointIntentEnabled(endpoint_id);
  unsigned char encoded[kActuationFrameBytes];
  const std::size_t encoded_size = EncodeActuationCommand(command, encoded);
  if (QueueFrameBytes(*conn, encoded, encoded_size)) {
    ++stats_.intent_reasserts;
    FlushConnection(slot);
  }
}

bool SocketListener::QueueFrameBytes(Connection& conn,
                                     const unsigned char* frame,
                                     std::size_t size) {
  // Compact the consumed prefix before judging capacity.
  if (conn.out_head > 0) {
    std::memmove(conn.out.data(), conn.out.data() + conn.out_head,
                 conn.out_size - conn.out_head);
    conn.out_size -= conn.out_head;
    conn.out_head = 0;
  }
  if (conn.out.size() - conn.out_size < size) return false;
  std::memcpy(conn.out.data() + conn.out_size, frame, size);
  conn.out_size += size;
  return true;
}

void SocketListener::FlushConnection(int slot) {
  Connection* conn = slots_[static_cast<std::size_t>(slot)].get();
  while (conn->out_head < conn->out_size) {
    const ssize_t n = SendSome(conn->fd, conn->out.data() + conn->out_head,
                               conn->out_size - conn->out_head);
    if (n < 0) {
      // EPIPE/ECONNRESET: the peer is gone; its route dies with it and
      // the plane's staleness/retry machinery takes over.
      CloseConnection(slot);
      return;
    }
    if (n == 0) {
      // Socket buffer full: keep the remainder; POLLOUT resumes it.
      ++stats_.actuation_partial_flushes;
      return;
    }
    conn->out_head += static_cast<std::size_t>(n);
  }
  conn->out_head = 0;
  conn->out_size = 0;
}

void SocketListener::HandleWritable(int slot) { FlushConnection(slot); }

bool SocketListener::SendActuation(std::uint32_t endpoint_id, bool enable) {
  if (endpoint_id >= route_.size()) return false;
  const int slot = route_[endpoint_id];
  if (slot < 0) {
    ++stats_.actuation_no_route;
    return false;
  }
  Connection* conn = slots_[static_cast<std::size_t>(slot)].get();
  if (conn == nullptr || conn->fd < 0) {
    ++stats_.actuation_no_route;
    return false;
  }
  ActuationCommandFrame command;
  command.endpoint_id = endpoint_id;
  command.enable = enable;
  unsigned char encoded[kActuationFrameBytes];
  const std::size_t encoded_size = EncodeActuationCommand(command, encoded);
  if (!QueueFrameBytes(*conn, encoded, encoded_size)) {
    // Slow consumer: the exporter is alive but not draining its socket.
    // Failing the actuation (instead of blocking or buffering without
    // bound) hands the decision to the plane's capped-exponential
    // retry, which also covers the peer dying outright.
    ++stats_.actuation_slow_consumer;
    return false;
  }
  ++stats_.actuations_queued;
  FlushConnection(slot);
  // A flush failure above closed the connection and dropped the bytes;
  // the queueing still succeeded from the plane's point of view, and
  // the reconnect path re-asserts intent anyway.
  return true;
}

void SocketListener::CloseConnection(int slot) {
  Connection* conn = slots_[static_cast<std::size_t>(slot)].get();
  if (conn == nullptr || conn->fd < 0) return;
  (void)::close(conn->fd);
  conn->fd = -1;
  --live_connections_;
  ++stats_.disconnects;
  // Fold this stream's reassembly counters into the listener totals.
  const FrameReassembler::Stats& rs = conn->reassembler.stats();
  stats_.resync_bytes += rs.resync_bytes;
  stats_.corrupt_frames += rs.corrupt_frames;
  stats_.oversize_rejects += rs.oversize_rejects;
  for (std::size_t id = 0; id < route_.size(); ++id) {
    if (route_[id] == slot) route_[id] = -1;
  }
  // The Connection object is deliberately NOT freed here: a close can
  // fire from inside this connection's own frame delivery (actuation
  // flush against a reset peer), while FrameReassembler::Ingest is
  // still walking its buffer. Dead slots are recycled at accept time.
}

SocketListener::Stats SocketListener::SnapshotStats() const {
  Stats merged = stats_;
  for (const auto& conn : slots_) {
    if (conn == nullptr || conn->fd < 0) continue;
    const FrameReassembler::Stats& rs = conn->reassembler.stats();
    merged.resync_bytes += rs.resync_bytes;
    merged.corrupt_frames += rs.corrupt_frames;
    merged.oversize_rejects += rs.oversize_rejects;
  }
  return merged;
}

}  // namespace limoncello
