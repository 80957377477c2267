// limoncellod --listen acts on a telemetry frame in the poll that reads
// it, not at the next tick. The test spawns the real daemon (path given
// as --daemon=<path>, the way bench_control_gate gets it) with a 60 s
// tick and a zero sustain window, so one sample beyond a threshold flips
// the FSM at once, and talks to it over a UNIX socket as an exporter
// would:
//   - a priming frame between the thresholds binds the route, and the
//     plane re-asserts its intent (prefetchers on);
//   - a frame above the upper threshold must come back as an LAC1
//     disable within 10 s: a daemon that drains only at tick boundaries
//     sends it at the 60 s tick;
//   - 200 more crossings, alternating enable and disable, must each come
//     back exactly once with the scripted value, and nothing else may
//     arrive (perfbench wire's exactly-once check, on one endpoint).
#include <gtest/gtest.h>

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "control/actuation_frame.h"
#include "control/telemetry_batch.h"
#include "transport/frame_reassembler.h"
#include "transport/socket_addr.h"
#include "util/posix_io.h"

extern char** environ;

namespace limoncello {
namespace {

std::string g_daemon_path;

using Clock = std::chrono::steady_clock;

constexpr auto kReplyTimeout = std::chrono::seconds(10);
constexpr int kCrossings = 200;

// The daemon child, stopped (SIGTERM, then SIGKILL) however the test
// ends.
class DaemonProcess {
 public:
  explicit DaemonProcess(const std::vector<std::string>& args) {
    std::vector<std::string> copy = args;
    std::vector<char*> argv;
    for (std::string& arg : copy) argv.push_back(arg.data());
    argv.push_back(nullptr);
    if (posix_spawn(&pid_, argv[0], nullptr, nullptr, argv.data(),
                    environ) != 0) {
      pid_ = -1;
    }
  }
  ~DaemonProcess() {
    if (pid_ <= 0) return;
    (void)::kill(pid_, SIGTERM);
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > deadline) {
        (void)::kill(pid_, SIGKILL);
        (void)::waitpid(pid_, &status, 0);
        break;
      }
      ::usleep(2000);
    }
  }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  bool running() const { return pid_ > 0; }

 private:
  pid_t pid_ = -1;
};

// The exporter side of one connection: sends telemetry frames and
// collects the LAC1 actuations the plane writes back.
class Exporter {
 public:
  explicit Exporter(int fd) : fd_(fd), reassembler_(ReassemblerOptions()) {}
  ~Exporter() { (void)::close(fd_); }
  Exporter(const Exporter&) = delete;
  Exporter& operator=(const Exporter&) = delete;

  bool Send(double utilization) {
    TelemetryBatch batch;
    batch.endpoint_id = 0;
    batch.sequence = ++sequence_;
    batch.num_samples = 1;
    batch.utilization[0] = utilization;
    unsigned char frame[kMaxTelemetryFrameBytes];
    return SendFully(fd_, frame, EncodeTelemetryBatch(batch, frame));
  }

  // Reads until at least one actuation has arrived or `timeout` passes,
  // then returns every actuation read so far.
  std::vector<ActuationCommandFrame> Await(Clock::duration timeout) {
    const auto deadline = Clock::now() + timeout;
    while (received_.empty() && !closed_) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() < 0) break;
      ReadFor(static_cast<int>(left.count()) + 1);
    }
    std::vector<ActuationCommandFrame> out;
    out.swap(received_);
    return out;
  }

  bool closed() const { return closed_; }
  std::uint64_t undecodable() const { return undecodable_; }

 private:
  static FrameReassembler::Options ReassemblerOptions() {
    FrameReassembler::Options options;
    options.magic = kActuationFrameMagic;
    options.max_payload_bytes = kActuationFramePayloadBytes;
    options.read_chunk_bytes = 4096;
    return options;
  }

  void ReadFor(int timeout_ms) {
    pollfd entry{};
    entry.fd = fd_;
    entry.events = POLLIN;
    if (::poll(&entry, 1, timeout_ms) <= 0) return;
    unsigned char chunk[4096];
    const ssize_t n = ReadChunk(fd_, chunk, sizeof(chunk));
    if (n <= 0) {
      closed_ = true;
      return;
    }
    (void)reassembler_.Ingest(
        chunk, static_cast<std::size_t>(n),
        [this](const unsigned char* frame, std::size_t size) {
          ActuationCommandFrame command;
          if (DecodeActuationCommand(frame, size, &command) !=
              ActuationDecodeStatus::kOk) {
            ++undecodable_;
            return;
          }
          received_.push_back(command);
        });
  }

  int fd_;
  FrameReassembler reassembler_;
  std::uint64_t sequence_ = 0;
  std::vector<ActuationCommandFrame> received_;
  std::uint64_t undecodable_ = 0;
  bool closed_ = false;
};

int ConnectWithin(const SocketAddress& address, Clock::duration timeout) {
  const auto deadline = Clock::now() + timeout;
  for (;;) {
    const int fd = ConnectSocket(address);
    if (fd >= 0 || Clock::now() > deadline) return fd;
    ::usleep(5000);
  }
}

// Thresholds are limoncellod's defaults: 0.80 upper, 0.60 lower.
constexpr double kBetween = 0.70;
constexpr double kAbove = 0.95;
constexpr double kBelow = 0.30;

TEST(LimoncellodListenTest, ActsOnAFrameInThePollThatReadsIt) {
  ASSERT_FALSE(g_daemon_path.empty()) << "pass --daemon=<limoncellod>";
  char path[96];
  std::snprintf(path, sizeof(path), "/tmp/limoncellod_listen_test_%d.sock",
                static_cast<int>(::getpid()));
  const SocketAddress address = ParseSocketAddress(path);
  ASSERT_TRUE(address.valid());

  struct Unlink {
    const char* path;
    ~Unlink() { (void)::unlink(path); }
  } unlink_socket{path};  // after the daemon has stopped
  DaemonProcess daemon({g_daemon_path, std::string("--listen=") + path,
                        "--endpoints=1", "--tick-sec=60", "--sustain-sec=0"});
  ASSERT_TRUE(daemon.running());
  const int fd = ConnectWithin(address, kReplyTimeout);
  ASSERT_GE(fd, 0) << "limoncellod never listened on " << path;
  Exporter exporter(fd);

  // Priming: the first frame binds the route; the plane re-asserts its
  // intent. The sample sits between the thresholds, so the FSM stays.
  ASSERT_TRUE(exporter.Send(kBetween));
  std::vector<ActuationCommandFrame> got = exporter.Await(kReplyTimeout);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].endpoint_id, 0u);
  EXPECT_TRUE(got[0].enable);

  // One sample above the upper threshold disables at once (sustain 0),
  // and the disable is sent when the frame is read, not at the tick.
  ASSERT_TRUE(exporter.Send(kAbove));
  got = exporter.Await(kReplyTimeout);
  ASSERT_EQ(got.size(), 1u)
      << "no actuation within 10 s of the crossing frame";
  EXPECT_EQ(got[0].endpoint_id, 0u);
  EXPECT_FALSE(got[0].enable);

  // Alternating crossings: each echoed exactly once, with its value.
  bool enabled = false;
  for (int i = 0; i < kCrossings; ++i) {
    enabled = !enabled;
    ASSERT_TRUE(exporter.Send(enabled ? kBelow : kAbove)) << i;
    got = exporter.Await(kReplyTimeout);
    ASSERT_EQ(got.size(), 1u) << "crossing " << i;
    EXPECT_EQ(got[0].endpoint_id, 0u) << i;
    ASSERT_EQ(got[0].enable, enabled) << "crossing " << i;
  }
  // Nothing further: no retry, fail-safe or duplicate actuation.
  got = exporter.Await(std::chrono::milliseconds(200));
  EXPECT_TRUE(got.empty()) << got.size() << " unexpected actuation(s)";
  EXPECT_FALSE(exporter.closed());
  EXPECT_EQ(exporter.undecodable(), 0u);
}

}  // namespace
}  // namespace limoncello

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  const std::string flag = "--daemon=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(flag, 0) == 0) {
      limoncello::g_daemon_path = arg.substr(flag.size());
    }
  }
  return RUN_ALL_TESTS();
}
