// Socket hot-path microbenchmark and allocation gate, registered as the
// bench_socket_smoke ctest: end-to-end Socket::ProcessAccess throughput
// (demand lines/sec through the full L1/L2/LLC/memory path, prefetch
// engines on and off) plus heap-allocation audits, counted by perfbench's
// operator-new probe. It exits non-zero if
//   - the steady-state tick loop of either socket arm allocates at all
//     (the zero-alloc invariant of the access loop),
//   - the daemon loop with the fault layer in place (empty plan)
//     allocates more or less than the bare loop, or
//   - the daemon loop journaling every tick allocates more or less than
//     the bare loop (the StateJournal append path stays off the heap).
// perfbench's socket_sim workload measures the same socket at benchmark
// scale.
//
//   bench_socket [--epochs=N] [--smoke]
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "core/daemon.h"
#include "faults/fault_injector.h"
#include "msr/simulated_msr_device.h"
#include "perfbench/src/common.h"
#include "recovery/recovery_manager.h"
#include "sim/machine/socket.h"
#include "util/flags.h"
#include "util/table.h"
#include "workloads/generators.h"

namespace limoncello::bench {
namespace {

using perfbench::AllocCounter;

struct SocketArmResult {
  bool prefetchers_on = false;
  std::uint64_t lines = 0;
  std::uint64_t instructions = 0;
  double seconds = 0.0;
  double lines_per_sec = 0.0;
  std::uint64_t steady_state_allocs = 0;
};

SocketConfig BenchSocketConfig() {
  SocketConfig config;
  config.num_cores = 4;
  config.memory.jitter_fraction = 0.0;
  return config;
}

// One core per access-pattern archetype: stream, memcpy-shaped stream
// with stores, strided walk, random (prefetch-hostile).
void AttachWorkloads(Socket* socket, std::uint64_t seed) {
  SequentialStreamGenerator::Options stream;
  stream.working_set_bytes = 64 * kMiB;
  stream.mean_stream_bytes = 32 * 1024;
  stream.function = 0;
  socket->SetWorkload(0, std::make_unique<SequentialStreamGenerator>(
                             stream, Rng(seed).Fork(0)));
  SequentialStreamGenerator::Options copy = stream;
  copy.store_fraction = 1.0;
  copy.function = 1;
  socket->SetWorkload(1, std::make_unique<SequentialStreamGenerator>(
                             copy, Rng(seed).Fork(1)));
  StridedGenerator::Options strided;
  strided.working_set_bytes = 64 * kMiB;
  strided.stride_lines = 4;
  strided.function = 2;
  socket->SetWorkload(
      2, std::make_unique<StridedGenerator>(strided, Rng(seed).Fork(2)));
  RandomAccessGenerator::Options random;
  random.working_set_bytes = 64 * kMiB;
  random.function = 3;
  socket->SetWorkload(3, std::make_unique<RandomAccessGenerator>(
                             random, Rng(seed).Fork(3)));
}

SocketArmResult RunSocketArm(bool prefetchers_on, int epochs) {
  using Clock = std::chrono::steady_clock;
  Socket socket(BenchSocketConfig(), /*num_functions=*/8, Rng(0x50C7));
  socket.SetAllPrefetchersEnabled(prefetchers_on);
  AttachWorkloads(&socket, 0x50C7);

  // Warm-up: trains the prefetch engines and fills the caches. The
  // prefetch scratch is reserved at construction, not grown here.
  for (int epoch = 0; epoch < 12; ++epoch) socket.Step(100 * kNsPerUs);

  const PmuCounters warm = socket.counters();
  AllocCounter::Start();
  const auto start = Clock::now();
  for (int epoch = 0; epoch < epochs; ++epoch) socket.Step(100 * kNsPerUs);
  const auto end = Clock::now();
  const std::uint64_t allocs = AllocCounter::Stop();
  const PmuCounters& done = socket.counters();

  SocketArmResult result;
  result.prefetchers_on = prefetchers_on;
  result.lines = done.lines_touched - warm.lines_touched;
  result.instructions = done.instructions - warm.instructions;
  result.seconds = std::chrono::duration<double>(end - start).count();
  result.lines_per_sec =
      result.seconds > 0.0
          ? static_cast<double>(result.lines) / result.seconds
          : 0.0;
  result.steady_state_allocs = allocs;
  return result;
}

// ---------------------------------------------------------------------------
// Daemon fault-path overhead guard: the control loop with the fault
// decorators in place (but an empty FaultPlan) must allocate exactly as
// much as the bare loop in steady state — the no-fault path through
// FaultyUtilizationSource / FaultyMsrDevice is allocation-free.

struct DaemonArmResult {
  bool with_fault_layer = false;
  std::uint64_t ticks = 0;
  double seconds = 0.0;
  double ticks_per_sec = 0.0;
  std::uint64_t steady_state_allocs = 0;
};

// Sawtooth utilization sweeping through both thresholds so the daemon
// keeps actuating (period 200 ticks, 0.55 <-> 0.9).
class SawtoothTelemetry : public UtilizationSource {
 public:
  std::optional<double> SampleUtilization() override {
    const int phase = tick_++ % 200;
    const double frac =
        phase < 100 ? phase / 100.0 : (200 - phase) / 100.0;
    return 0.55 + 0.35 * frac;
  }

 private:
  int tick_ = 0;
};

DaemonArmResult RunDaemonArm(bool with_fault_layer, int ticks) {
  using Clock = std::chrono::steady_clock;
  constexpr int kCpus = 8;
  SimulatedMsrDevice device(kCpus);
  FaultPlan plan;  // empty: the fault layer is present but never fires
  FaultInjector injector(&plan);
  FaultyMsrDevice faulty_device(&device, &injector);
  MsrDevice* msr =
      with_fault_layer ? static_cast<MsrDevice*>(&faulty_device) : &device;
  PrefetchControl control(msr, PlatformMsrLayout::kIntelStyle, 0, kCpus);
  MsrPrefetchActuator actuator(&control, kCpus);
  SawtoothTelemetry inner_telemetry;
  FaultyUtilizationSource faulty_telemetry(&inner_telemetry, &injector);
  UtilizationSource* telemetry =
      with_fault_layer ? static_cast<UtilizationSource*>(&faulty_telemetry)
                       : &inner_telemetry;
  ControllerConfig config;
  config.sustain_duration_ns = 3 * kNsPerSec;
  LimoncelloDaemon daemon(config, telemetry, &actuator);

  // Warm-up: grows the daemon's trace buffers past the timed window.
  for (int t = 0; t < 256; ++t) {
    if (with_fault_layer) injector.BeginTick();
    daemon.RunTick(static_cast<SimTimeNs>(t) * kNsPerSec);
  }

  AllocCounter::Start();
  const auto start = Clock::now();
  for (int t = 256; t < 256 + ticks; ++t) {
    if (with_fault_layer) injector.BeginTick();
    daemon.RunTick(static_cast<SimTimeNs>(t) * kNsPerSec);
  }
  const auto end = Clock::now();
  const std::uint64_t allocs = AllocCounter::Stop();

  DaemonArmResult result;
  result.with_fault_layer = with_fault_layer;
  result.ticks = static_cast<std::uint64_t>(ticks);
  result.seconds = std::chrono::duration<double>(end - start).count();
  result.ticks_per_sec =
      result.seconds > 0.0 ? ticks / result.seconds : 0.0;
  result.steady_state_allocs = allocs;
  return result;
}

// ---------------------------------------------------------------------------
// Recovery-overhead guard: the control loop journaling its state through
// a RecoveryManager (worst case: an append every tick, periodic
// compaction) must allocate exactly as much as the bare loop in steady
// state — StateJournal serializes into a preallocated buffer and writes
// to a kept-open descriptor, so persistence costs I/O, never heap.

struct RecoveryArmResult {
  bool with_journal = false;
  std::uint64_t ticks = 0;
  double seconds = 0.0;
  double ticks_per_sec = 0.0;
  std::uint64_t steady_state_allocs = 0;
  std::uint64_t journal_appends = 0;
  std::uint64_t journal_compactions = 0;
};

RecoveryArmResult RunRecoveryArm(bool with_journal, int ticks,
                                 const std::string& journal_path) {
  using Clock = std::chrono::steady_clock;
  constexpr int kCpus = 8;
  SimulatedMsrDevice device(kCpus);
  PrefetchControl control(&device, PlatformMsrLayout::kIntelStyle, 0, kCpus);
  MsrPrefetchActuator actuator(&control, kCpus);
  SawtoothTelemetry telemetry;
  ControllerConfig config;
  config.sustain_duration_ns = 3 * kNsPerSec;
  LimoncelloDaemon daemon(config, &telemetry, &actuator);

  std::unique_ptr<RecoveryManager> recovery;
  if (with_journal) {
    (void)std::remove(journal_path.c_str());
    RecoveryOptions options;
    options.state_file = journal_path;
    options.snapshot_period_ticks = 1;  // worst case: journal every tick
    options.compact_every_appends = 64;
    recovery = std::make_unique<RecoveryManager>(options, &daemon);
    (void)recovery->RecoverAndReconcile();
  }

  // Warm-up covers trace-buffer growth, the journal's lazy open, and at
  // least one compaction cycle, so the timed window sees only the
  // steady-state append path.
  for (int t = 0; t < 256; ++t) {
    const LimoncelloDaemon::TickRecord record =
        daemon.RunTick(static_cast<SimTimeNs>(t) * kNsPerSec);
    if (recovery != nullptr) recovery->OnTickComplete(record);
  }

  AllocCounter::Start();
  const auto start = Clock::now();
  for (int t = 256; t < 256 + ticks; ++t) {
    const LimoncelloDaemon::TickRecord record =
        daemon.RunTick(static_cast<SimTimeNs>(t) * kNsPerSec);
    if (recovery != nullptr) recovery->OnTickComplete(record);
  }
  const auto end = Clock::now();
  const std::uint64_t allocs = AllocCounter::Stop();

  RecoveryArmResult result;
  result.with_journal = with_journal;
  result.ticks = static_cast<std::uint64_t>(ticks);
  result.seconds = std::chrono::duration<double>(end - start).count();
  result.ticks_per_sec =
      result.seconds > 0.0 ? ticks / result.seconds : 0.0;
  result.steady_state_allocs = allocs;
  if (recovery != nullptr) {
    result.journal_appends = recovery->journal().stats().appends;
    result.journal_compactions = recovery->journal().stats().snapshots;
    recovery.reset();
    (void)std::remove(journal_path.c_str());
  }
  return result;
}

int Run(const FlagParser& flags) {
  const bool smoke = flags.GetBool("smoke").value_or(false);
  const int epochs =
      static_cast<int>(flags.GetInt("epochs").value_or(smoke ? 6 : 60));

  const SocketArmResult arms[] = {RunSocketArm(true, epochs),
                                  RunSocketArm(false, epochs)};
  const int daemon_ticks = smoke ? 512 : 4096;
  const DaemonArmResult daemon_arms[] = {
      RunDaemonArm(/*with_fault_layer=*/false, daemon_ticks),
      RunDaemonArm(/*with_fault_layer=*/true, daemon_ticks)};
  const RecoveryArmResult recovery_arms[] = {
      RunRecoveryArm(/*with_journal=*/false, daemon_ticks,
                     "bench_socket_state.journal"),
      RunRecoveryArm(/*with_journal=*/true, daemon_ticks,
                     "bench_socket_state.journal")};

  Table table({"prefetchers", "Mlines/sec", "MIPS", "steady_allocs"});
  for (const SocketArmResult& arm : arms) {
    table.AddRow({arm.prefetchers_on ? "on" : "off",
                  Table::Num(arm.lines_per_sec / 1e6, 2),
                  Table::Num(static_cast<double>(arm.instructions) /
                                 arm.seconds / 1e6,
                             1),
                  Table::Num(static_cast<std::int64_t>(
                      arm.steady_state_allocs))});
  }
  table.Print("Socket::ProcessAccess throughput (demand lines/sec)");

  Table daemon_table({"daemon arm", "Mticks/sec", "steady_allocs"});
  for (const DaemonArmResult& arm : daemon_arms) {
    daemon_table.AddRow({arm.with_fault_layer ? "fault layer (empty plan)"
                                              : "bare",
                         Table::Num(arm.ticks_per_sec / 1e6, 2),
                         Table::Num(static_cast<std::int64_t>(
                             arm.steady_state_allocs))});
  }
  daemon_table.Print("Daemon control loop (fault-injection overhead)");

  Table recovery_table(
      {"recovery arm", "Mticks/sec", "steady_allocs", "appends"});
  for (const RecoveryArmResult& arm : recovery_arms) {
    recovery_table.AddRow(
        {arm.with_journal ? "journal (period 1)" : "bare",
         Table::Num(arm.ticks_per_sec / 1e6, 2),
         Table::Num(static_cast<std::int64_t>(arm.steady_state_allocs)),
         Table::Num(static_cast<std::int64_t>(arm.journal_appends))});
  }
  recovery_table.Print("Daemon control loop (state-journal overhead)");

  for (const SocketArmResult& arm : arms) {
    if (arm.steady_state_allocs != 0) {
      std::fprintf(stderr,
                   "FAIL: %llu heap allocations in the steady-state "
                   "access loop (prefetchers %s); the hot path must be "
                   "allocation-free\n",
                   static_cast<unsigned long long>(arm.steady_state_allocs),
                   arm.prefetchers_on ? "on" : "off");
      return 1;
    }
  }
  if (daemon_arms[0].steady_state_allocs !=
      daemon_arms[1].steady_state_allocs) {
    std::fprintf(stderr,
                 "FAIL: the empty-plan fault layer changed the daemon "
                 "loop's allocation count (bare %llu vs fault layer "
                 "%llu); the no-fault path must add zero allocations\n",
                 static_cast<unsigned long long>(
                     daemon_arms[0].steady_state_allocs),
                 static_cast<unsigned long long>(
                     daemon_arms[1].steady_state_allocs));
    return 1;
  }
  if (recovery_arms[0].steady_state_allocs !=
      recovery_arms[1].steady_state_allocs) {
    std::fprintf(stderr,
                 "FAIL: journaling changed the daemon loop's allocation "
                 "count (bare %llu vs journal %llu); the StateJournal "
                 "append path must be allocation-free\n",
                 static_cast<unsigned long long>(
                     recovery_arms[0].steady_state_allocs),
                 static_cast<unsigned long long>(
                     recovery_arms[1].steady_state_allocs));
    return 1;
  }
  std::printf("\nsteady-state allocation check: clean\n");
  return 0;
}

}  // namespace
}  // namespace limoncello::bench

int main(int argc, char** argv) {
  limoncello::FlagParser flags;
  flags.Define("epochs", "timed 100us epochs per arm (default 60, smoke 6)")
      .Define("smoke", "tiny sizes for CI (a few ms)")
      .Define("help", "show this help");
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n%s", flags.error().c_str(),
                 flags.Help(argv[0]).c_str());
    return 2;
  }
  if (flags.GetBool("help").value_or(false)) {
    std::printf("%s", flags.Help(argv[0]).c_str());
    return 0;
  }
  return limoncello::bench::Run(flags);
}
