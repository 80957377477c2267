// Shared pieces of the repo benchmark: clocks, percentile selection, the
// span tracer, host facts, peak RSS, the heap-allocation probe, and the
// result record every workload fills in.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Percentiles.

// A tail percentile chosen so that at least kMinBeyond samples lie beyond
// it: the wanted quantile when the sample is large enough, else the
// highest quantile that still leaves kMinBeyond samples above it.
struct TailStat {
  double quantile = 0.0;   // the quantile actually reported
  double value = 0.0;
  std::size_t count = 0;   // samples
  std::size_t beyond = 0;  // samples strictly above the reported rank
};
inline constexpr std::size_t kMinBeyond = 10;

// Index (0-based, ascending order) of the nearest-rank quantile q in n
// samples. n must be > 0.
std::size_t NearestRankIndex(std::size_t n, double q);

// nullopt when fewer than kMinBeyond + 1 samples exist.
std::optional<TailStat> TailPercentile(std::vector<double> samples,
                                       double wanted);

// The nearest-rank quantile q, with its sample count and the number of
// samples beyond it. End-to-end tails use this, so the reported quantile
// is always the wanted one; the printout shows how thin it is.
TailStat RankTail(std::vector<double> samples, double q);

// TailPercentile, or RankTail when the sample is too small for it.
TailStat TailPercentileOrRank(std::vector<double> samples, double wanted);

// Nearest-rank median; 0 when empty.
inline double Median(std::vector<double> samples) {
  return RankTail(std::move(samples), 0.5).value;
}

// Arithmetic mean; 0 when empty.
double Mean(const std::vector<double>& samples);

// ---------------------------------------------------------------------------
// Span tracer. One tracer belongs to one thread: Begin/End nest like a
// call stack on that thread. Spans are kept in memory (up to a cap) and
// written when the run ends; per-name durations and self times (duration
// minus the time covered by child spans) are aggregated as spans close.

class Tracer {
 public:
  explicit Tracer(std::size_t max_kept_spans = 1u << 18);

  // `name` must outlive the tracer (a string literal or a static table).
  void Begin(const char* name);
  void End();

  struct NameStats {
    std::vector<double> duration_ns;
    std::vector<double> self_ns;
  };
  // nullptr when no span of that name closed.
  const NameStats* Find(const char* name) const;

  std::size_t spans_recorded() const { return recorded_; }
  std::size_t spans_kept() const { return kept_.size(); }

  // Tab-separated: index, parent, name, start_ns, end_ns.
  bool WriteTsv(const std::string& path) const;

 private:
  struct Open {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    std::int64_t kept_index;
  };
  struct Kept {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::int64_t parent;
  };

  std::size_t max_kept_;
  std::size_t recorded_ = 0;
  std::vector<Open> stack_;
  std::vector<Kept> kept_;
  // Keyed by the name pointer (names are static), looked up by string
  // content in Find.
  std::unordered_map<const char*, NameStats> stats_;
};

// RAII span; a no-op when the tracer is null (untraced runs).
class Span {
 public:
  Span(Tracer* tracer, const char* name) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(name);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

// ---------------------------------------------------------------------------
// Host facts and process measurements.

int Nproc();
std::string CpuModel();
std::uint64_t L3Bytes();  // 0 when unknown
std::string CompilerId();
std::string BuildType();
// Peak resident set (VmHWM) of a process, in MiB; 0 when unreadable.
double PeakRssMb(pid_t pid = 0);

// Host-wide CPU time counters from /proc/stat, to report the share of
// time the hypervisor stole from this VM over a run.
struct CpuTimes {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
  static CpuTimes Now();
};
double StealShare(const CpuTimes& before, const CpuTimes& after);

// Steal is a proxy for busy neighbours on the physical host, which slow
// every workload here (fleet_ab lost ~20% of its throughput at 13-20%
// steal). Workloads measure in segments and compute their end-to-end
// metrics from the segments the hypervisor stole least from: every
// segment with steal <= kMaxStealShare, or, when fewer than half qualify,
// the half with the least steal.
inline constexpr double kMaxStealShare = 0.01;
// Indices of the kept segments, ascending.
std::vector<std::size_t> LeastStolen(const std::vector<double>& steal);
// The values at `keep`.
std::vector<double> Select(const std::vector<double>& values,
                           const std::vector<std::size_t>& keep);

// CPU time all threads of a process have used, in seconds (from each
// task's schedstat, so without the time the hypervisor stole); -1 when
// unreadable.
double ProcessCpuSeconds(pid_t pid);

// 64-bit FNV-1a over the 8 little-endian bytes of v, continuing from h;
// the workloads' digests start from kFnvOffsetBasis.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
std::uint64_t Fnv1a(std::uint64_t h, std::uint64_t v);

// Heap-allocation probe: perfbench's operator new counts while enabled.
struct AllocCounter {
  static void Start();
  static std::uint64_t Stop();  // allocations since Start
};

// ---------------------------------------------------------------------------
// Results.

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  std::string daemon_path;  // limoncellod binary (wire)
  std::string scratch_dir;  // build directory: sockets and span files
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload pass produces. The end-to-end fields carry the
// generic metrics every workload reports (README.md maps each workload's
// meaning onto them); `named` holds the same numbers under the
// workload-specific names, plus tails with their sample counts.
struct WorkloadResult {
  std::string workload;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  double work_per_s = 0.0;
  double a_p50_us = 0.0;
  double a_p90_us = 0.0;
  double b_p50_us = 0.0;
  double b_p90_us = 0.0;
  std::vector<Metric> named;      // human report (end-to-end, by name)
  std::vector<Metric> per_layer;  // traced passes only
  std::vector<std::string> notes; // provenance and diagnostics
};

// Generic end-to-end metrics in BENCHMARK.json order.
std::vector<Metric> EndToEndMetrics(const WorkloadResult& r);

// Prints "  name = value unit" lines.
void PrintMetrics(const char* heading, const std::vector<Metric>& metrics);

// Tail formatting helper for the human report, e.g. "p90=812.1 (n=9000,
// 900 beyond)".
std::string DescribeTail(const TailStat& tail);

std::string JsonEscape(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
