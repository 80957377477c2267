#include "common.h"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>

namespace {

std::atomic<std::uint64_t> g_heap_allocs{0};
std::atomic<bool> g_count_allocs{false};

void* CountedAlloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  const std::size_t padded = (size + align - 1) / align * align;
  void* p = std::aligned_alloc(align, padded == 0 ? align : padded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// The probe replaces the global allocation functions of the benchmark
// binaries; counting is off except inside an AllocCounter window.
void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

void AllocCounter::Start() {
  g_heap_allocs.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
}

std::uint64_t AllocCounter::Stop() {
  g_count_allocs.store(false, std::memory_order_relaxed);
  return g_heap_allocs.load(std::memory_order_relaxed);
}

std::size_t NearestRankIndex(std::size_t n, double q) {
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  return rank == 0 ? 0 : std::min(rank, n) - 1;
}

std::optional<TailStat> TailPercentile(std::vector<double> samples,
                                       double wanted) {
  const std::size_t n = samples.size();
  if (n < kMinBeyond + 1) return std::nullopt;
  // Highest rank index that leaves kMinBeyond samples above it.
  const std::size_t max_index = n - 1 - kMinBeyond;
  std::size_t index = NearestRankIndex(n, wanted);
  double quantile = wanted;
  if (index > max_index) {
    index = max_index;
    quantile = static_cast<double>(index + 1) / static_cast<double>(n);
  }
  std::sort(samples.begin(), samples.end());
  TailStat tail;
  tail.quantile = quantile;
  tail.value = samples[index];
  tail.count = n;
  tail.beyond = n - 1 - index;
  return tail;
}

TailStat RankTail(std::vector<double> samples, double q) {
  TailStat tail;
  tail.quantile = q;
  tail.count = samples.size();
  if (samples.empty()) return tail;
  const std::size_t index = NearestRankIndex(samples.size(), q);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  tail.value = samples[index];
  tail.beyond = samples.size() - 1 - index;
  return tail;
}

double Mean(const std::vector<double>& samples) {
  double sum = 0.0;
  for (double x : samples) sum += x;
  return samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
}

TailStat TailPercentileOrRank(std::vector<double> samples, double wanted) {
  if (auto tail = TailPercentile(samples, wanted); tail.has_value()) {
    return *tail;
  }
  return RankTail(std::move(samples), wanted);
}

std::string DescribeTail(const TailStat& tail) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "p%.4g=%.6g (n=%zu, %zu beyond)",
                100.0 * tail.quantile, tail.value, tail.count, tail.beyond);
  return buf;
}

// ---------------------------------------------------------------------------

Tracer::Tracer(std::size_t max_kept_spans) : max_kept_(max_kept_spans) {
  stack_.reserve(64);
  kept_.reserve(std::min<std::size_t>(max_kept_spans, 1u << 16));
}

void Tracer::Begin(const char* name) {
  std::int64_t kept_index = -1;
  if (kept_.size() < max_kept_) {
    kept_index = static_cast<std::int64_t>(kept_.size());
    const std::int64_t parent =
        stack_.empty() ? -1 : stack_.back().kept_index;
    kept_.push_back({name, 0, 0, parent});
  }
  stack_.push_back({name, NowNs(), 0, kept_index});
  if (kept_index >= 0) {
    kept_[static_cast<std::size_t>(kept_index)].start_ns =
        stack_.back().start_ns;
  }
}

void Tracer::End() {
  const std::uint64_t end = NowNs();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::uint64_t duration = end - open.start_ns;
  const std::uint64_t self =
      duration > open.child_ns ? duration - open.child_ns : 0;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (open.kept_index >= 0) {
    kept_[static_cast<std::size_t>(open.kept_index)].end_ns = end;
  }
  NameStats& stats = stats_[open.name];
  stats.duration_ns.push_back(static_cast<double>(duration));
  stats.self_ns.push_back(static_cast<double>(self));
  ++recorded_;
}

const Tracer::NameStats* Tracer::Find(const char* name) const {
  for (const auto& [key, stats] : stats_) {
    if (std::strcmp(key, name) == 0) return &stats;
  }
  return nullptr;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "index\tparent\tname\tstart_ns\tend_ns\n");
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Kept& k = kept_[i];
    std::fprintf(f, "%zu\t%lld\t%s\t%llu\t%llu\n", i,
                 static_cast<long long>(k.parent), k.name,
                 static_cast<unsigned long long>(k.start_ns),
                 static_cast<unsigned long long>(k.end_ns));
  }
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------

int Nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

std::uint64_t L3Bytes() {
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string text;
  if (!(in >> text) || text.empty()) return 0;
  std::uint64_t value = std::strtoull(text.c_str(), nullptr, 10);
  switch (text.back()) {
    case 'K': value <<= 10; break;
    case 'M': value <<= 20; break;
    case 'G': value <<= 30; break;
    default: break;
  }
  return value;
}

std::string CompilerId() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string BuildType() {
#ifdef PERFBENCH_BUILD_TYPE
  return PERFBENCH_BUILD_TYPE;
#else
  return "unknown";
#endif
}

double PeakRssMb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(static_cast<long long>(pid)) +
                     "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

CpuTimes CpuTimes::Now() {
  // A stack buffer and no streams: this allocates nothing, so workloads
  // may call it inside an AllocCounter window.
  CpuTimes t;
  const int fd = ::open("/proc/stat", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return t;
  char buf[512];
  const ssize_t n = ::read(fd, buf, sizeof(buf) - 1);
  ::close(fd);
  if (n <= 3) return t;
  buf[n] = '\0';
  // "cpu  user nice system idle iowait irq softirq steal guest guest_nice";
  // guest time is already counted in user.
  const char* p = buf + 3;
  for (int field = 0; field < 8; ++field) {
    char* end = nullptr;
    const std::uint64_t v = std::strtoull(p, &end, 10);
    if (end == p) break;
    p = end;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double StealShare(const CpuTimes& before, const CpuTimes& after) {
  const std::uint64_t total = after.total - before.total;
  return total > 0 ? static_cast<double>(after.steal - before.steal) /
                         static_cast<double>(total)
                   : 0.0;
}

std::vector<std::size_t> LeastStolen(const std::vector<double>& steal) {
  std::vector<std::size_t> order(steal.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&steal](std::size_t a, std::size_t b) {
                     return steal[a] < steal[b];
                   });
  std::size_t keep = (steal.size() + 1) / 2;
  while (keep < order.size() && steal[order[keep]] <= kMaxStealShare) ++keep;
  order.resize(keep);
  std::sort(order.begin(), order.end());
  return order;
}

std::vector<double> Select(const std::vector<double>& values,
                           const std::vector<std::size_t>& keep) {
  std::vector<double> out;
  out.reserve(keep.size());
  for (std::size_t i : keep) out.push_back(values[i]);
  return out;
}

double ProcessCpuSeconds(pid_t pid) {
  const std::string dir =
      "/proc/" + std::to_string(static_cast<long long>(pid)) + "/task";
  DIR* tasks = ::opendir(dir.c_str());
  if (tasks == nullptr) return -1.0;
  std::uint64_t ns = 0;
  while (const dirent* task = ::readdir(tasks)) {
    if (task->d_name[0] == '.') continue;
    // The first field is the task's time on a CPU, in ns.
    std::ifstream in(dir + "/" + task->d_name + "/schedstat");
    std::uint64_t run_ns = 0;
    if (in >> run_ns) ns += run_ns;
  }
  ::closedir(tasks);
  return static_cast<double>(ns) / 1e9;
}

std::uint64_t Fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// ---------------------------------------------------------------------------

std::vector<Metric> EndToEndMetrics(const WorkloadResult& r) {
  return {
      {"setup_s", r.setup_s, "s"},
      {"peak_rss_mb", r.peak_rss_mb, "MiB"},
      {"work_per_s", r.work_per_s, "1/s"},
      {"a_p50_us", r.a_p50_us, "us"},
      {"a_p90_us", r.a_p90_us, "us"},
      {"b_p50_us", r.b_p50_us, "us"},
      {"b_p90_us", r.b_p90_us, "us"},
  };
}

void PrintMetrics(const char* heading, const std::vector<Metric>& metrics) {
  std::printf("%s\n", heading);
  for (const Metric& m : metrics) {
    std::printf("  %-44s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace perfbench
