#include "util/thread_pool.h"

#include <chrono>
#include <cstdlib>

#include "util/check.h"

namespace limoncello {

namespace {

std::atomic<int> g_default_thread_count{0};

// One iteration of a polite spin: a pause hint for SMT siblings early on,
// then yields so an oversubscribed (or single-core) host can run the lane
// we are waiting for instead of burning the timeslice.
inline void SpinPause(int spin) {
  if (spin < 64) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::this_thread::yield();
#endif
  } else {
    std::this_thread::yield();
  }
}

// Default spin budget before falling back to a condition-variable sleep.
// Small on purpose: past this point the other side is not imminent and a
// futex sleep is cheaper than further yielding. Tunable via
// LIMONCELLO_SPIN_US (see thread_pool.h).
constexpr int kDefaultSpinBudgetUs = 50;

// Spins until pred() holds or the budget expires; returns pred()'s final
// value. The clock is only consulted every 32 iterations so the fast
// path (pred flips within a few pauses) never pays for a clock read.
template <typename Pred>
bool SpinUntil(const Pred& pred, int budget_us) {
  if (pred()) return true;
  if (budget_us <= 0) return false;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(budget_us);
  int spin = 0;
  for (;;) {
    SpinPause(spin++);
    if (pred()) return true;
    if ((spin & 31) == 0 &&
        std::chrono::steady_clock::now() >= deadline) {
      return pred();
    }
  }
}

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int EnvThreadCount() {
  const char* env = std::getenv("LIMONCELLO_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || v <= 0) return 0;
  return static_cast<int>(v);
}

int EnvSpinBudgetUs() {
  const char* env = std::getenv("LIMONCELLO_SPIN_US");
  if (env == nullptr || *env == '\0') return -1;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || v < 0) return -1;
  return static_cast<int>(v);
}

}  // namespace

int ResolveThreadCount(int requested) {
  if (requested >= 1) return requested;
  const int process_default = g_default_thread_count.load();
  if (process_default >= 1) return process_default;
  const int env = EnvThreadCount();
  if (env >= 1) return env;
  return HardwareThreads();
}

void SetDefaultThreadCount(int count) {
  g_default_thread_count.store(count < 0 ? 0 : count);
}

int ResolveSpinBudgetUs() {
  const int env = EnvSpinBudgetUs();
  if (env >= 0) return env;
  return kDefaultSpinBudgetUs;
}

ThreadPool::ThreadPool(int num_threads) : num_threads_(num_threads) {
  LIMONCELLO_CHECK_GE(num_threads, 1);
  workers_.reserve(static_cast<std::size_t>(num_threads - 1));
  for (int t = 1; t < num_threads; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  job_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::DrainJob(const std::function<void(std::int64_t)>* fn,
                          std::int64_t end, std::int64_t grain) {
  for (;;) {
    const std::int64_t chunk = job_cursor_.fetch_add(grain);
    if (chunk >= end) return;
    const std::int64_t chunk_end =
        chunk + grain < end ? chunk + grain : end;
    for (std::int64_t i = chunk; i < chunk_end; ++i) (*fn)(i);
  }
}

void ThreadPool::WorkerLoop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    // Spin-then-sleep pickup: back-to-back jobs (one per fleet epoch) are
    // caught here without a futex round trip. The spin is time-bounded
    // (ResolveSpinBudgetUs), so a shutdown during the spin still reaches
    // the condvar below.
    (void)SpinUntil(
        [&] {
          return job_generation_.load(std::memory_order_acquire) !=
                 seen_generation;
        },
        ResolveSpinBudgetUs());
    const std::function<void(std::int64_t)>* fn = nullptr;
    std::int64_t end = 0;
    std::int64_t grain = 1;
    {
      MutexLock lock(&mu_);
      job_cv_.Wait(&mu_, [&]() LIMONCELLO_REQUIRES(mu_) {
        return shutdown_ ||
               job_generation_.load(std::memory_order_relaxed) !=
                   seen_generation;
      });
      if (shutdown_) return;
      seen_generation = job_generation_.load(std::memory_order_relaxed);
      // ParallelFor closes a job (job_fn_ = nullptr) without bumping the
      // generation. A worker that arrives after the close must not join:
      // the next ParallelFor resets the cursor, and this worker would
      // claim that job's indices with this job's fn and end.
      if (job_fn_ == nullptr) continue;
      fn = job_fn_;
      end = job_end_;
      grain = job_grain_;
      // Joining the job is published in the same critical section that
      // read its parameters, so the caller cannot observe a drained
      // cursor with this worker unaccounted for.
      active_workers_.fetch_add(1, std::memory_order_relaxed);
    }
    DrainJob(fn, end, grain);
    {
      // Leave under mu_ so the caller's slow-path predicate cannot miss
      // the transition between its check and its sleep.
      MutexLock lock(&mu_);
      active_workers_.fetch_sub(1, std::memory_order_release);
    }
    done_cv_.NotifyOne();
  }
}

void ThreadPool::ParallelFor(std::int64_t begin, std::int64_t end,
                             const std::function<void(std::int64_t)>& fn,
                             std::int64_t grain) {
  if (begin >= end) return;
  LIMONCELLO_CHECK_GE(grain, 1);
  if (num_threads_ == 1 || end - begin <= grain) {
    // Exact serial path (single lane, or the whole job fits in one
    // grain): no cursor, no synchronization, no worker wakeup.
    for (std::int64_t i = begin; i < end; ++i) fn(i);
    return;
  }
  {
    MutexLock lock(&mu_);
    job_fn_ = &fn;
    job_end_ = end;
    job_grain_ = grain;
    job_cursor_.store(begin, std::memory_order_relaxed);
    job_generation_.fetch_add(1, std::memory_order_release);
  }
  job_cv_.NotifyAll();
  DrainJob(&fn, end, grain);  // the caller is a lane too
  // The cursor is exhausted; wait for workers still finishing their last
  // chunk. Spin first — chunks are short — then sleep. The spin is only a
  // hint: a worker may join between it and the lock, so the decision that
  // no worker is left in the job is made under mu_, in the same critical
  // section that closes the job.
  (void)SpinUntil(
      [&] {
        return active_workers_.load(std::memory_order_acquire) == 0;
      },
      ResolveSpinBudgetUs());
  MutexLock lock(&mu_);
  done_cv_.Wait(&mu_, [&]() LIMONCELLO_REQUIRES(mu_) {
    return active_workers_.load(std::memory_order_acquire) == 0;
  });
  job_fn_ = nullptr;
}

void ParallelInvoke(std::vector<std::function<void()>> thunks) {
  if (thunks.empty()) return;
  std::vector<std::thread> threads;  // limolint:allow(raw-thread)
  threads.reserve(thunks.size() - 1);
  for (std::size_t i = 1; i < thunks.size(); ++i) {
    threads.emplace_back(std::move(thunks[i]));
  }
  thunks[0]();
  for (std::thread& thread : threads) thread.join();
}

}  // namespace limoncello
