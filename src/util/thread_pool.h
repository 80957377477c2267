// Small reusable worker pool for the fleet layer's parallel tick loop.
//
// The pool hands out contiguous index chunks from an atomic cursor, so a
// ParallelFor over N shards runs each shard exactly once on *some* thread.
// Determinism is the caller's contract: a shard's work must depend only on
// its index (never on which thread runs it or in what order shards are
// claimed), and shards must write to disjoint state. Under that contract
// results are identical at any thread count.
//
// A pool constructed with one thread spawns no workers at all: ParallelFor
// degenerates to a plain loop on the caller — the exact serial path.
//
// Synchronization goes through util/mutex.h so clang's -Wthread-safety can
// prove the lock discipline; the LIMONCELLO_GUARDED_BY annotations below are
// checked, not advisory.
#ifndef LIMONCELLO_UTIL_THREAD_POOL_H_
#define LIMONCELLO_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>  // limolint:allow(raw-thread)
#include <vector>

#include "util/mutex.h"

namespace limoncello {

// Resolves a requested thread count to an actual one:
//   requested >= 1          use it as-is,
//   requested == 0 (auto)   process default (SetDefaultThreadCount), else
//                           the LIMONCELLO_THREADS environment variable,
//                           else std::thread::hardware_concurrency().
// Always returns >= 1.
int ResolveThreadCount(int requested);

// Sets the process-wide default used by ResolveThreadCount(0); tools wire
// their --threads flag through this. 0 clears the default (back to the
// environment / hardware).
void SetDefaultThreadCount(int count);

// Spin budget (microseconds) a pool rendezvous burns before falling back
// to a condition-variable sleep. Bigger budgets absorb longer gaps
// between jobs without a futex round trip (lower barrier latency, more
// busy CPU); 0 sleeps immediately (kindest to oversubscribed hosts).
// Resolution order: LIMONCELLO_SPIN_US env > built-in default (50 us).
// See DESIGN.md §12 for the tradeoff.
int ResolveSpinBudgetUs();

class ThreadPool {
 public:
  // num_threads must be >= 1 (pass through ResolveThreadCount first).
  // Spawns num_threads - 1 workers; the calling thread is the remaining
  // lane and participates in every ParallelFor.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  // Calls fn(i) exactly once for every i in [begin, end) and blocks until
  // all calls have returned. fn is invoked concurrently for distinct i and
  // must not throw. grain is the number of consecutive indices claimed per
  // atomic cursor step (load-balance knob only — it never changes which
  // calls are made). A job no larger than one grain runs inline on the
  // caller without waking the pool at all.
  void ParallelFor(std::int64_t begin, std::int64_t end,
                   const std::function<void(std::int64_t)>& fn,
                   std::int64_t grain = 1) LIMONCELLO_EXCLUDES(mu_);

 private:
  void WorkerLoop() LIMONCELLO_EXCLUDES(mu_);
  // Claims chunks of the current job until the cursor is exhausted. The job
  // parameters are read under mu_ by the caller and passed in by value, so
  // the drain itself touches only the atomic cursor.
  void DrainJob(const std::function<void(std::int64_t)>* fn,
                std::int64_t end, std::int64_t grain);

  const int num_threads_;
  std::vector<std::thread> workers_;  // limolint:allow(raw-thread)

  Mutex mu_;
  CondVar job_cv_;   // workers wait for a new job
  CondVar done_cv_;  // caller waits for job completion (slow path)
  bool shutdown_ LIMONCELLO_GUARDED_BY(mu_) = false;

  // Join/close protocol. ParallelFor publishes a job under mu_ (job_fn_
  // set, cursor reset, generation bumped), drains it, then closes it
  // under mu_: it waits there until active_workers_ is zero and sets
  // job_fn_ to nullptr in the same critical section. The generation
  // stays current after the close, so a worker joins only under mu_ and
  // only while job_fn_ is non-null; a worker that finds the job closed
  // records the generation and waits for the next one. Every worker that
  // joined is therefore counted before the close, and none can carry a
  // closed job's fn or end into the next job's cursor.
  //
  // Bumped under mu_ per job but also read lock-free: workers spin on it
  // briefly before sleeping on job_cv_, and the caller spins on
  // active_workers_ before taking mu_. Both spins are hints only; every
  // decision is remade under mu_. The fleet tick loop issues one job per
  // tick back-to-back, so in steady state both rendezvous hit the spin
  // fast path and the per-tick barrier costs no futex sleep/wake round
  // trips.
  std::atomic<std::uint64_t> job_generation_{0};
  // Workers currently inside DrainJob for the published job. Incremented
  // under mu_ (in the same critical section that reads the job
  // parameters, and only while job_fn_ is non-null), decremented under
  // mu_ after the drain. The caller closes the job only once it has seen
  // zero here while holding mu_.
  std::atomic<int> active_workers_{0};

  // Current job: non-null from publish until close; nullptr means no
  // worker may join.
  const std::function<void(std::int64_t)>* job_fn_
      LIMONCELLO_GUARDED_BY(mu_) = nullptr;
  std::int64_t job_end_ LIMONCELLO_GUARDED_BY(mu_) = 0;
  std::int64_t job_grain_ LIMONCELLO_GUARDED_BY(mu_) = 1;
  std::atomic<std::int64_t> job_cursor_{0};
};

// Runs the given thunks concurrently — thunks[0] on the calling thread,
// one spawned thread per remaining thunk — and returns when all complete.
// Used for independent experiment arms (A/B deployments, threshold
// candidates), which share no mutable state. Thunks must not throw.
void ParallelInvoke(std::vector<std::function<void()>> thunks);

}  // namespace limoncello

#endif  // LIMONCELLO_UTIL_THREAD_POOL_H_
